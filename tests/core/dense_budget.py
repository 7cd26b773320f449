"""Budgeted GOMCDS's dense oracle.

:func:`repro.core.gomcds_budgeted` relaxes each budget layer with one
min-plus pass per mesh axis over a block of data, and recovers paths by
backtracking along the chosen path only.  This module states the same
DP the literal way, one datum at a time: an "exactly ``b`` moves" table,
a dense ``(m, m)`` move matrix with its diagonal barred (a move must
move), a full ``(W, B+1, m, 2)`` back-pointer table, and a per-datum
claim loop under capacity.  Ties go to the fewest moves, then staying,
then the lowest pid.  It is test-only: each window costs ``O(m**2 * B)``
per datum.
"""

from __future__ import annotations

import numpy as np

from repro.mem import CapacityError, OccupancyTracker

__all__ = ["dense_budgeted_path", "dense_gomcds_budgeted"]


def dense_budgeted_path(window_costs, move_costs, max_moves, allowed=None):
    """Optimal ``(W,)`` center path with at most ``max_moves`` relocations."""
    n_windows, n_procs = window_costs.shape
    budget = min(max_moves, n_windows - 1)
    costs = window_costs.astype(np.float64, copy=True)
    if allowed is not None:
        costs[~allowed] = np.inf

    # f[b, k]; back-pointers store (prev_budget, prev_center)
    f = np.full((budget + 1, n_procs), np.inf)
    f[0] = costs[0]
    back = np.zeros((n_windows, budget + 1, n_procs, 2), dtype=np.int64)
    for w in range(1, n_windows):
        new = np.full_like(f, np.inf)
        for b in range(budget + 1):
            best = f[b].copy()  # stay put
            choice_prev = np.full(n_procs, b)
            choice_center = np.arange(n_procs)
            if b > 0:
                transition = f[b - 1][:, None] + move_costs  # (from, to)
                np.fill_diagonal(transition, np.inf)  # a move must move
                move_best = transition.min(axis=0)
                better = move_best < best
                best = np.where(better, move_best, best)
                choice_prev = np.where(better, b - 1, choice_prev)
                choice_center = np.where(
                    better, transition.argmin(axis=0), choice_center
                )
            new[b] = best + costs[w]
            back[w, b, :, 0] = choice_prev
            back[w, b, :, 1] = choice_center
        f = new

    b, k = np.unravel_index(int(np.argmin(f)), f.shape)
    if not np.isfinite(f[b, k]):
        raise CapacityError("no feasible center path under the constraints")
    path = np.empty(n_windows, dtype=np.int64)
    b, k = int(b), int(k)
    path[-1] = k
    for w in range(n_windows - 1, 0, -1):
        b, k = (int(x) for x in back[w, b, k])
        path[w - 1] = k
    return path


def dense_gomcds_budgeted(tensor, model, max_moves, capacity=None):
    """``(D, W)`` budgeted centers, solving and claiming datum by datum."""
    costs = model.reference_costs(tensor)
    dist = model.distances.astype(np.float64)
    centers = np.empty((tensor.n_data, tensor.n_windows), dtype=np.int64)
    tracker = None
    order = np.arange(tensor.n_data)
    if capacity is not None:
        capacity.check_feasible(tensor.n_data)
        tracker = OccupancyTracker(capacity, n_windows=tensor.n_windows)
        order = tensor.data_priority_order()
    for d in order:
        allowed = None if tracker is None else tracker.available_mask()
        centers[d] = dense_budgeted_path(costs[d], dist, max_moves, allowed)
        if tracker is not None:
            tracker.claim_path(centers[d])
    return centers
