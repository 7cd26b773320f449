"""Algorithm 2: Global-Optimal Multiple-Center Data Scheduling (GOMCDS).

For each datum the paper builds a *cost-graph*: a layered DAG with one
node per (execution window, processor), a pseudo source ``s`` and sink
``d``.  The weight of an edge into node ``(w, k)`` is the reference cost
of hosting the datum at ``k`` during window ``w`` plus the cost of moving
it there from the previous window's processor.  The shortest ``s -> d``
path is the globally optimal center sequence, movement included.

Because the graph is layered and complete between layers, the shortest
path reduces to a forward dynamic program over windows:

    ``f_w[k] = min_j (f_{w-1}[j] + Dist[j, k]) + C[w, k]``

which we evaluate with one ``(m, m)`` broadcast per window, one datum
at a time — free, capacity-constrained and fault-masked solves all go
through the same per-datum walk.  ``C`` is the volume-free int64 tensor
:meth:`~repro.core.cost.CostModel.reference_costs`: a datum's volume
scales its reference and movement terms alike, so the optimal path never
depends on it, and solving without it keeps every DP value an exact
integer (ties break toward the lowest pid).  The test suite keeps the
literal networkx DAG as a differential-testing oracle for this DP.
"""

from __future__ import annotations

import numpy as np

from ..mem import CapacityError, CapacityPlan, OccupancyTracker
from ..obs import Instrumentation, record_decisions, resolve
from ..trace import ReferenceTensor
from .cost import CostModel
from .kernels import (
    placement_cost_tensor_python,
    resolve_kernel,
    shortest_center_path_python,
)
from .schedule import Schedule

__all__ = ["gomcds", "shortest_center_path"]

_INF = np.inf


def shortest_center_path(
    window_costs: np.ndarray,
    move_costs: np.ndarray,
    allowed: np.ndarray | None = None,
    return_potentials: bool = False,
):
    """Optimal center-per-window path for one datum.

    Parameters
    ----------
    window_costs:
        ``(n_windows, n_procs)`` reference cost of each candidate center.
    move_costs:
        ``(n_procs, n_procs)`` relocation cost between centers.
    allowed:
        Optional boolean mask of admissible ``(window, processor)`` cells
        (memory availability); disallowed cells are priced at infinity.
    return_potentials:
        Also return the forward DP value table ``f`` — the shortest-path
        node potentials that :mod:`repro.verify.certificate` checks for
        dual feasibility and tightness.

    Returns
    -------
    ``(path, cost)`` where ``path`` is the ``(n_windows,)`` pid sequence
    and ``cost`` the total reference + movement cost.  With
    ``return_potentials`` a third ``(n_windows, n_procs)`` array of DP
    potentials (``inf`` at inadmissible cells) is appended.

    Raises
    ------
    CapacityError
        If some window has no admissible processor at all.
    """
    n_windows, n_procs = window_costs.shape
    costs = window_costs.astype(np.float64, copy=True)
    if allowed is not None:
        costs[~allowed] = _INF
    back = np.zeros((n_windows, n_procs), dtype=np.int64)
    potentials = (
        np.empty((n_windows, n_procs), dtype=np.float64)
        if return_potentials
        else None
    )
    f = costs[0]
    if potentials is not None:
        potentials[0] = f
    for w in range(1, n_windows):
        # transition[j, k] = f[j] + move_costs[j, k]
        transition = f[:, None] + move_costs
        back[w] = transition.argmin(axis=0)
        f = transition.min(axis=0) + costs[w]
        if potentials is not None:
            potentials[w] = f
    end = int(f.argmin())
    total = float(f[end])
    if not np.isfinite(total):
        raise CapacityError("no feasible center path under the memory constraint")
    path = np.empty(n_windows, dtype=np.int64)
    path[-1] = end
    for w in range(n_windows - 1, 0, -1):
        path[w - 1] = back[w, path[w]]
    if return_potentials:
        return path, total, potentials
    return path, total


def _occupancy(
    capacity: CapacityPlan | None, n_data: int, n_windows: int
) -> OccupancyTracker | None:
    """Slot tracker for a capacity-constrained walk (``None`` when free)."""
    if capacity is None:
        return None
    capacity.check_feasible(n_data)
    return OccupancyTracker(capacity, n_windows=n_windows)


def _walk(
    costs: np.ndarray,
    dist: np.ndarray,
    order,
    *,
    solve_path=shortest_center_path,
    alive: np.ndarray | None = None,
    tracker: OccupancyTracker | None = None,
    certify: bool = False,
    keep_masks: bool = False,
):
    """Solve each datum's cost-graph in ``order`` and claim its path.

    The one per-datum path-solve loop behind GOMCDS and both
    reschedulers.  ``costs`` is ``(D, W, m)``; moves cost ``dist``.  A
    datum's admissible cells are the static ``alive`` mask intersected
    with the ``tracker``'s free slots, both optional.  Returns
    ``(centers, potentials, masks)``: the ``(D, W)`` paths, the DP
    potential tables when ``certify`` and the admissible masks when
    ``keep_masks`` (otherwise ``None``; masks need ``alive`` or
    ``tracker``).
    """
    dist = np.asarray(dist, dtype=np.float64)
    centers = np.empty(costs.shape[:2], dtype=np.int64)
    potentials = np.empty(costs.shape) if certify else None
    masks = np.empty(costs.shape, dtype=bool) if keep_masks else None
    for d in order:
        allowed = alive
        if tracker is not None:
            free = tracker.available_mask()
            allowed = free if alive is None else alive & free
        if masks is not None:
            masks[d] = allowed
        solved = solve_path(
            costs[d], dist, allowed=allowed, return_potentials=certify
        )
        if certify:
            potentials[d] = solved[2]
        if tracker is not None:
            tracker.claim_path(solved[0])
        centers[d] = solved[0]
    return centers, potentials, masks


def _certificate(
    potentials: np.ndarray,
    masks: np.ndarray | None = None,
    from_window: int = 0,
    placement: np.ndarray | None = None,
) -> dict:
    """Schedule-meta payload proving per-datum path optimality.

    ``potentials`` are the forward DP value tables — valid shortest-path
    node potentials over each datum's volume-free cost-graph
    (certificate version 2).  The standalone checker
    (:mod:`repro.verify.certificate`) verifies dual feasibility and
    tightness without re-running the solver.
    """
    totals = potentials[:, -1, :].min(axis=1)
    return {
        "kind": "gomcds-potentials",
        "version": 2,
        "potentials": potentials,
        "totals": totals,
        "masks": masks,
        "from_window": int(from_window),
        "placement": None if placement is None else np.asarray(placement),
    }


def gomcds(
    tensor: ReferenceTensor,
    model: CostModel,
    capacity: CapacityPlan | None = None,
    *,
    certify: bool = False,
    kernel: str | None = None,
    instrument: Instrumentation | None = None,
) -> Schedule:
    """Global-optimal multiple-center scheduling (paper's Algorithm 2).

    Without a memory constraint the result is the true per-datum optimum:
    "When there is no processor collision of data in each execution
    window, Algorithm 2 gives global-optimal centers resulting in the
    minimum communication cost for an application."  With a constraint,
    data are routed through the cost-graph in descending reference-volume
    order and full ``(window, processor)`` cells are masked out — the
    processor-list idea generalized to paths.

    With ``certify=True`` the schedule carries an optimality certificate
    in ``meta["certificate"]``: the DP's forward value tables double as
    shortest-path node potentials, so :mod:`repro.verify` can prove each
    path optimal (within its admissible mask) without trusting the solver.

    ``kernel`` selects the vectorized DP (``"numpy"``, default — one
    ``(m, m)`` broadcast per window and datum) or the scalar reference
    oracle (``"python"`` — the paper's pseudocode, loop by loop); both produce
    bit-identical schedules and certificates.  Both solve volume-free
    (see the module docstring), so volumes never change the centers.
    """
    obs = resolve(instrument)
    kernel = resolve_kernel(kernel)
    n_data, n_windows = tensor.n_data, tensor.n_windows
    with obs.span(
        "scheduler.gomcds",
        n_data=n_data,
        n_windows=n_windows,
        n_procs=model.n_procs,
        constrained=capacity is not None,
        kernel=kernel,
    ):
        with obs.span("gomcds.cost_tensor"):
            if kernel == "python":
                costs = placement_cost_tensor_python(tensor, model)
            else:
                costs = model.reference_costs(tensor)  # (D, W, m) int64
        obs.gauge("gomcds.dp_cells", n_data * n_windows * model.n_procs)
        record = obs.provenance.recording
        tracker = _occupancy(capacity, n_data, n_windows)
        if tracker is None:
            span, order = "gomcds.dp_sweep", range(n_data)
        else:
            span, order = "gomcds.capacity_walk", tensor.data_priority_order()
        with obs.span(span):
            centers, potentials, masks = _walk(
                costs,
                model.distances,
                order,
                solve_path=(
                    shortest_center_path_python
                    if kernel == "python"
                    else shortest_center_path
                ),
                tracker=tracker,
                certify=certify,
                keep_masks=tracker is not None and (certify or record),
            )
        meta = {"certificate": _certificate(potentials, masks)} if certify else {}
        if record:
            record_decisions(
                obs, costs=costs, centers=centers, model=model,
                method="GOMCDS", kernel=kernel, masks=masks,
            )
        return Schedule(
            centers=centers, windows=tensor.windows, method="GOMCDS", meta=meta
        )
