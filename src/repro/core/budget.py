"""Movement-budgeted GOMCDS (extension).

Run-time data movement is not free in practice: every relocation is an
extra message, a synchronization point, and (per the makespan model) a
serialized phase.  This variant finds the cheapest center path using at
most ``max_moves`` relocations per datum — one extra DP dimension on
Algorithm 2:

    ``F[w, k, b]`` = best cost through window ``w`` ending at center
    ``k`` having moved at most ``b`` times,

with ``F[w, :, b] = C[w] + min(F[w-1, :, b], relax(F[w-1, :, b-1]))``
where ``relax(g)[k] = min_j g[j] + Dist[j, k]`` is GOMCDS's per-axis
min-plus pass (:class:`~repro.core.gomcds._Moves`).  Complexity
``O(W·m·Σnₐ·B)`` per datum.  Like GOMCDS it solves on the volume-free
int64 :meth:`~repro.core.cost.CostModel.reference_costs`, so every DP
value is an exact integer and volumes never change a path.  Ties break
toward the fewest moves, then staying before moving, then the lowest
pid; the capacity-constrained walk is GOMCDS's
(:func:`~repro.core.gomcds._walk`).

``max_moves = 0`` reduces to SCDS (per-datum optimal static center);
``max_moves >= W-1`` reduces to GOMCDS.  Sweeping the budget traces the
cost-vs-movement Pareto frontier (ablation K).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..mem import CapacityError, CapacityPlan
from ..obs import resolve
from ..trace import ReferenceTensor
from .cost import CostModel
from .gomcds import _BLOCK, _Moves, _occupancy, _walk
from .schedule import Schedule

__all__ = ["gomcds_budgeted", "movement_frontier"]

_INF = np.inf


def _solve_budgeted(costs, moves: _Moves, budget: int, allowed=None):
    """Cheapest paths with at most ``budget`` moves over ``costs``' leading
    ``(W, m)`` axes; trailing axes are a batch of data.

    Follows :func:`~repro.core.gomcds._solve`'s contract, but returns no
    potentials: ``(paths, None)``.
    """
    costs = np.asarray(costs) if allowed is None else np.where(allowed, costs, _INF)
    n_windows, n_procs, batch = costs.shape[0], costs.shape[1], costs.shape[2:]
    n = int(np.prod(batch))
    costs = costs.reshape(n_windows, n_procs, n)  # one flat batch axis
    f = np.empty((n_windows, n_procs, budget + 1, n))
    f[0] = costs[0, :, None]
    for w in range(1, n_windows):
        f[w] = f[w - 1]
        if budget:
            moved = moves.relax(
                f[w - 1, :, :-1].reshape(moves.shape + (budget, n))
            ).reshape(n_procs, budget, n)
            np.minimum(f[w, :, 1:], moved, out=f[w, :, 1:])
        f[w] += costs[w, :, None]
    best = f[-1, :, -1].min(axis=0)
    if not np.isfinite(best).all():
        raise CapacityError("no feasible center path under the constraints")
    # end on the fewest moves that reach the optimum, then the lowest pid
    cols = np.arange(n)
    b = (f[-1].min(axis=0) == best).argmax(axis=0)
    k = f[-1][:, b, cols].argmin(axis=0)
    paths = np.empty((n_windows, n), dtype=np.int64)
    paths[-1] = k
    for w in range(n_windows - 1, 0, -1):
        # stay in layer b when staying reproduces the cell's value;
        # otherwise take the lowest-pid cheapest move out of layer b-1
        prev = f[w - 1]
        moved = prev[k, b, cols] + costs[w, k, cols] != f[w, k, b, cols]
        if moved.any():
            i = cols[moved]
            b[i] -= 1
            k[i] = (prev[:, b[i], i] + moves.into(k[i])).argmin(axis=0)
        paths[w - 1] = k
    return paths.reshape((n_windows,) + batch), None


def gomcds_budgeted(
    tensor: ReferenceTensor,
    model: CostModel,
    max_moves: int,
    capacity: CapacityPlan | None = None,
) -> Schedule:
    """Algorithm 2 under a per-datum relocation budget."""
    if max_moves < 0:
        raise ValueError("max_moves must be non-negative")
    n_data, n_windows = tensor.n_data, tensor.n_windows
    budget = min(max_moves, n_windows - 1)
    tracker = _occupancy(capacity, n_data, n_windows)
    centers, _, _ = _walk(
        model.reference_costs(tensor),
        partial(
            _solve_budgeted,
            moves=_Moves(model.topology.axis_distances()),
            budget=budget,
        ),
        None if tracker is None else tensor.data_priority_order(),
        obs=resolve(None),
        span="budget.dp_sweep" if tracker is None else "budget.capacity_walk",
        # keep the (W, m, B+1) table per block at GOMCDS's (W, m) size
        block=max(1, _BLOCK // (budget + 1)),
        tracker=tracker,
    )
    return Schedule(
        centers=centers,
        windows=tensor.windows,
        method=f"GOMCDS(B={max_moves})",
        meta={"max_moves": max_moves},
    )


def movement_frontier(
    tensor: ReferenceTensor,
    model: CostModel,
    budgets: tuple[int, ...] = (0, 1, 2, 4, 8),
    capacity: CapacityPlan | None = None,
) -> list[dict]:
    """Cost vs movement Pareto sweep over relocation budgets."""
    from .evaluate import evaluate_schedule

    out = []
    for budget in budgets:
        schedule = gomcds_budgeted(tensor, model, budget, capacity)
        breakdown = evaluate_schedule(schedule, tensor, model)
        out.append(
            {
                "budget": budget,
                "total": breakdown.total,
                "reference": breakdown.reference_cost,
                "movement": breakdown.movement_cost,
                "moves": schedule.n_movements(),
            }
        )
    return out
