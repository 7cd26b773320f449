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

The paper's x-y routing makes ``Dist`` a sum of per-axis 1-D distances
(:meth:`~repro.grid.Topology.axis_distances`), so the min over ``j``
splits into one min-plus pass per mesh axis — the separable distance
transform of Felzenszwalb & Huttenlocher — and a window costs
``O(m * sum(n_a))`` per datum instead of ``O(m**2)``: ``O(W·m·Σnₐ)`` for
a whole path.  Paths are recovered by backtracking along the chosen path
only, with the same lowest-index argmin a stored back-pointer table
would give.  Free, capacity-constrained and fault-masked solves all go
through one walk.  ``C`` is the volume-free int64 tensor
:meth:`~repro.core.cost.CostModel.reference_costs`: a datum's volume
scales its reference and movement terms alike, so the optimal path never
depends on it, and solving without it keeps every DP value an exact
integer (ties break toward the lowest pid), whatever order the per-axis
passes add in.  The test suite keeps the literal networkx DAG as a
differential-testing oracle for this DP.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..grid import cached_distance_matrix
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

#: Data solved together when no occupancy tracker couples them; bounds
#: the block's ``(W, m, B)`` potential table and ``(m, n_a, B)`` pass.
_BLOCK = 64


class _Moves:
    """Move costs ``move[j, k] = sum_a axes[a][j_a, k_a]``.

    ``j_a``/``k_a`` are the row-major grid coordinates of pids ``j`` and
    ``k`` over one axis per factor; a dense ``(m, m)`` matrix is the
    one-factor case.  Values over pids are laid out in grid shape, with
    any trailing axes a batch of independent data.
    """

    def __init__(self, axes) -> None:
        self.axes = tuple(np.asarray(a, dtype=np.float64) for a in axes)
        self.shape = tuple(len(a) for a in self.axes)
        n_axes = len(self.shape)
        coords = np.indices(self.shape).reshape(n_axes, -1)
        # ``_columns[a][..., k]``: the axis-``a`` term of the moves into
        # pid ``k``, laid along grid axis ``a``
        self._columns = tuple(
            metric[:, coords[a]].reshape(
                (1,) * a + (-1,) + (1,) * (n_axes - a - 1) + (coords.shape[1],)
            )
            for a, metric in enumerate(self.axes)
        )
        self._passes: dict[int, tuple] = {}

    def relax(self, g: np.ndarray) -> np.ndarray:
        """``min_j g[j] + move[j, k]`` over the leading grid axes of ``g``.

        One min-plus pass per axis, ``O(m * n_a)`` per datum: axis ``a``
        (source ``j_a``) is spread against a new target axis ``k_a``
        right after it, then reduced.
        """
        passes = self._passes.get(g.ndim)
        if passes is None:
            passes = self._passes[g.ndim] = tuple(
                (
                    a,
                    (slice(None),) * (a + 1) + (None,),
                    metric.reshape(metric.shape + (1,) * (g.ndim - a - 1)),
                )
                for a, metric in enumerate(self.axes)
            )
        for axis, spread, metric in passes:
            g = np.minimum.reduce(g[spread] + metric, axis=axis)
        return g

    def into(self, targets: np.ndarray) -> np.ndarray:
        """``(m,) + targets.shape`` costs of moving from every pid into
        ``targets``: the targets' columns of the move matrix."""
        column = self._columns[0][..., targets]
        for columns in self._columns[1:]:
            column = column + columns[..., targets]
        return column.reshape((-1,) + np.shape(targets))


def _solve(costs, moves: _Moves, allowed=None):
    """Shortest center paths over the leading ``(W, m)`` axes of ``costs``.

    Trailing axes are a batch of independent data (kept last, so the
    per-axis passes run over long contiguous rows).  ``allowed``, broadcast
    against ``costs``, marks admissible cells.  Returns ``(paths,
    potentials)`` of shapes ``(W,) + batch`` and ``costs.shape``; raises
    :class:`~repro.mem.CapacityError` when some datum has no admissible
    path.
    """
    costs = np.asarray(costs) if allowed is None else np.where(allowed, costs, _INF)
    n_windows, batch = len(costs), costs.shape[2:]
    potentials = np.empty(costs.shape)
    grid = (n_windows,) + moves.shape + batch
    c, f = costs.reshape(grid), potentials.reshape(grid)
    f[0] = c[0]
    for w in range(1, n_windows):
        np.add(moves.relax(f[w - 1]), c[w], out=f[w])
    if not np.isfinite(potentials[-1].min(axis=0)).all():
        raise CapacityError("no feasible center path under the memory constraint")
    paths = np.empty((n_windows,) + batch, dtype=np.int64)
    paths[-1] = potentials[-1].argmin(axis=0)
    # f_w[k] = f_{w-1}[j] + move[j, k] + C[w, k] holds for the lowest such
    # j that a back-pointer table would have stored: read it off the
    # chosen column only
    for w in range(n_windows - 1, 0, -1):
        paths[w - 1] = (potentials[w - 1] + moves.into(paths[w])).argmin(axis=0)
    return paths, potentials


def _solve_python(costs, dist, allowed=None):
    """:func:`_solve` on the scalar oracle, one datum of the batch at a time."""
    allowed = np.broadcast_to(True if allowed is None else allowed, costs.shape)
    paths = np.empty(costs.shape[:1] + costs.shape[2:], dtype=np.int64)
    potentials = np.empty(costs.shape)
    for i in np.ndindex(costs.shape[2:]):
        datum = (slice(None), slice(None)) + i
        paths[(slice(None),) + i], _, potentials[datum] = (
            shortest_center_path_python(
                costs[datum], dist, allowed[datum], return_potentials=True
            )
        )
    return paths, potentials


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
    path, potentials = _solve(window_costs, _Moves((move_costs,)), allowed)
    total = float(potentials[-1, path[-1]])
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


def _solver(topology, kernel: str = "numpy"):
    """The per-block path solver of ``kernel`` over ``topology``'s hops."""
    if kernel == "python":
        return partial(_solve_python, dist=cached_distance_matrix(topology))
    return partial(_solve, moves=_Moves(topology.axis_distances()))


def _walk(
    costs: np.ndarray,
    solve,
    order,
    *,
    obs,
    span: str,
    block: int = _BLOCK,
    alive: np.ndarray | None = None,
    tracker: OccupancyTracker | None = None,
    certify: bool = False,
    keep_masks: bool = False,
):
    """Solve each datum's cost-graph and claim its path, inside ``span``.

    The one path-solve walk behind GOMCDS, both reschedulers and budgeted
    GOMCDS.  ``costs`` is ``(D, W, m)``; ``solve(costs, allowed=...)``
    is a path solver with :func:`_solve`'s contract (see :func:`_solver`).
    A datum's admissible cells are the static ``alive`` mask intersected
    with the ``tracker``'s free slots, both optional.

    Every datum is first solved under ``alive`` alone, ``block`` data at
    a time.  With a ``tracker`` the walk then goes through ``order``,
    claims each free path that still fits, and re-solves under the full
    mask only the data whose free path hits a full cell.  That is exact:
    a mask only removes options, so an admissible free-optimal path is
    also the masked optimum, tie-breaks included.  A claimed free path
    keeps its unmasked potentials, which prove it optimal over a superset
    of its admissible cells.

    Returns ``(centers, potentials, masks)``: the ``(D, W)`` paths, the DP
    potential tables when ``certify`` and the admissible masks when
    ``keep_masks`` (otherwise ``None``; masks need ``alive`` or
    ``tracker``).
    """
    n_data = len(costs)
    centers = np.empty(costs.shape[:2], dtype=np.int64)
    potentials = np.empty(costs.shape) if certify else None
    masks = np.empty(costs.shape, dtype=bool) if keep_masks else None
    with obs.span(span) as walk:
        for lo in range(0, n_data, block):
            rows = slice(lo, lo + block)
            paths, solved = solve(
                np.moveaxis(costs[rows], 0, -1),
                allowed=None if alive is None else alive[..., None],
            )
            centers[rows] = paths.T
            if certify:
                potentials[rows] = np.moveaxis(solved, -1, 0)
            del solved  # one block's potential table alive at a time
        if tracker is None:
            if masks is not None:
                masks[:] = alive
            return centers, potentials, masks
        resolved = 0
        for d in order:
            fits = tracker.path_fits(centers[d])
            if keep_masks or not fits:
                allowed = tracker.available_mask()
                if alive is not None:
                    allowed &= alive
                if masks is not None:
                    masks[d] = allowed
            if not fits:
                resolved += 1
                centers[d], solved = solve(costs[d], allowed=allowed)
                if certify:
                    potentials[d] = solved
            tracker.claim_path(centers[d])
        walk.set(claimed_free=n_data - resolved, resolved=resolved)
        obs.count("gomcds.masked_resolves", resolved)
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
    min-plus pass per mesh axis and window over a block of data,
    ``O(W·m·Σnₐ)`` per datum) or the scalar reference oracle
    (``"python"`` — the paper's pseudocode, loop by loop); both produce
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
        centers, potentials, masks = _walk(
            costs,
            _solver(model.topology, kernel),
            tensor.data_priority_order() if tracker is not None else None,
            obs=obs,
            span="gomcds.dp_sweep" if tracker is None else "gomcds.capacity_walk",
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
