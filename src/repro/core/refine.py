"""Local-search refinement of capacity-constrained schedules (extension).

Under memory constraints the paper's schedulers assign data greedily in
priority order — a displaced datum never gets its slot back, even when a
later datum would happily trade.  This post-pass fixes that with plain
steepest-descent local search over two move types, both capacity-safe:

* **relocate**: move one datum's center in one window (or a run of
  windows) to a processor with a free slot;
* **swap**: exchange the centers of two data within one window.

Each accepted move strictly decreases the exact objective (reference
cost + movement cost), so termination is guaranteed; the result never
degrades the input schedule.  A relocation touches one datum, so it is
scored in that datum's exact integer hops on
:meth:`~repro.core.cost.CostModel.reference_costs`; a swap trades two
data's slots, so it weighs each datum's hop delta by its volume.  Used
by ablation H to measure how much the greedy processor-list rule leaves
on the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mem import CapacityPlan
from ..trace import ReferenceTensor
from .cost import CostModel
from .evaluate import evaluate_schedule
from .schedule import Schedule

__all__ = ["RefineResult", "refine_schedule"]


@dataclass(frozen=True)
class RefineResult:
    """Outcome of a refinement run."""

    schedule: Schedule
    initial_cost: float
    final_cost: float
    relocations: int
    swaps: int
    passes: int

    @property
    def improvement(self) -> float:
        return self.initial_cost - self.final_cost


def _delta_for_center_change(
    centers: np.ndarray,
    d: int,
    w: int,
    new_center: int,
    cost_tensor: np.ndarray,
    dist: np.ndarray,
) -> int:
    """Exact hop change from setting ``centers[d, w] = new_center``."""
    old = centers[d, w]
    if old == new_center:
        return 0
    delta = cost_tensor[d, w, new_center] - cost_tensor[d, w, old]
    n_windows = centers.shape[1]
    if w > 0:
        prev = centers[d, w - 1]
        delta += dist[prev, new_center] - dist[prev, old]
    if w < n_windows - 1:
        nxt = centers[d, w + 1]
        delta += dist[new_center, nxt] - dist[old, nxt]
    return int(delta)


def refine_schedule(
    schedule: Schedule,
    tensor: ReferenceTensor,
    model: CostModel,
    capacity: CapacityPlan | None = None,
    max_passes: int = 10,
    tolerance: float = 1e-9,
) -> RefineResult:
    """Improve ``schedule`` by capacity-safe relocations and swaps.

    Deterministic: windows, data and candidate centers are scanned in
    index order and the first strictly-improving move is taken (first-
    improvement descent, which converges faster than steepest descent on
    these instances and is order-stable for reproducibility).
    """
    if schedule.n_data != tensor.n_data or schedule.n_windows != tensor.n_windows:
        raise ValueError("schedule does not match the reference tensor")
    centers = schedule.centers.copy()
    n_data, n_windows = centers.shape
    n_procs = model.n_procs
    cost_tensor = model.reference_costs(tensor)
    vols = model.volume_column(n_data)
    dist = model.distances

    caps = (
        np.full(n_procs, n_data, dtype=np.int64)
        if capacity is None
        else capacity.capacities
    )
    occupancy = np.zeros((n_windows, n_procs), dtype=np.int64)
    for w in range(n_windows):
        np.add.at(occupancy[w], centers[:, w], 1)
    if (occupancy > caps[None, :]).any():
        raise ValueError("input schedule violates the capacity plan")

    initial = evaluate_schedule(schedule, tensor, model).total
    relocations = swaps = passes = 0

    for _pass in range(max_passes):
        passes += 1
        improved = False
        for w in range(n_windows):
            for d in range(n_data):
                old = centers[d, w]
                # relocate: score all candidate centers at once
                raw = cost_tensor[d, w, :] - cost_tensor[d, w, old]
                if w > 0:
                    prev = centers[d, w - 1]
                    raw += dist[prev, :] - dist[prev, old]
                if w < n_windows - 1:
                    nxt = centers[d, w + 1]
                    raw += dist[:, nxt] - dist[old, nxt]
                raw[old] = 0
                blocked = occupancy[w] >= caps
                open_deltas = np.where(blocked, np.inf, raw)
                best_target = int(open_deltas.argmin())
                if open_deltas[best_target] < -tolerance:
                    occupancy[w, old] -= 1
                    occupancy[w, best_target] += 1
                    centers[d, w] = best_target
                    relocations += 1
                    improved = True
                    continue
                # all gainful targets full: try trading slots with an
                # occupant of the most desirable blocked processor
                full_deltas = np.where(blocked, raw, np.inf)
                wanted = int(full_deltas.argmin())
                if full_deltas[wanted] < -tolerance and _try_swap(
                    centers, d, w, wanted, cost_tensor, dist, vols, tolerance
                ):
                    swaps += 1
                    improved = True
        if not improved:
            break

    refined = Schedule(
        centers=centers,
        windows=schedule.windows,
        method=f"{schedule.method}+refine",
        meta=dict(schedule.meta),
    )
    return RefineResult(
        schedule=refined,
        initial_cost=initial,
        final_cost=evaluate_schedule(refined, tensor, model).total,
        relocations=relocations,
        swaps=swaps,
        passes=passes,
    )


def _try_swap(
    centers: np.ndarray,
    d: int,
    w: int,
    target: int,
    cost_tensor: np.ndarray,
    dist: np.ndarray,
    vols: np.ndarray,
    tolerance: float,
) -> bool:
    """Swap ``d`` into ``target`` with one of its occupants, if gainful.

    Only occupants of ``target`` are candidates (at most the processor's
    capacity), which keeps the scan bounded; the combined exact delta of
    both half-moves must be strictly negative.
    """
    mine = int(centers[d, w])
    occupants = np.nonzero(centers[:, w] == target)[0]
    for other in occupants:
        other = int(other)
        if other == d:
            continue
        delta = vols[d] * _delta_for_center_change(
            centers, d, w, target, cost_tensor, dist
        )
        # apply d's move virtually before scoring the partner's move
        centers[d, w] = target
        delta += vols[other] * _delta_for_center_change(
            centers, other, w, mine, cost_tensor, dist
        )
        if delta < -tolerance:
            centers[other, w] = mine
            return True
        centers[d, w] = mine  # roll back
    return False

