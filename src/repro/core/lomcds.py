"""Local-Optimal Multiple-Center Data Scheduling (LOMCDS, paper §3.2.1).

Algorithm 1 is applied to every execution window independently: within
each window a datum sits at that window's local optimal center
(Definition 4), and the datum is physically moved between centers at
window boundaries.  The movement cost is *not* considered when choosing
the centers — that is precisely the weakness GOMCDS fixes — but it is of
course charged when the schedule is evaluated.
"""

from __future__ import annotations

import numpy as np

from ..mem import CapacityPlan, OccupancyTracker, first_available
from ..obs import Instrumentation, record_decisions, resolve
from ..trace import ReferenceTensor
from .cost import CostModel
from .kernels import (
    hold_position_numpy,
    hold_position_python,
    local_argmin_python,
    placement_cost_tensor_python,
    resolve_kernel,
)
from .schedule import Schedule

__all__ = ["lomcds"]


def lomcds(
    tensor: ReferenceTensor,
    model: CostModel,
    capacity: CapacityPlan | None = None,
    *,
    kernel: str | None = None,
    instrument: Instrumentation | None = None,
) -> Schedule:
    """Per-window local-optimal centers for every datum.

    A datum that is not referenced at all inside a window has no local
    preference there; it stays wherever the previous window put it (no
    gratuitous movement), which matches the paper's run-time behaviour of
    only moving data "to such centers according to these execution
    windows".  ``kernel`` selects the vectorized path (``"numpy"``,
    default) or the scalar reference oracle (``"python"``); both produce
    bit-identical schedules.
    """
    obs = resolve(instrument)
    kernel = resolve_kernel(kernel)
    n_data, n_windows = tensor.n_data, tensor.n_windows
    with obs.span(
        "scheduler.lomcds",
        n_data=n_data,
        n_windows=n_windows,
        n_procs=model.n_procs,
        constrained=capacity is not None,
        kernel=kernel,
    ):
        with obs.span("lomcds.cost_tensor"):
            if kernel == "python":
                costs = placement_cost_tensor_python(tensor, model)
            else:
                costs = model.reference_costs(tensor)  # (D, W, m) int64
        referenced = tensor.counts.sum(axis=2) > 0  # (D, W)

        record = obs.provenance.recording
        if capacity is None:
            with obs.span("lomcds.local_argmin"):
                if kernel == "python":
                    centers = local_argmin_python(costs)
                    hold_position_python(centers, referenced)
                else:
                    centers = costs.argmin(axis=2)  # lowest-pid tie-break
                    hold_position_numpy(centers, referenced)
            if record:
                record_decisions(
                    obs, costs=costs, centers=centers, model=model,
                    method="LOMCDS", kernel=kernel,
                )
            return Schedule(
                centers=centers, windows=tensor.windows, method="LOMCDS"
            )

        capacity.check_feasible(n_data)
        tracker = OccupancyTracker(capacity, n_windows=n_windows)
        centers = np.empty((n_data, n_windows), dtype=np.int64)
        masks = (
            np.zeros((n_data, n_windows, model.n_procs), dtype=bool)
            if record
            else None
        )
        evictions: list[tuple[int, int]] | None = [] if record else None
        with obs.span("lomcds.capacity_walk") as walk:
            idle_holds = idle_evictions = 0
            for d in tensor.data_priority_order():
                prev: int | None = None
                for w in range(n_windows):
                    available = tracker.available_in_window(w)
                    if masks is not None:
                        masks[d, w] = available
                    if referenced[d, w] or prev is None:
                        proc = first_available(costs[d, w], available)
                    elif available[prev]:
                        proc = prev  # idle window: stay put if there is room
                        idle_holds += 1
                    else:
                        # eviction: the held slot was claimed by a
                        # higher-priority datum, so the idle datum walks
                        # its processor list after all
                        proc = first_available(costs[d, w], available)
                        idle_evictions += 1
                        if evictions is not None:
                            evictions.append((d, w))
                    tracker.claim(proc, w)
                    centers[d, w] = proc
                    prev = proc
            walk.set(idle_holds=idle_holds, idle_evictions=idle_evictions)
            obs.count("lomcds.idle_holds", idle_holds)
            obs.count("lomcds.idle_evictions", idle_evictions)
        if record:
            record_decisions(
                obs, costs=costs, centers=centers, model=model,
                method="LOMCDS", kernel=kernel, masks=masks,
                evictions=evictions,
            )
        return Schedule(
            centers=centers, windows=tensor.windows, method="LOMCDS"
        )
