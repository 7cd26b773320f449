"""Algorithm 1: Single-Center Data Scheduling (SCDS).

"The single-center data scheduling does not consider the data movement
during the run-time.  Once the data are initialized, they remain at the
same place during the whole execution steps."  All execution windows are
merged into one; for each datum the processors are ranked by the total
communication cost of hosting it, and the datum is assigned to the first
processor in that list with a free memory slot.
"""

from __future__ import annotations

import numpy as np

from ..mem import CapacityPlan, OccupancyTracker, first_available
from ..obs import Instrumentation, record_decisions, resolve
from ..trace import ReferenceTensor
from .cost import CostModel
from .kernels import (
    merged_totals_python,
    placement_cost_tensor_python,
    resolve_kernel,
)
from .schedule import Schedule

__all__ = ["scds"]


def scds(
    tensor: ReferenceTensor,
    model: CostModel,
    capacity: CapacityPlan | None = None,
    *,
    kernel: str | None = None,
    instrument: Instrumentation | None = None,
) -> Schedule:
    """Single-center placement for every datum (paper's Algorithm 1).

    Parameters
    ----------
    tensor:
        Reference tensor ``R[d, w, p]`` built from the application trace.
    model:
        Communication cost model.  Only its metric steers the placement:
        volume scales every cost of a datum alike.
    capacity:
        Optional memory constraint.  ``None`` means unbounded memory, in
        which case every datum lands exactly on its merged-window optimal
        center.  With a constraint, data are assigned in descending
        reference-volume order and each walks its processor list.
    kernel:
        ``"numpy"`` (default) for the vectorized cost accumulation,
        ``"python"`` for the scalar reference oracle — bit-identical
        results (see :mod:`repro.core.kernels`).

    Returns
    -------
    A static :class:`~repro.core.schedule.Schedule` (one center per datum,
    constant across windows).
    """
    obs = resolve(instrument)
    kernel = resolve_kernel(kernel)
    n_data = tensor.n_data
    with obs.span(
        "scheduler.scds",
        n_data=n_data,
        n_windows=tensor.n_windows,
        n_procs=model.n_procs,
        constrained=capacity is not None,
        kernel=kernel,
    ):
        record = obs.provenance.recording
        # Line 2-4 of Algorithm 1: cost of putting datum i at node j, with
        # all windows collected together.
        with obs.span("scds.cost_tensor"):
            if kernel == "python":
                costs = placement_cost_tensor_python(tensor, model)
                totals = merged_totals_python(costs)
            else:
                costs = model.reference_costs(tensor)  # (D, W, m) int64
                totals = costs.sum(axis=1)  # (D, m)

        if capacity is None:
            # Stable argmin = lowest-pid tie-breaking.
            with obs.span("scds.argmin"):
                centers = totals.argmin(axis=1)
            result = Schedule.static(centers, tensor.windows, method="SCDS")
            if record:
                record_decisions(
                    obs, costs=costs, centers=result.centers, model=model,
                    method="SCDS", kernel=kernel,
                )
            return result

        capacity.check_feasible(n_data)
        tracker = OccupancyTracker(capacity, n_windows=1)
        centers = np.empty(n_data, dtype=np.int64)
        masks = np.zeros((n_data, model.n_procs), dtype=bool) if record else None
        with obs.span("scds.capacity_walk") as walk:
            fallbacks = 0
            for d in tensor.data_priority_order():
                # Lines 5-7: sorted processor list, first available slot.
                available = tracker.available_in_window(0)
                if masks is not None:
                    masks[d] = available
                proc = first_available(totals[d], available)
                if proc != int(totals[d].argmin()):
                    fallbacks += 1
                tracker.claim(proc, 0)
                centers[d] = proc
            walk.set(fallbacks=fallbacks)
            obs.count("scheduler.capacity_fallbacks", fallbacks)
        result = Schedule.static(centers, tensor.windows, method="SCDS")
        if record:
            record_decisions(
                obs, costs=costs, centers=result.centers, model=model,
                method="SCDS", kernel=kernel, masks=masks,
            )
        return result
