"""The paper's contribution: SCDS, LOMCDS, GOMCDS and window grouping.

The scheduling algorithms live behind a frozen registry of
:class:`SchedulerSpec` callables with one uniform signature::

    schedule = scheduler_spec(name)(
        reference_tensor, cost_model, capacity=None, instrument=None
    )

and an analytic evaluator, :func:`evaluate_schedule`, implementing the
paper's communication-cost objective.  The ``repro.schedule`` facade in
:mod:`repro.api` is the front door; the raw functions stay reachable
through ``SCHEDULERS`` and their submodules for internal use.
"""

from .cost import CostModel
from .budget import gomcds_budgeted, movement_frontier
from .evaluate import CostBreakdown, evaluate_schedule, per_datum_costs
from .gomcds import shortest_center_path
from .grouping import (
    greedy_grouping,
    grouped_schedule,
    optimal_grouping,
    partition_cost,
)
from .online import omcds
from .optimal import optimal_static_placement, static_lower_bound
from .refine import RefineResult, refine_schedule
from .reschedule import (
    alive_window_mask,
    reschedule_around_faults,
    reschedule_from_window,
)
from .replication import (
    ReplicatedPlacement,
    evaluate_replicated,
    greedy_k_median,
    replicated_scds,
)
from .registry import (
    SCHEDULER_SPECS,
    SCHEDULERS,
    SchedulerSpec,
    scheduler_spec,
)
from .kernels import KERNELS, resolve_kernel
from .schedule import Schedule


__all__ = [
    "CostModel",
    "Schedule",
    "CostBreakdown",
    "evaluate_schedule",
    "per_datum_costs",
    "gomcds_budgeted",
    "movement_frontier",
    "shortest_center_path",
    "greedy_grouping",
    "optimal_grouping",
    "grouped_schedule",
    "partition_cost",
    "omcds",
    "optimal_static_placement",
    "static_lower_bound",
    "RefineResult",
    "refine_schedule",
    "reschedule_around_faults",
    "reschedule_from_window",
    "alive_window_mask",
    "ReplicatedPlacement",
    "replicated_scds",
    "evaluate_replicated",
    "greedy_k_median",
    "scheduler_spec",
    "SchedulerSpec",
    "SCHEDULERS",
    "SCHEDULER_SPECS",
    "KERNELS",
    "resolve_kernel",
]
