"""Zero-data tensors: every scheduler returns an empty ``(0, W)`` schedule.

A trace can reference no data at all (an empty phase, a filtered trace).
Each scheduler must then return a ``(0, W)`` schedule that evaluates to
zero, certifies clean and replays, rather than fail inside numpy.
"""

import numpy as np
import pytest

from repro import (
    CapacityPlan,
    CostModel,
    Mesh2D,
    evaluate_schedule,
    replay_schedule,
    schedule,
)
from repro.core import gomcds_budgeted, grouped_schedule
from repro.core.optimal import optimal_static_placement
from repro.trace import build_reference_tensor
from repro.verify import check_certificate
from repro.workloads import trace_from_counts

TOPO = Mesh2D(2, 3)
N_WINDOWS = 4


@pytest.fixture(scope="module")
def empty():
    counts = np.zeros((0, N_WINDOWS, TOPO.n_procs), dtype=np.int64)
    trace, windows = trace_from_counts(counts, TOPO)
    return trace, build_reference_tensor(trace, windows)


def _capacity(constrained):
    return CapacityPlan.uniform(TOPO.n_procs, 1) if constrained else None


def _check_empty(solved, trace, tensor, model, capacity):
    assert solved.centers.shape == (0, N_WINDOWS)
    breakdown = evaluate_schedule(solved, tensor, model)
    assert breakdown.total == 0
    assert replay_schedule(trace, solved, model, capacity).matches(breakdown)


@pytest.mark.parametrize("constrained", [False, True], ids=["free", "capacity"])
@pytest.mark.parametrize("kernel", ["numpy", "python"])
@pytest.mark.parametrize("algorithm", ["scds", "lomcds", "gomcds", "omcds"])
def test_schedulers_return_empty_schedule(empty, algorithm, kernel, constrained):
    trace, tensor = empty
    model = CostModel(TOPO)
    capacity = _capacity(constrained)
    options = {} if algorithm == "omcds" else {"kernel": kernel}
    certify = algorithm == "gomcds"
    solved = schedule(
        tensor, model, algorithm=algorithm, capacity=capacity,
        certify=certify, **options,
    )
    _check_empty(solved, trace, tensor, model, capacity)
    if certify:
        assert not check_certificate(solved, tensor, model, require=True)


@pytest.mark.parametrize("constrained", [False, True], ids=["free", "capacity"])
@pytest.mark.parametrize(
    "solve",
    [
        lambda t, m, c: gomcds_budgeted(t, m, 2, c),
        lambda t, m, c: grouped_schedule(t, m, c),
        lambda t, m, c: grouped_schedule(t, m, c, strategy="optimal"),
        optimal_static_placement,
    ],
    ids=["budget", "greedy-grouping", "optimal-grouping", "optimal-static"],
)
def test_extension_passes_return_empty_schedule(empty, solve, constrained):
    trace, tensor = empty
    model = CostModel(TOPO)
    capacity = _capacity(constrained)
    _check_empty(solve(tensor, model, capacity), trace, tensor, model, capacity)
