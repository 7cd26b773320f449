"""Volume invariance: per-datum volumes never change a scheduling decision.

A datum's volume scales its reference and movement costs alike, so the
optimal centers cannot depend on it.  The schedulers therefore solve in
the volume-free integer domain, and volumes only weight reported costs.
On the paper's benchmarks with random fractional volumes:

1. SCDS, LOMCDS, GOMCDS, OMCDS and both fault reschedulers return the
   unit-volume centers (capacity on and off, both kernels), so ties
   break toward the lowest index under any volumes;
2. so do the per-datum extension passes: budgeted GOMCDS, Algorithm 3
   grouping, replication and the unconstrained optimal static placement
   (which equals SCDS), and THY001 flags the same cells;
3. their optimality certificates check clean;
4. provenance attribution equals ``evaluate_schedule`` exactly.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CapacityPlan,
    CostModel,
    FaultPlan,
    Mesh2D,
    NodeFault,
    benchmark,
    evaluate_schedule,
    grouped_schedule,
    reschedule_around_faults,
    reschedule_from_window,
    schedule,
)
from repro.core import gomcds_budgeted, replicated_scds
from repro.core.optimal import optimal_static_placement
from repro.diagnostics import THY001, Severity
from repro.lint import LintContext, run_lint
from repro.obs import Instrumentation
from repro.verify import check_certificate

MESH = Mesh2D(4, 4)
PLAN = FaultPlan(node_faults=(NodeFault(pid=5, start=1), NodeFault(pid=10, start=3)))


@lru_cache(maxsize=None)
def _workload(bench):
    return benchmark(bench, 8, MESH)


@lru_cache(maxsize=None)
def _tensor(bench):
    return _workload(bench).reference_tensor()


@st.composite
def cases(draw, benches=st.integers(1, 5)):
    """A paper benchmark with random fractional volumes (and its twin)."""
    tensor = _tensor(draw(benches))
    seed = draw(st.integers(0, 2**32 - 1))
    volumes = np.random.default_rng(seed).uniform(0.1, 3.0, tensor.n_data)
    capacity = (
        CapacityPlan.paper_rule(tensor.n_data, MESH.n_procs)
        if draw(st.booleans())
        else None
    )
    return tensor, CostModel(MESH, volumes=volumes), capacity


def _errors(diagnostics):
    return [d for d in diagnostics if d.severity == Severity.ERROR]


@given(
    cases(),
    st.sampled_from(["scds", "lomcds", "gomcds", "omcds"]),
    st.sampled_from(["numpy", "python"]),
)
@settings(max_examples=40, deadline=None)
def test_schedulers_return_unit_volume_centers(case, algorithm, kernel):
    tensor, weighted, capacity = case
    options = {} if algorithm == "omcds" else {"kernel": kernel}
    unit = schedule(
        tensor, CostModel(MESH), algorithm=algorithm, capacity=capacity,
        **options,
    )
    got = schedule(
        tensor, weighted, algorithm=algorithm, capacity=capacity, **options
    )
    assert np.array_equal(got.centers, unit.centers)


@given(cases())
@settings(max_examples=20, deadline=None)
def test_reschedulers_return_unit_volume_centers(case):
    tensor, weighted, capacity = case
    unit_model = CostModel(MESH)
    unit = reschedule_around_faults(tensor, unit_model, PLAN, capacity)
    got = reschedule_around_faults(tensor, weighted, PLAN, capacity)
    assert np.array_equal(got.centers, unit.centers)

    base = schedule(tensor, unit_model, capacity=capacity)
    from_window = tensor.n_windows // 2
    unit = reschedule_from_window(
        base, tensor, unit_model, PLAN, from_window, capacity=capacity
    )
    got = reschedule_from_window(
        base, tensor, weighted, PLAN, from_window, capacity=capacity
    )
    assert np.array_equal(got.centers, unit.centers)


@given(cases(), st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_budgeted_returns_unit_volume_centers(case, budget):
    tensor, weighted, capacity = case
    unit = gomcds_budgeted(tensor, CostModel(MESH), budget, capacity)
    got = gomcds_budgeted(tensor, weighted, budget, capacity)
    assert np.array_equal(got.centers, unit.centers)


@given(
    cases(),
    st.sampled_from(["greedy", "optimal"]),
    st.sampled_from(["local", "global"]),
)
@settings(max_examples=20, deadline=None)
def test_grouping_returns_unit_volume_centers(case, strategy, assign):
    tensor, weighted, capacity = case
    options = {"strategy": strategy, "assign_method": assign}
    unit = grouped_schedule(tensor, CostModel(MESH), capacity, **options)
    got = grouped_schedule(tensor, weighted, capacity, **options)
    assert np.array_equal(got.centers, unit.centers)
    assert got.meta["partitions"] == unit.meta["partitions"]


@given(cases(), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_replication_returns_unit_volume_replicas(case, k):
    tensor, weighted, capacity = case
    unit = replicated_scds(tensor, CostModel(MESH), k, capacity)
    assert replicated_scds(tensor, weighted, k, capacity) == unit


@given(cases())
@settings(max_examples=20, deadline=None)
def test_unconstrained_optimal_static_equals_scds(case):
    tensor, weighted, _capacity = case
    got = optimal_static_placement(tensor, weighted)
    scds = schedule(tensor, weighted, algorithm="scds")
    assert np.array_equal(got.centers, scds.centers)


@st.composite
def lint_cases(draw):
    """A paper workload, its random-volume model and optional capacity."""
    bench = draw(st.integers(1, 5))
    tensor, weighted, capacity = draw(cases(st.just(bench)))
    return _workload(bench).trace, tensor, weighted, capacity


@given(lint_cases(), st.sampled_from(["scds", "lomcds"]))
@settings(max_examples=20, deadline=None)
def test_thy001_flags_unit_volume_cells(case, algorithm):
    trace, tensor, weighted, capacity = case
    solved = schedule(
        tensor, CostModel(MESH), algorithm=algorithm, capacity=capacity
    )

    def flagged(model):
        context = LintContext(
            schedule=solved, trace=trace, capacity=capacity, model=model
        )
        report = run_lint(context, select=[THY001])
        return {(d.datum, d.window, d.processor) for d in report.diagnostics}

    assert flagged(weighted) == flagged(CostModel(MESH))


@given(cases(), st.sampled_from(["numpy", "python"]))
@settings(max_examples=20, deadline=None)
def test_certificates_check_clean_under_volumes(case, kernel):
    tensor, weighted, capacity = case
    solved = schedule(
        tensor, weighted, capacity=capacity, certify=True, kernel=kernel
    )
    assert not _errors(check_certificate(solved, tensor, weighted, require=True))
    faulted = reschedule_around_faults(
        tensor, weighted, PLAN, capacity, certify=True
    )
    assert not _errors(
        check_certificate(faulted, tensor, weighted, PLAN, require=True)
    )
    resumed = reschedule_from_window(
        solved, tensor, weighted, PLAN, tensor.n_windows // 2,
        capacity=capacity, certify=True,
    )
    assert not _errors(
        check_certificate(resumed, tensor, weighted, PLAN, require=True)
    )


@given(
    cases(),
    st.sampled_from(["scds", "lomcds", "gomcds"]),
    st.sampled_from(["numpy", "python"]),
)
@settings(max_examples=30, deadline=None)
def test_attribution_equals_evaluate_under_volumes(case, algorithm, kernel):
    tensor, weighted, capacity = case
    instr = Instrumentation.started(provenance=True)
    solved = schedule(
        tensor, weighted, algorithm=algorithm, capacity=capacity,
        kernel=kernel, instrument=instr,
    )
    (log,) = instr.provenance.logs
    assert log.attribution() == evaluate_schedule(solved, tensor, weighted)
