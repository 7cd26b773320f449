"""Property-based tests of the lint engine (hypothesis).

The core soundness/precision contract: a schedule produced by the real
schedulers on a random valid workload lints with zero errors, and a
single seeded mutation is caught by exactly the rule that owns it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro
from repro.core import CostModel, Schedule
from repro.diagnostics import Severity
from repro.grid import Mesh1D, Mesh2D
from repro.lint import LintContext, run_lint
from repro.mem import CapacityPlan
from repro.trace import build_reference_tensor
from repro.workloads import trace_from_counts

MESHES = [Mesh1D(6), Mesh2D(2, 3), Mesh2D(3, 3)]


@st.composite
def bundles(draw, max_data=5, max_windows=4):
    topo = draw(st.sampled_from(MESHES))
    n_data = draw(st.integers(2, max_data))
    n_windows = draw(st.integers(2, max_windows))
    counts = draw(
        arrays(
            dtype=np.int64,
            shape=(n_data, n_windows, topo.n_procs),
            elements=st.integers(0, 4),
        )
    )
    trace, windows = trace_from_counts(counts, topo)
    tensor = build_reference_tensor(trace, windows)
    model = CostModel(topo)
    algorithm = draw(st.sampled_from(["scds", "lomcds", "gomcds"]))
    capacity = CapacityPlan.uniform(
        topo.n_procs, -(-n_data // topo.n_procs) * 2
    )
    schedule = repro.schedule(
        tensor, model, algorithm=algorithm, capacity=capacity
    )
    return LintContext(
        schedule=schedule,
        trace=trace,
        windows=windows,
        topology=topo,
        capacity=capacity,
        model=model,
    )


def errors_of(report):
    return [d for d in report.diagnostics if d.severity == Severity.ERROR]


@given(bundles())
@settings(max_examples=40, deadline=None)
def test_valid_schedules_produce_zero_errors(context):
    report = run_lint(context)
    assert errors_of(report) == [], [d.render() for d in report.diagnostics]
    assert report.exit_code in (0, 1)  # THY/TRC warnings and infos allowed


@given(bundles(), st.data())
@settings(max_examples=40, deadline=None)
def test_out_of_array_center_is_caught_by_exactly_sch001(context, data):
    schedule = context.schedule
    d = data.draw(st.integers(0, schedule.n_data - 1))
    w = data.draw(st.integers(0, schedule.n_windows - 1))
    centers = schedule.centers.copy()
    centers[d, w] = context.topology.n_procs + data.draw(st.integers(0, 3))
    context.schedule = Schedule(
        centers=centers, windows=schedule.windows, meta=dict(schedule.meta)
    )
    report = run_lint(context)
    culprits = {diag.code for diag in errors_of(report)}
    assert "SCH001" in culprits
    assert (d, w) in {(diag.datum, diag.window) for diag in report.by_code("SCH001")}
    # the mutation may also create a movement-free slot elsewhere, but it
    # must not implicate capacity or fault rules
    assert culprits <= {"SCH001"}


@given(bundles())
@settings(max_examples=40, deadline=None)
def test_shrunk_capacity_is_caught_by_exactly_sch002(context):
    occupancy = context.schedule.occupancy(context.topology.n_procs)
    peak = int(occupancy.max())
    if peak < 1:
        return  # degenerate: nothing resident anywhere
    context.capacity = CapacityPlan.uniform(context.topology.n_procs, peak - 1)
    report = run_lint(context, ignore=["THY"])
    culprits = {diag.code for diag in errors_of(report)}
    assert culprits == {"SCH002"}
    overfull = next(
        diag for diag in report.by_code("SCH002") if diag.processor is not None
    )
    assert occupancy[overfull.window, overfull.processor] == peak
