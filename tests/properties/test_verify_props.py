"""Property-based tests of the certifier (hypothesis).

Two contracts the issue pins down exactly:

* the abstract interpreter's per-link volumes bit-agree with the
  replay's :class:`SpatialTrace` ground truth for *arbitrary* valid
  schedules (unit volumes are integers, so equality is exact);
* a certified GOMCDS schedule whose center sequence is perturbed into
  any strictly costlier path always fails certificate checking.
"""

import dataclasses

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro
from repro.core import CostModel, Schedule
from repro.diagnostics import VER007, Severity
from repro.grid import Mesh1D, Mesh2D
from repro.obs import Instrumentation
from repro.sim import replay_schedule
from repro.trace import build_reference_tensor
from repro.verify import check_certificate, interpret_schedule
from repro.workloads import trace_from_counts

MESHES = [Mesh1D(6), Mesh2D(2, 3), Mesh2D(3, 3)]


@st.composite
def workload_and_centers(draw, max_data=4, max_windows=4):
    """A random reference universe plus an *arbitrary* in-range schedule."""
    topo = draw(st.sampled_from(MESHES))
    n_data = draw(st.integers(1, max_data))
    n_windows = draw(st.integers(1, max_windows))
    counts = draw(
        arrays(
            dtype=np.int64,
            shape=(n_data, n_windows, topo.n_procs),
            elements=st.integers(0, 3),
        )
    )
    centers = draw(
        arrays(
            dtype=np.int64,
            shape=(n_data, n_windows),
            elements=st.integers(0, topo.n_procs - 1),
        )
    )
    return topo, counts, centers


@given(workload_and_centers())
@settings(max_examples=40, deadline=None)
def test_static_link_volumes_bit_agree_with_replay(bundle):
    topo, counts, centers = bundle
    trace, windows = trace_from_counts(counts, topo)
    assume(windows.n_windows == counts.shape[1])
    tensor = build_reference_tensor(trace, windows)
    model = CostModel(topo)
    schedule = Schedule(centers=centers, windows=windows, method="random")

    prediction, diags = interpret_schedule(
        schedule, tensor, model, trace=trace
    )
    assert not [d for d in diags if d.severity == Severity.ERROR]

    instr = Instrumentation.started(spatial=True)
    replay_schedule(trace, schedule, model, instrument=instr)
    spatial = instr.spatial.traces[-1]

    # unit volumes are integral, so agreement is exact, not approximate
    static = prediction.link_totals()
    dynamic = spatial.link_totals()
    assert set(static) == {
        link for link, vol in dynamic.items() if vol
    } | set(static)
    for link in set(static) | set(dynamic):
        assert static.get(link, 0.0) == dynamic.get(link, 0.0)


@st.composite
def certified_with_perturbation(draw, max_data=4, max_windows=4):
    topo = draw(st.sampled_from(MESHES))
    n_data = draw(st.integers(1, max_data))
    n_windows = draw(st.integers(2, max_windows))
    counts = draw(
        arrays(
            dtype=np.int64,
            shape=(n_data, n_windows, topo.n_procs),
            elements=st.integers(0, 3),
        )
    )
    datum = draw(st.integers(0, n_data - 1))
    window = draw(st.integers(0, n_windows - 1))
    new_center = draw(st.integers(0, topo.n_procs - 1))
    return topo, counts, datum, window, new_center


@given(certified_with_perturbation())
@settings(max_examples=40, deadline=None)
def test_perturbed_center_sequence_always_fails_certification(bundle):
    topo, counts, datum, window, new_center = bundle
    trace, windows = trace_from_counts(counts, topo)
    assume(windows.n_windows == counts.shape[1])
    tensor = build_reference_tensor(trace, windows)
    model = CostModel(topo)
    schedule = repro.schedule(
        tensor, model, algorithm="gomcds", capacity=None, certify=True
    )

    # the pristine certificate verifies
    assert check_certificate(schedule, tensor, model) == []

    centers = schedule.centers.copy()
    centers[datum, window] = new_center
    perturbed = dataclasses.replace(schedule, centers=centers)

    def path_cost(path):
        dist = model.distances
        cost = float(
            sum(dist[path[w], p] * counts[datum, w, p]
                for w in range(len(path)) for p in range(topo.n_procs))
        )
        cost += float(sum(dist[path[w - 1], path[w]]
                          for w in range(1, len(path))))
        return cost

    # only strictly costlier paths must fail: a tie is another optimum
    assume(path_cost(centers[datum]) > path_cost(schedule.centers[datum]))

    diags = check_certificate(perturbed, tensor, model)
    assert any(
        d.code == VER007 and d.severity == Severity.ERROR for d in diags
    )
