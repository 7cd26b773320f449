"""Per-axis kernels on every topology: the separable cost tensor and
min-plus path solve are bit-identical to the dense scalar oracles, and
the certificates of claimed-free data pass the unchanged checker."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import schedule
from repro.core import CostModel, reschedule_around_faults
from repro.core.gomcds import _solver, _walk, shortest_center_path
from repro.core.kernels import (
    placement_cost_tensor_python,
    shortest_center_path_python,
)
from repro.core.reschedule import alive_window_mask
from repro.diagnostics import VER006, VER007
from repro.faults import FaultPlan, NodeFault
from repro.grid import Mesh1D, Mesh2D, Mesh3D, Torus2D, WeightedMesh2D
from repro.mem import CapacityPlan, OccupancyTracker
from repro.obs import resolve
from repro.trace import build_reference_tensor
from repro.verify import check_certificate
from repro.workloads import trace_from_counts

TOPOLOGIES = [
    Mesh1D(5),
    Mesh2D(2, 3),
    Torus2D(3, 3),
    WeightedMesh2D(2, 3, 2, 3),
    Mesh3D(2, 2, 2),
]
by_topology = pytest.mark.parametrize("topo", TOPOLOGIES, ids=repr)


@st.composite
def instances(draw, topo, max_data=8, max_windows=5):
    n_data = draw(st.integers(1, max_data))
    n_windows = draw(st.integers(1, max_windows))
    counts = draw(
        arrays(
            dtype=np.int64,
            shape=(n_data, n_windows, topo.n_procs),
            elements=st.integers(0, 3),
        )
    )
    trace, windows = trace_from_counts(counts, topo)
    return build_reference_tensor(trace, windows)


def _potentials(sched):
    return sched.meta["certificate"]["potentials"]


def _paper_rule(tensor, topo, multiplier=1.0):
    # the tight end of the rule, so paths contend for slots
    return CapacityPlan.paper_rule(tensor.n_data, topo.n_procs, multiplier)


@by_topology
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_cost_tensor_matches_scalar_oracle(topo, data):
    tensor = data.draw(instances(topo))
    model = CostModel(topo)
    costs = model.reference_costs(tensor)
    assert costs.dtype == np.int64
    assert np.array_equal(costs, placement_cost_tensor_python(tensor, model))


@by_topology
@pytest.mark.parametrize("constrained", [False, True], ids=["free", "capacity"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_gomcds_kernels_bit_identical(topo, constrained, data):
    tensor = data.draw(instances(topo))
    model = CostModel(topo)
    capacity = _paper_rule(tensor, topo) if constrained else None
    fast, slow = (
        schedule(
            tensor, model, algorithm="gomcds", capacity=capacity,
            certify=True, kernel=kernel,
        )
        for kernel in ("numpy", "python")
    )
    assert np.array_equal(fast.centers, slow.centers)
    assert np.array_equal(_potentials(fast), _potentials(slow))
    assert not check_certificate(fast, tensor, model, require=True)


@by_topology
@pytest.mark.parametrize("constrained", [False, True], ids=["free", "capacity"])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_reschedule_around_faults_matches_python_walk(topo, constrained, data):
    tensor = data.draw(instances(topo))
    model = CostModel(topo)
    dead = data.draw(st.integers(0, topo.n_procs - 1))
    start = data.draw(st.integers(0, tensor.n_windows - 1))
    plan = FaultPlan(node_faults=(NodeFault(pid=dead, start=start),))
    # the experiments' 2x sizing leaves room for one dead processor
    capacity = _paper_rule(tensor, topo, 2.0) if constrained else None
    fast = reschedule_around_faults(tensor, model, plan, capacity, certify=True)
    tracker = (
        None if capacity is None
        else OccupancyTracker(capacity, n_windows=tensor.n_windows)
    )
    centers, potentials, _ = _walk(
        placement_cost_tensor_python(tensor, model),
        _solver(topo, "python"),
        tensor.data_priority_order(),
        obs=resolve(None),
        span="reschedule.capacity_walk",
        alive=alive_window_mask(plan, tensor.n_windows, topo.n_procs),
        tracker=tracker,
        certify=True,
    )
    assert np.array_equal(fast.centers, centers)
    assert np.array_equal(_potentials(fast), potentials)
    assert not check_certificate(fast, tensor, model, plan, require=True)


@given(
    window_costs=arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 6), st.just(5)),
        elements=st.floats(0, 50, allow_nan=False),
    ),
    move=arrays(
        dtype=np.float64, shape=(5, 5), elements=st.floats(0, 20, allow_nan=False)
    ),
    allowed=arrays(dtype=np.bool_, shape=(6, 5)),
)
@settings(max_examples=80, deadline=None)
def test_dense_asymmetric_moves_match_scalar_oracle(window_costs, move, allowed):
    # an asymmetric move matrix tells the column it backtracks along
    # (moves *into* the chosen center) from the row
    allowed = allowed[: len(window_costs)]
    assume(allowed.any(axis=1).all())
    fast = shortest_center_path(window_costs, move, allowed, return_potentials=True)
    slow = shortest_center_path_python(
        window_costs, move, allowed, return_potentials=True
    )
    assert np.array_equal(fast[0], slow[0])
    assert fast[1] == slow[1]
    assert np.array_equal(fast[2], slow[2])


@by_topology
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_claimed_free_potentials_certify_and_catch_tampering(topo, data):
    tensor = data.draw(instances(topo))
    model = CostModel(topo)
    capacity = _paper_rule(tensor, topo)
    free = schedule(tensor, model, algorithm="gomcds", certify=True)
    capped = schedule(
        tensor, model, algorithm="gomcds", capacity=capacity, certify=True
    )
    pots, masks = _potentials(capped), capped.meta["certificate"]["masks"]
    # claimed-free data carry the unmasked potentials of the free solve
    claimed = [
        d for d in range(tensor.n_data)
        if np.array_equal(pots[d], _potentials(free)[d])
    ]
    assume(claimed)
    assert not check_certificate(capped, tensor, model, require=True)

    d = data.draw(st.sampled_from(claimed))
    cells = np.argwhere(masks[d])
    w, p = cells[data.draw(st.integers(0, len(cells) - 1))]
    inflated = dataclasses.replace(capped, meta=copy.deepcopy(capped.meta))
    _potentials(inflated)[d, w, p] += 1.0
    codes = {x.code for x in check_certificate(inflated, tensor, model)}
    assert VER006 in codes

    deflated = dataclasses.replace(capped, meta=copy.deepcopy(capped.meta))
    _potentials(deflated)[d, -1, capped.centers[d, -1]] -= 1.0
    codes = {x.code for x in check_certificate(deflated, tensor, model)}
    assert VER007 in codes
