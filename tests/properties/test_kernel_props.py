"""Kernel parity: the numpy fast path is bit-identical to the scalar
python reference oracle, on random instances and the paper benchmarks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import schedule
from repro.core import CostModel
from repro.core.kernels import (
    KERNELS,
    hold_position_numpy,
    hold_position_python,
    merged_totals_python,
    placement_cost_tensor_python,
    resolve_kernel,
    shortest_center_path_python,
)
from repro.core.gomcds import shortest_center_path
from repro.grid import Mesh2D
from repro.mem import CapacityPlan
from repro.trace import build_reference_tensor
from repro.workloads import benchmark as make_benchmark, trace_from_counts

TOPO = Mesh2D(2, 3)
ALGORITHMS = ("SCDS", "LOMCDS", "GOMCDS")


@st.composite
def instances(draw, max_data=4, max_windows=5):
    n_data = draw(st.integers(1, max_data))
    n_windows = draw(st.integers(1, max_windows))
    counts = draw(
        arrays(
            dtype=np.int64,
            shape=(n_data, n_windows, TOPO.n_procs),
            elements=st.integers(0, 3),
        )
    )
    trace, windows = trace_from_counts(counts, TOPO)
    return build_reference_tensor(trace, windows)


@given(instances())
@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("name", ALGORITHMS)
def test_kernels_bit_identical_unconstrained(name, tensor):
    model = CostModel(TOPO)
    fast = schedule(tensor, model, algorithm=name, kernel="numpy")
    slow = schedule(tensor, model, algorithm=name, kernel="python")
    assert np.array_equal(fast.centers, slow.centers)


@given(instances())
@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("name", ALGORITHMS)
def test_kernels_bit_identical_constrained(name, tensor):
    model = CostModel(TOPO)
    capacity = CapacityPlan.paper_rule(tensor.n_data, TOPO.n_procs)
    fast = schedule(
        tensor, model, algorithm=name, capacity=capacity, kernel="numpy"
    )
    slow = schedule(
        tensor, model, algorithm=name, capacity=capacity, kernel="python"
    )
    assert np.array_equal(fast.centers, slow.centers)


@given(instances())
@settings(max_examples=40, deadline=None)
def test_placement_cost_tensor_matches_numpy(tensor):
    model = CostModel(TOPO)
    scalar = placement_cost_tensor_python(tensor, model)
    vector = model.reference_costs(tensor)
    assert np.array_equal(scalar, vector)
    assert np.array_equal(
        merged_totals_python(scalar), vector.sum(axis=1)
    )


@given(instances())
@settings(max_examples=40, deadline=None)
def test_certificates_bit_identical(tensor):
    model = CostModel(TOPO)
    fast = schedule(tensor, model, certify=True, kernel="numpy")
    slow = schedule(tensor, model, certify=True, kernel="python")
    assert np.array_equal(fast.centers, slow.centers)
    assert np.array_equal(
        fast.meta["certificate"]["potentials"],
        slow.meta["certificate"]["potentials"],
    )
    assert np.array_equal(
        fast.meta["certificate"]["totals"],
        slow.meta["certificate"]["totals"],
    )


@given(
    arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 6), st.just(6)),
        elements=st.floats(0, 50, allow_nan=False),
    )
)
@settings(max_examples=60, deadline=None)
def test_shortest_path_matches_vectorized(window_costs):
    move = CostModel(TOPO).distances.astype(float)
    path_py, total_py = shortest_center_path_python(window_costs, move)
    path_np, total_np = shortest_center_path(window_costs, move)
    assert np.array_equal(path_py, path_np)
    assert total_py == total_np


@given(
    arrays(dtype=np.int64, shape=(3, 5), elements=st.integers(0, 5)),
    arrays(dtype=np.bool_, shape=(3, 5)),
)
@settings(max_examples=60, deadline=None)
def test_hold_position_matches(centers, referenced):
    a = centers.copy()
    b = centers.copy()
    hold_position_python(a, referenced)
    hold_position_numpy(b, referenced)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("bench", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", ALGORITHMS)
def test_paper_benchmarks_bit_identical(bench, name):
    """Acceptance gate: kernels agree on benchmarks 1-5 (constrained)."""
    topo = Mesh2D(4, 4)
    wl = make_benchmark(bench, 8, topo, seed=1998)
    tensor = build_reference_tensor(wl.trace, wl.windows)
    model = CostModel(topo)
    capacity = CapacityPlan.paper_rule(wl.n_data, topo.n_procs)
    fast = schedule(
        tensor, model, algorithm=name, capacity=capacity, kernel="numpy"
    )
    slow = schedule(
        tensor, model, algorithm=name, capacity=capacity, kernel="python"
    )
    assert np.array_equal(fast.centers, slow.centers)


def test_resolve_kernel_contract():
    assert resolve_kernel(None) == "numpy"
    assert resolve_kernel("NumPy") == "numpy"
    assert resolve_kernel("python") == "python"
    assert set(KERNELS) == {"numpy", "python"}
    with pytest.raises(ValueError, match="python"):
        resolve_kernel("fortran")
