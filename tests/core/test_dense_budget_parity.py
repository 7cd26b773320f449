"""Budgeted GOMCDS against its dense oracle on every topology.

The per-axis budget DP (:func:`repro.core.budget._solve_budgeted`) and
the capacity walk around it must return the dense oracle's centers
(:mod:`tests.core.dense_budget`) bit for bit, ties included: over every
budget from 0 to ``W``, with and without random admissible masks, for
blocks of data and for a single datum.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import CostModel, gomcds_budgeted
from repro.core.budget import _solve_budgeted
from repro.core.gomcds import _Moves
from repro.grid import Mesh1D, Mesh2D, Mesh3D, Torus2D, WeightedMesh2D
from repro.mem import CapacityError, CapacityPlan
from repro.trace import build_reference_tensor
from repro.workloads import trace_from_counts

from .dense_budget import dense_budgeted_path, dense_gomcds_budgeted

TOPOLOGIES = [
    Mesh1D(5),
    Mesh2D(2, 3),
    Torus2D(3, 3),
    WeightedMesh2D(2, 3, 2, 3),
    Mesh3D(2, 2, 2),
]
by_topology = pytest.mark.parametrize("topo", TOPOLOGIES, ids=repr)


@st.composite
def instances(draw, topo, max_data=6, max_windows=5):
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


@st.composite
def admissible_masks(draw, shape):
    """``(D, W, m)`` masks with at least one admissible cell per window."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < 0.6
    keep = rng.integers(0, shape[-1], size=shape[:-1])
    np.put_along_axis(mask, keep[..., None], True, axis=-1)
    return mask


def _dense_paths(costs, dist, budget, masks):
    """Per-datum oracle paths, or ``None`` when some datum is infeasible."""
    try:
        return np.stack(
            [
                dense_budgeted_path(
                    costs[d], dist, budget, None if masks is None else masks[d]
                )
                for d in range(len(costs))
            ]
        )
    except CapacityError:
        return None


@by_topology
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_budgeted_solve_matches_dense_oracle(topo, data):
    tensor = data.draw(instances(topo))
    model = CostModel(topo)
    costs = model.reference_costs(tensor)
    n_windows = tensor.n_windows
    budget = data.draw(st.integers(0, n_windows))
    masks = data.draw(
        st.none() | admissible_masks(costs.shape), label="masks"
    )
    moves = _Moves(topo.axis_distances())
    capped = min(budget, n_windows - 1)
    dist = model.distances.astype(np.float64)
    expected = _dense_paths(costs, dist, budget, masks)

    def block_solve():
        paths, _ = _solve_budgeted(
            np.moveaxis(costs, 0, -1), moves, capped,
            allowed=None if masks is None else np.moveaxis(masks, 0, -1),
        )
        return paths.T

    def one_datum_solves():
        return np.stack(
            [
                _solve_budgeted(
                    costs[d], moves, capped,
                    allowed=None if masks is None else masks[d],
                )[0]
                for d in range(len(costs))
            ]
        )

    for solve in (block_solve, one_datum_solves):
        if expected is None:
            with pytest.raises(CapacityError):
                solve()
        else:
            assert np.array_equal(solve(), expected)


@by_topology
@pytest.mark.parametrize("constrained", [False, True], ids=["free", "capacity"])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_gomcds_budgeted_matches_dense_walk(topo, constrained, data):
    tensor = data.draw(instances(topo))
    model = CostModel(topo)
    budget = data.draw(st.integers(0, tensor.n_windows))
    capacity = (
        CapacityPlan.paper_rule(tensor.n_data, topo.n_procs)
        if constrained
        else None
    )
    try:
        expected = dense_gomcds_budgeted(tensor, model, budget, capacity)
    except CapacityError:
        with pytest.raises(CapacityError):
            gomcds_budgeted(tensor, model, budget, capacity)
        return
    got = gomcds_budgeted(tensor, model, budget, capacity)
    assert np.array_equal(got.centers, expected)
