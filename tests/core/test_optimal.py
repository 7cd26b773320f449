"""Optimal static placement (assignment oracle) tests."""

import numpy as np
import pytest

from repro import schedule
from repro.core import (
    CostModel,
    evaluate_schedule,
    optimal_static_placement,
    static_lower_bound,
)
from repro.grid import Mesh1D
from repro.mem import CapacityError, CapacityPlan
from repro.trace import build_reference_tensor
from repro.workloads import trace_from_counts


def make_tensor(counts, topo):
    trace, windows = trace_from_counts(np.asarray(counts, dtype=np.int64), topo)
    return build_reference_tensor(trace, windows)


def test_unconstrained_matches_scds(lu8_tensor, mesh44):
    model = CostModel(mesh44)
    opt = evaluate_schedule(
        optimal_static_placement(lu8_tensor, model), lu8_tensor, model
    ).total
    greedy = evaluate_schedule(
        schedule(lu8_tensor, model, algorithm="scds"), lu8_tensor, model
    ).total
    assert opt == greedy


def test_never_worse_than_greedy_scds(lu8_tensor, mesh44):
    model = CostModel(mesh44)
    for mult in (1.0, 1.5, 2.0):
        cap = CapacityPlan.paper_rule(lu8_tensor.n_data, 16, mult)
        opt = evaluate_schedule(
            optimal_static_placement(lu8_tensor, model, cap), lu8_tensor, model
        ).total
        greedy_schedule = schedule(
            lu8_tensor, model, algorithm="scds", capacity=cap
        )
        greedy = evaluate_schedule(greedy_schedule, lu8_tensor, model).total
        assert opt <= greedy


def test_capacity_respected(lu8_tensor, mesh44):
    model = CostModel(mesh44)
    cap = CapacityPlan.paper_rule(lu8_tensor.n_data, 16, 1.0)
    sched = optimal_static_placement(lu8_tensor, model, cap)
    occ = sched.occupancy(16)
    assert (occ <= cap.capacities[None, :]).all()


def test_exact_on_crafted_swap_instance():
    """Greedy misplaces on this instance; the assignment fixes it."""
    topo = Mesh1D(2)
    # datum 0 slightly prefers proc 0; datum 1 strongly prefers proc 0.
    # greedy (priority = volume) places datum 1 first -> both happy; flip
    # volumes so greedy serves datum 0 first and strands datum 1.
    counts = [
        [[3, 2]],  # datum 0: prefers proc 1 (cost 3 at 1? compute below)
        [[0, 4]],  # datum 1: prefers proc 1 strongly
    ]
    tensor = make_tensor(counts, topo)
    model = CostModel(topo)
    cap = CapacityPlan.uniform(2, 1)
    greedy = evaluate_schedule(
        schedule(tensor, model, algorithm="scds", capacity=cap), tensor, model
    ).total
    opt = evaluate_schedule(
        optimal_static_placement(tensor, model, cap), tensor, model
    ).total
    assert opt <= greedy
    # brute force over both assignments confirms exactness
    totals = model.reference_costs(tensor).sum(axis=1)
    brute = min(
        totals[0, 0] + totals[1, 1],
        totals[0, 1] + totals[1, 0],
    )
    assert opt == pytest.approx(brute)


def test_brute_force_agreement_random():
    """Exactness on random 3-data instances vs. brute-force enumeration."""
    from itertools import permutations

    rng = np.random.default_rng(83)
    topo = Mesh1D(3)
    model = CostModel(topo)
    cap = CapacityPlan.uniform(3, 1)
    for _ in range(25):
        counts = rng.integers(0, 5, size=(3, 2, 3))
        tensor = make_tensor(counts, topo)
        totals = model.reference_costs(tensor).sum(axis=1)
        brute = min(
            sum(totals[d, p] for d, p in enumerate(perm))
            for perm in permutations(range(3))
        )
        opt = evaluate_schedule(
            optimal_static_placement(tensor, model, cap), tensor, model
        ).total
        assert opt == pytest.approx(brute)


def test_movement_can_beat_the_static_optimum(mesh44):
    """static_lower_bound bounds static methods only: GOMCDS may go lower."""
    topo = Mesh1D(5)
    counts = [[[9, 0, 0, 0, 0], [0, 0, 0, 0, 9]]]
    tensor = make_tensor(counts, topo)
    model = CostModel(topo)
    bound = static_lower_bound(tensor, model)
    moving = evaluate_schedule(
        schedule(tensor, model, algorithm="gomcds"), tensor, model
    ).total
    assert moving < bound


def test_infeasible_capacity(lu8_tensor, mesh44):
    model = CostModel(mesh44)
    with pytest.raises(CapacityError):
        optimal_static_placement(
            lu8_tensor, model, CapacityPlan.uniform(16, 1)
        )
