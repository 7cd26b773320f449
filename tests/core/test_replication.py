"""Replication extension tests."""

import numpy as np
import pytest

from repro import schedule
from repro.core import (
    CostModel,
    evaluate_replicated,
    evaluate_schedule,
    greedy_k_median,
    replicated_scds,
)
from repro.grid import Mesh1D, Mesh2D
from repro.mem import CapacityError, CapacityPlan
from repro.trace import build_reference_tensor
from repro.workloads import trace_from_counts


def tensor_1d(counts):
    topo = Mesh1D(np.asarray(counts).shape[2])
    trace, windows = trace_from_counts(np.asarray(counts, dtype=np.int64), topo)
    return build_reference_tensor(trace, windows), CostModel(topo)


class TestGreedyKMedian:
    def test_k1_is_weighted_median(self):
        dist = Mesh1D(5).distance_matrix().astype(float)
        demand = np.array([1.0, 0, 0, 0, 3.0])
        assert greedy_k_median(demand, dist, 1) == [4]

    def test_two_demands_two_sites(self):
        dist = Mesh1D(5).distance_matrix().astype(float)
        demand = np.array([2.0, 0, 0, 0, 2.0])
        assert greedy_k_median(demand, dist, 2) == [0, 4]

    def test_stops_early_when_no_gain(self):
        dist = Mesh1D(5).distance_matrix().astype(float)
        demand = np.array([0, 0, 5.0, 0, 0])
        # one site already gives cost 0; extra replicas add nothing
        assert greedy_k_median(demand, dist, 3) == [2]

    def test_respects_allowed_mask(self):
        dist = Mesh1D(4).distance_matrix().astype(float)
        demand = np.array([5.0, 0, 0, 0])
        allowed = np.array([False, True, True, True])
        assert greedy_k_median(demand, dist, 1, allowed) == [1]

    def test_all_blocked_raises(self):
        dist = Mesh1D(3).distance_matrix().astype(float)
        with pytest.raises(CapacityError):
            greedy_k_median(np.ones(3), dist, 1, np.zeros(3, dtype=bool))

    def test_bad_k(self):
        dist = Mesh1D(3).distance_matrix().astype(float)
        with pytest.raises(ValueError):
            greedy_k_median(np.ones(3), dist, 0)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(41)
        dist = Mesh2D(3, 3).distance_matrix().astype(float)
        for _ in range(20):
            demand = rng.integers(0, 5, size=9).astype(float)
            costs = []
            for k in (1, 2, 3, 4):
                sites = greedy_k_median(demand, dist, k)
                nearest = dist[:, sites].min(axis=1)
                costs.append(float(demand @ nearest))
            assert costs == sorted(costs, reverse=True)
            for a, b in zip(costs, costs[1:]):
                assert b <= a


class TestReplicatedScds:
    def test_k1_matches_scds_cost(self, lu8_tensor, mesh44):
        model = CostModel(mesh44)
        placement = replicated_scds(lu8_tensor, model, k=1)
        repl_cost = evaluate_replicated(placement, lu8_tensor, model)
        scds_cost = evaluate_schedule(
            schedule(lu8_tensor, model, algorithm="scds"), lu8_tensor, model
        ).total
        assert repl_cost == pytest.approx(scds_cost)

    def test_more_copies_never_hurt_unconstrained(self, lu8_tensor, mesh44):
        model = CostModel(mesh44)
        costs = [
            evaluate_replicated(
                replicated_scds(lu8_tensor, model, k=k), lu8_tensor, model
            )
            for k in (1, 2, 3)
        ]
        for a, b in zip(costs, costs[1:]):
            assert b <= a

    def test_split_demand_goes_to_zero_with_two_copies(self):
        # each datum referenced from the two ends of the line
        tensor, model = tensor_1d([[[4, 0, 0, 0, 4]], [[2, 0, 0, 0, 2]]])
        placement = replicated_scds(tensor, model, k=2)
        assert evaluate_replicated(placement, tensor, model) == 0.0
        assert placement.replicas[0] == (0, 4)

    def test_capacity_respected(self, mesh44):
        rng = np.random.default_rng(9)
        counts = rng.integers(0, 4, size=(40, 2, 16))
        topo = Mesh2D(4, 4)
        trace, windows = trace_from_counts(counts, topo)
        tensor = build_reference_tensor(trace, windows)
        plan = CapacityPlan.uniform(16, 4)
        placement = replicated_scds(tensor, model=CostModel(topo), k=3, capacity=plan)
        occ = placement.occupancy(16)
        assert (occ <= 4).all()
        # every datum has at least one copy
        assert all(len(r) >= 1 for r in placement.replicas)

    def test_slot_reservation_under_pressure(self):
        # 4 data on 2 procs with capacity 2: exactly one copy each fits
        tensor, model = tensor_1d(
            [[[3, 1]], [[1, 3]], [[2, 2]], [[1, 1]]]
        )
        plan = CapacityPlan.uniform(2, 2)
        placement = replicated_scds(tensor, model, k=2, capacity=plan)
        assert placement.total_copies() == 4
        assert all(len(r) == 1 for r in placement.replicas)

    def test_mismatched_tensor_rejected(self, lu8_tensor, mesh44, tiny_tensor):
        model = CostModel(mesh44)
        placement = replicated_scds(lu8_tensor, model, k=1)
        with pytest.raises(ValueError):
            evaluate_replicated(placement, tiny_tensor, model)
