"""Movement-budgeted GOMCDS tests."""

import numpy as np
import pytest

import repro
from repro.core import CostModel, evaluate_schedule, gomcds_budgeted, movement_frontier
from repro.grid import Mesh1D, Mesh2D
from repro.mem import CapacityPlan
from repro.trace import build_reference_tensor
from repro.workloads import trace_from_counts


def tensor_1d(counts):
    topo = Mesh1D(np.asarray(counts).shape[2])
    trace, windows = trace_from_counts(np.asarray(counts, dtype=np.int64), topo)
    return build_reference_tensor(trace, windows), CostModel(topo)


def random_instance(seed=111, n_data=10, n_windows=4):
    rng = np.random.default_rng(seed)
    topo = Mesh2D(3, 3)
    counts = rng.integers(0, 4, size=(n_data, n_windows, 9))
    trace, windows = trace_from_counts(counts, topo)
    return build_reference_tensor(trace, windows), CostModel(topo)


class TestReductions:
    def test_zero_budget_equals_scds(self):
        tensor, model = random_instance()
        b0 = evaluate_schedule(
            gomcds_budgeted(tensor, model, 0), tensor, model
        ).total
        static = evaluate_schedule(
            repro.schedule(tensor, model, algorithm="scds"), tensor, model
        ).total
        assert b0 == pytest.approx(static)
        assert gomcds_budgeted(tensor, model, 0).is_static()

    def test_full_budget_equals_gomcds(self):
        tensor, model = random_instance()
        full = evaluate_schedule(
            gomcds_budgeted(tensor, model, tensor.n_windows - 1), tensor, model
        ).total
        free = evaluate_schedule(
            repro.schedule(tensor, model, algorithm="gomcds"), tensor, model
        ).total
        assert full == pytest.approx(free)

    def test_budget_beyond_windows_is_harmless(self):
        tensor, model = random_instance()
        a = evaluate_schedule(
            gomcds_budgeted(tensor, model, 100), tensor, model
        ).total
        b = evaluate_schedule(
            repro.schedule(tensor, model, algorithm="gomcds"), tensor, model
        ).total
        assert a == pytest.approx(b)


class TestMonotonicity:
    def test_cost_nonincreasing_in_budget(self):
        tensor, model = random_instance(seed=222, n_windows=5)
        costs = [
            evaluate_schedule(
                gomcds_budgeted(tensor, model, b), tensor, model
            ).total
            for b in range(5)
        ]
        for a, b in zip(costs, costs[1:]):
            assert b <= a + 1e-9

    def test_budget_binds_per_datum(self):
        tensor, model = random_instance(seed=333, n_windows=6)
        for budget in (0, 1, 2):
            schedule = gomcds_budgeted(tensor, model, budget)
            per_datum_moves = (
                schedule.centers[:, 1:] != schedule.centers[:, :-1]
            ).sum(axis=1)
            assert per_datum_moves.max() <= budget


class TestCraftedCases:
    def test_one_move_spent_wisely(self):
        # three loci; with one move, serve the two heaviest exactly
        counts = [
            [
                [9, 0, 0, 0, 0],
                [0, 0, 1, 0, 0],
                [0, 0, 0, 0, 9],
            ]
        ]
        tensor, model = tensor_1d(counts)
        schedule = gomcds_budgeted(tensor, model, 1)
        assert schedule.centers[0, 0] == 0
        assert schedule.centers[0, 2] == 4
        assert schedule.n_movements() == 1

    def test_capacity_respected(self):
        tensor, model = random_instance(seed=444, n_data=20)
        plan = CapacityPlan.uniform(9, 3)
        schedule = gomcds_budgeted(tensor, model, 2, capacity=plan)
        assert (schedule.occupancy(9) <= 3).all()

    def test_negative_budget_rejected(self):
        tensor, model = random_instance()
        with pytest.raises(ValueError):
            gomcds_budgeted(tensor, model, -1)


class TestFrontier:
    def test_frontier_monotone(self):
        tensor, model = random_instance(seed=555, n_windows=5)
        rows = movement_frontier(tensor, model, budgets=(0, 1, 2, 4))
        totals = [r["total"] for r in rows]
        assert totals == sorted(totals, reverse=True) or all(
            b <= a + 1e-9 for a, b in zip(totals, totals[1:])
        )
        assert rows[0]["moves"] == 0

    def test_frontier_replays_exactly(self):
        from repro.sim import replay_schedule
        from repro.workloads import trace_from_counts

        rng = np.random.default_rng(666)
        topo = Mesh2D(3, 3)
        counts = rng.integers(0, 4, size=(8, 4, 9))
        trace, windows = trace_from_counts(counts, topo)
        tensor = build_reference_tensor(trace, windows)
        model = CostModel(topo)
        for b in (0, 1, 3):
            schedule = gomcds_budgeted(tensor, model, b)
            analytic = evaluate_schedule(schedule, tensor, model)
            assert replay_schedule(trace, schedule, model).matches(analytic)
