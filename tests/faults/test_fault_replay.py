"""Degraded replay: evacuation, retries, drops, outcome accounting."""

import numpy as np
import pytest

from repro import schedule
from repro.faults import (
    FaultPlan,
    LinkFault,
    NodeFault,
    RetryPolicy,
    plan_evacuation,
)
from repro.sim import replay_schedule, simulate_schedule_network


@pytest.fixture
def lu_schedule(lu8_tensor, model44, paper_capacity):
    return schedule(lu8_tensor, model44, algorithm="gomcds", capacity=paper_capacity)


class TestEmptyPlanIdentity:
    def test_bit_identical_to_fault_free_replay(
        self, lu8, lu_schedule, model44, paper_capacity
    ):
        plain = replay_schedule(
            lu8.trace, lu_schedule, model44,
            capacity=paper_capacity, track_links=True,
        )
        empty = replay_schedule(
            lu8.trace, lu_schedule, model44,
            capacity=paper_capacity, track_links=True, faults=FaultPlan(),
        )
        assert empty.reference_cost == plain.reference_cost
        assert empty.movement_cost == plain.movement_cost
        assert empty.link_traffic == plain.link_traffic
        assert np.array_equal(empty.per_window_cost, plain.per_window_cost)
        assert empty.n_fetches == plain.n_fetches
        assert empty.n_delivered == empty.n_fetches
        assert empty.n_dropped == empty.n_unreachable == 0
        assert empty.evacuation_cost == empty.retry_cost == 0.0

    def test_empty_plan_network_drain_identical(
        self, lu8, lu_schedule, model44
    ):
        plain = simulate_schedule_network(lu8.trace, lu_schedule, model44)
        empty = simulate_schedule_network(
            lu8.trace, lu_schedule, model44, faults=FaultPlan()
        )
        assert np.array_equal(empty.fetch_cycles, plain.fetch_cycles)
        assert np.array_equal(empty.move_cycles, plain.move_cycles)
        assert empty.total_packets == plain.total_packets
        assert empty.n_undeliverable == 0


class TestNodeFailure:
    def test_evacuation_keeps_references_served(
        self, lu8, lu_schedule, model44, paper_capacity
    ):
        plan = FaultPlan(node_faults=(NodeFault(pid=5, start=1),))
        report = replay_schedule(
            lu8.trace, lu_schedule, model44,
            capacity=paper_capacity, faults=plan,
        )
        assert report.accounts_for_all_fetches()
        assert report.n_evacuated > 0
        assert report.n_lost == 0
        assert report.evacuation_cost > 0.0
        # references issued *by* the dead processor stay unreachable;
        # everything else must be served
        issued_by_dead = int(lu8.trace.counts[lu8.trace.procs == 5].sum())
        assert report.n_unreachable <= issued_by_dead

    def test_no_evacuation_strands_data(
        self, lu8, lu_schedule, model44, paper_capacity
    ):
        plan = FaultPlan(node_faults=(NodeFault(pid=5, start=1),))
        report = replay_schedule(
            lu8.trace, lu_schedule, model44,
            capacity=paper_capacity, faults=plan, evacuate=False,
        )
        assert report.accounts_for_all_fetches()
        assert report.n_unreachable > 0
        assert report.n_evacuated == 0

    def test_degraded_cost_includes_recovery(
        self, lu8, lu_schedule, model44, paper_capacity
    ):
        plan = FaultPlan(node_faults=(NodeFault(pid=5, start=1),))
        report = replay_schedule(
            lu8.trace, lu_schedule, model44,
            capacity=paper_capacity, faults=plan,
        )
        assert report.degraded_cost == pytest.approx(
            report.total_cost + report.evacuation_cost + report.retry_cost
        )

    def test_unreachable_charges_retry_budget(
        self, lu8, lu_schedule, model44, paper_capacity
    ):
        plan = FaultPlan(node_faults=(NodeFault(pid=5, start=0),))
        retry = RetryPolicy(deadline=4, max_retries=2, backoff=2.0)
        report = replay_schedule(
            lu8.trace, lu_schedule, model44,
            capacity=paper_capacity, faults=plan, retry=retry, evacuate=False,
        )
        assert report.n_unreachable > 0
        assert report.n_retries >= report.n_unreachable * retry.max_retries
        # 4 + 8 + 16 cycles burned per fully timed-out reference
        assert report.retry_wait_cycles == pytest.approx(
            report.n_unreachable * retry.total_timeout_cycles()
        )


class TestTransientDrops:
    def test_certain_drop_loses_all_remote_fetches(
        self, lu8, lu_schedule, model44, paper_capacity
    ):
        plan = FaultPlan(drop_rate=1.0)
        report = replay_schedule(
            lu8.trace, lu_schedule, model44,
            capacity=paper_capacity, faults=plan,
        )
        assert report.accounts_for_all_fetches()
        # local fetches never touch the wire, so they still deliver
        assert report.n_delivered == report.n_local_fetches
        assert report.n_dropped == report.n_fetches - report.n_local_fetches
        assert report.n_unreachable == 0

    def test_moderate_drop_rate_retries_then_delivers(
        self, lu8, lu_schedule, model44, paper_capacity
    ):
        plan = FaultPlan(drop_rate=0.3, seed=7)
        report = replay_schedule(
            lu8.trace, lu_schedule, model44,
            capacity=paper_capacity, faults=plan,
        )
        assert report.accounts_for_all_fetches()
        assert report.n_retries > 0
        assert report.retry_cost > 0.0
        assert report.completion_rate > 0.9

    def test_replay_is_deterministic(
        self, lu8, lu_schedule, model44, paper_capacity
    ):
        plan = FaultPlan(
            node_faults=(NodeFault(pid=9, start=2),),
            link_faults=(LinkFault(src=0, dst=1),),
            drop_rate=0.2,
            seed=13,
        )
        runs = [
            replay_schedule(
                lu8.trace, lu_schedule, model44,
                capacity=paper_capacity, faults=plan,
            )
            for _ in range(2)
        ]
        for attr in (
            "reference_cost", "movement_cost", "evacuation_cost", "retry_cost",
            "n_delivered", "n_retries", "n_dropped", "n_unreachable",
            "n_evacuated", "n_skipped_moves",
        ):
            assert getattr(runs[0], attr) == getattr(runs[1], attr), attr


class TestLinkFaults:
    def test_severed_link_detours_cost_up(
        self, lu8, lu_schedule, model44, paper_capacity
    ):
        plain = replay_schedule(
            lu8.trace, lu_schedule, model44, capacity=paper_capacity
        )
        plan = FaultPlan(
            link_faults=tuple(
                LinkFault(src=s, dst=d)
                for s, d in ((0, 1), (1, 0), (5, 6), (6, 5))
            )
        )
        report = replay_schedule(
            lu8.trace, lu_schedule, model44,
            capacity=paper_capacity, faults=plan,
        )
        assert report.accounts_for_all_fetches()
        assert report.reference_cost >= plain.reference_cost

    def test_network_sim_counts_undeliverable(
        self, lu8, lu_schedule, model44
    ):
        plan = FaultPlan(node_faults=(NodeFault(pid=5, start=0),))
        net = simulate_schedule_network(
            lu8.trace, lu_schedule, model44, faults=plan
        )
        assert net.n_undeliverable > 0


class TestEvacuationPlanner:
    def test_moves_respect_headroom(self, mesh44):
        locations = np.array([5, 5, 5, 0])
        load = np.zeros(16, dtype=np.int64)
        load[5], load[0] = 3, 1
        capacities = np.ones(16, dtype=np.int64)
        alive = np.ones(16, dtype=bool)
        alive[5] = False
        moves, lost = plan_evacuation(
            locations, load, capacities, {5}, alive, mesh44.distance_matrix()
        )
        assert not lost
        assert len(moves) == 3
        dsts = [m.dst for m in moves]
        assert len(set(dsts)) == 3  # one slot each
        assert all(alive[d] for d in dsts)

    def test_preferred_center_wins_when_alive(self, mesh44):
        locations = np.array([5])
        load = np.zeros(16, dtype=np.int64)
        load[5] = 1
        alive = np.ones(16, dtype=bool)
        alive[5] = False
        moves, _ = plan_evacuation(
            locations, load, None, {5}, alive, mesh44.distance_matrix(),
            preferred=np.array([14]),
        )
        assert moves[0].dst == 14

    def test_full_array_strands_data(self, mesh44):
        locations = np.array([5])
        load = np.ones(16, dtype=np.int64)
        capacities = np.ones(16, dtype=np.int64)
        alive = np.ones(16, dtype=bool)
        alive[5] = False
        moves, lost = plan_evacuation(
            locations, load, capacities, {5}, alive, mesh44.distance_matrix()
        )
        assert not moves and lost == [0]
