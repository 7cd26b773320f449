"""Cycle-stepped network simulation tests."""

import numpy as np
import pytest

import repro
from repro.core import CostModel, Schedule
from repro.grid import Mesh1D, Mesh2D, XYRouter
from repro.sim import (
    estimate_execution_time,
    simulate_schedule_network,
    simulate_window_traffic,
)
from repro.trace import build_reference_tensor
from repro.workloads import trace_from_counts


@pytest.fixture
def router1d():
    return XYRouter(Mesh1D(6))


class TestSingleTransfers:
    def test_empty_batch(self, router1d):
        assert simulate_window_traffic([], router1d) == 0

    def test_local_transfer_free(self, router1d):
        assert simulate_window_traffic([(2, 2, 5)], router1d) == 0

    def test_single_packet_takes_hop_count(self, router1d):
        assert simulate_window_traffic([(0, 4, 1)], router1d) == 4

    def test_volume_pipelines_on_a_path(self, router1d):
        # v packets over h hops drain in h + v - 1 cycles (wormhole-free
        # store-and-forward pipeline)
        assert simulate_window_traffic([(0, 4, 3)], router1d) == 4 + 3 - 1

    def test_disjoint_paths_run_in_parallel(self, router1d):
        cycles = simulate_window_traffic([(0, 1, 1), (4, 5, 1)], router1d)
        assert cycles == 1

    def test_shared_link_serializes(self, router1d):
        # both transfers need link (0, 1) on their first hop
        cycles = simulate_window_traffic([(0, 2, 1), (0, 3, 1)], router1d)
        # packet A: cycles 1-2; packet B waits a cycle: 2-4
        assert cycles == 4

    def test_deterministic(self, router1d):
        batch = [(0, 5, 2), (3, 1, 1), (5, 0, 2)]
        a = simulate_window_traffic(batch, router1d)
        b = simulate_window_traffic(batch, router1d)
        assert a == b


class TestBoundConsistency:
    def _instance(self, seed=101):
        rng = np.random.default_rng(seed)
        topo = Mesh2D(3, 3)
        counts = rng.integers(0, 3, size=(8, 3, 9))
        trace, windows = trace_from_counts(counts, topo)
        tensor = build_reference_tensor(trace, windows)
        return trace, tensor, CostModel(topo)

    def test_simulated_at_least_analytic_bound(self):
        """The contention bound of sim.timing is a true lower bound on the
        measured per-window drain time."""
        for seed in (101, 202, 303):
            trace, tensor, model = self._instance(seed)
            for algorithm in ("scds", "gomcds"):
                schedule = repro.schedule(tensor, model, algorithm=algorithm)
                bound = estimate_execution_time(trace, schedule, model)
                measured = simulate_schedule_network(trace, schedule, model)
                assert np.all(
                    measured.fetch_cycles >= bound.fetch_comm_time - 1e-9
                )
                assert np.all(
                    measured.move_cycles >= bound.move_comm_time - 1e-9
                )

    def test_packets_match_remote_volume(self):
        trace, tensor, model = self._instance()
        schedule = repro.schedule(tensor, model, algorithm="scds")
        report = simulate_schedule_network(trace, schedule, model)
        # every remote reference contributes exactly its count in packets
        centers = schedule.centers[trace.data, 0]
        windows = schedule.windows.assign(trace.steps)
        expected = int(
            sum(
                c
                for p, d, c, w in zip(
                    trace.procs, trace.data, trace.counts, windows
                )
                if schedule.centers[d, w] != p
            )
        )
        assert report.total_packets == expected

    def test_static_schedule_has_no_move_cycles(self):
        trace, tensor, model = self._instance()
        report = simulate_schedule_network(
            trace, repro.schedule(tensor, model, algorithm="scds"), model
        )
        assert report.move_cycles.sum() == 0

    def test_window_span_checked(self):
        from repro.trace import windows_by_step_count

        trace, tensor, model = self._instance()
        wrong = windows_by_step_count(trace.n_steps + 2, 1)
        schedule = Schedule.static(
            np.zeros(tensor.n_data, dtype=np.int64), wrong
        )
        with pytest.raises(ValueError):
            simulate_schedule_network(trace, schedule, model)
