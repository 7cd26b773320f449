"""Execution-time estimate tests."""

import numpy as np
import pytest

from repro import schedule
from repro.core import CostModel, Schedule
from repro.distrib import baseline_schedule
from repro.grid import Mesh1D
from repro.sim import TimingModel, estimate_execution_time
from repro.trace import build_reference_tensor
from repro.workloads import trace_from_counts


def instance_1d(counts):
    topo = Mesh1D(np.asarray(counts).shape[2])
    trace, windows = trace_from_counts(np.asarray(counts, dtype=np.int64), topo)
    tensor = build_reference_tensor(trace, windows)
    return trace, tensor, CostModel(topo)


class TestHandComputed:
    def test_all_local_is_pure_compute(self):
        trace, tensor, model = instance_1d([[[3, 0, 0]]])
        sched = Schedule.static(np.array([0]), tensor.windows)
        report = estimate_execution_time(trace, sched, model)
        assert report.compute_time.tolist() == [3.0]
        assert report.fetch_comm_time.tolist() == [0.0]
        assert report.comm_fraction == 0.0

    def test_remote_fetch_contention(self):
        # 2 refs from proc 2 to a datum at proc 0: volume 2 over 2 links;
        # endpoint volume is also 2 at both ends -> comm time 2
        trace, tensor, model = instance_1d([[[0, 0, 2]]])
        sched = Schedule.static(np.array([0]), tensor.windows)
        report = estimate_execution_time(trace, sched, model)
        assert report.fetch_comm_time.tolist() == [2.0]
        assert report.compute_time.tolist() == [2.0]
        assert report.total == 4.0

    def test_movement_phase_timed(self):
        trace, tensor, model = instance_1d([[[2, 0, 0], [0, 0, 2]]])
        sched = Schedule(centers=np.array([[0, 2]]), windows=tensor.windows)
        report = estimate_execution_time(trace, sched, model)
        # the move 0 -> 2 ships volume 1 over two links: phase time 1
        assert report.move_comm_time.tolist() == [0.0, 1.0]
        # window references are local on both sides
        assert report.fetch_comm_time.tolist() == [0.0, 0.0]

    def test_coefficients_scale_terms(self):
        trace, tensor, model = instance_1d([[[0, 0, 2]]])
        sched = Schedule.static(np.array([0]), tensor.windows)
        fast_net = estimate_execution_time(
            trace, sched, model, TimingModel(t_compute=1.0, t_hop=0.0)
        )
        slow_net = estimate_execution_time(
            trace, sched, model, TimingModel(t_compute=1.0, t_hop=10.0)
        )
        assert fast_net.total == 2.0
        assert slow_net.total == 2.0 + 20.0

    def test_parallel_compute_uses_max_not_sum(self):
        # two procs each do 2 local refs in the same window -> compute 2
        trace, tensor, model = instance_1d([[[2, 0, 0]], [[0, 0, 2]]])
        sched = Schedule.static(np.array([0, 2]), tensor.windows)
        report = estimate_execution_time(trace, sched, model)
        assert report.compute_time.tolist() == [2.0]


class TestComparative:
    def test_gomcds_localizes_fetch_phases(self, drift, mesh44):
        """GOMCDS optimizes hop x volume, which shrinks the *fetch*
        communication phases; its movement phases add serialized time the
        paper's metric never charges, so the makespan totals may go either
        way — exactly the metric gap this estimator exists to expose."""
        tensor = drift.reference_tensor()
        model = CostModel(mesh44)
        good = estimate_execution_time(
            drift.trace, schedule(tensor, model, algorithm="gomcds"), model
        )
        bad = estimate_execution_time(
            drift.trace, baseline_schedule(drift, "random"), model
        )
        assert good.fetch_comm_time.sum() <= bad.fetch_comm_time.sum()
        assert bad.move_comm_time.sum() == 0.0  # static baseline never moves

    def test_comm_fraction_in_unit_range(self, lu8, lu8_tensor, mesh44):
        model = CostModel(mesh44)
        report = estimate_execution_time(
            lu8.trace, schedule(lu8_tensor, model, algorithm="scds"), model
        )
        assert 0.0 <= report.comm_fraction < 1.0
        assert report.per_window_total.shape == (lu8_tensor.n_windows,)


class TestValidation:
    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            TimingModel(t_compute=-1.0)

    def test_span_mismatch(self, lu8, mesh44):
        from repro.trace import windows_by_step_count

        model = CostModel(mesh44)
        wrong = windows_by_step_count(lu8.trace.n_steps + 3, 2)
        sched = Schedule.static(np.zeros(lu8.n_data, dtype=np.int64), wrong)
        with pytest.raises(ValueError):
            estimate_execution_time(lu8.trace, sched, model)
