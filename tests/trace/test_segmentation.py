"""Automatic window-segmentation tests."""

import numpy as np
import pytest

from repro import schedule
from repro.trace import (
    TraceBuilder,
    segment_by_similarity,
    segment_dp,
    step_profiles,
)


def phased_trace(n_procs=6, phase_len=4, phases=(0, 4, 2)):
    """A trace with clear phases: all demand on one processor per phase."""
    builder = TraceBuilder(n_procs=n_procs, n_data=3)
    for proc in phases:
        for _ in range(phase_len):
            builder.add(proc, 0, 5)
            builder.add(proc, 1, 2)
            builder.end_step()
    return builder.build()


class TestStepProfiles:
    def test_shape_and_counts(self):
        trace = phased_trace()
        profiles = step_profiles(trace)
        assert profiles.shape == (12, 6)
        assert profiles[0, 0] == 7.0
        assert profiles[4, 4] == 7.0

    def test_normalization(self):
        trace = phased_trace()
        profiles = step_profiles(trace, normalize=True)
        norms = np.linalg.norm(profiles, axis=1)
        assert np.allclose(norms, 1.0)

    def test_empty_trace(self):
        trace = TraceBuilder(n_procs=3, n_data=1).build()
        assert step_profiles(trace).shape == (1, 3)


class TestSimilaritySegmentation:
    def test_finds_phase_boundaries(self):
        trace = phased_trace(phase_len=4)
        windows = segment_by_similarity(trace, threshold=0.5)
        assert windows.starts.tolist() == [0, 4, 8]

    def test_stationary_trace_single_window(self):
        trace = phased_trace(phases=(2,), phase_len=8)
        windows = segment_by_similarity(trace, threshold=0.5)
        assert windows.n_windows == 1

    def test_idle_steps_never_split(self):
        builder = TraceBuilder(n_procs=4, n_data=1)
        builder.add(0, 0, 3)
        builder.end_step()
        builder.end_step()  # idle step
        builder.add(0, 0, 3)
        builder.end_step()
        windows = segment_by_similarity(builder.build(), threshold=0.9)
        assert windows.n_windows == 1

    def test_min_window_enforced(self):
        trace = phased_trace(phase_len=1, phases=(0, 5, 0, 5, 0, 5))
        coarse = segment_by_similarity(trace, threshold=0.5, min_window=2)
        fine = segment_by_similarity(trace, threshold=0.5, min_window=1)
        assert coarse.n_windows < fine.n_windows

    def test_threshold_validation(self):
        trace = phased_trace()
        with pytest.raises(ValueError):
            segment_by_similarity(trace, threshold=1.5)
        with pytest.raises(ValueError):
            segment_by_similarity(trace, min_window=0)


class TestDPSegmentation:
    def test_recovers_exact_phases(self):
        trace = phased_trace(phase_len=5)
        windows = segment_dp(trace, 3)
        assert windows.starts.tolist() == [0, 5, 10]

    def test_k_capped_by_steps(self):
        trace = phased_trace(phase_len=1, phases=(0, 1))
        windows = segment_dp(trace, 10)
        assert windows.n_windows <= 2

    def test_single_window(self):
        trace = phased_trace()
        assert segment_dp(trace, 1).n_windows == 1

    def test_objective_never_worse_than_uniform_split(self):
        rng = np.random.default_rng(61)
        builder = TraceBuilder(n_procs=5, n_data=2)
        for _ in range(12):
            for _ in range(6):
                builder.add(int(rng.integers(0, 5)), int(rng.integers(0, 2)))
            builder.end_step()
        trace = builder.build()
        profiles = step_profiles(trace)

        def objective(windows):
            total = 0.0
            for w in range(windows.n_windows):
                lo, hi = windows.bounds(w)
                block = profiles[lo:hi]
                total += ((block - block.mean(axis=0)) ** 2).sum()
            return total

        from repro.trace import windows_by_step_count

        dp = segment_dp(trace, 4)
        uniform = windows_by_step_count(trace, 3)
        assert objective(dp) <= objective(uniform) + 1e-9

    def test_validation(self):
        trace = phased_trace()
        with pytest.raises(ValueError):
            segment_dp(trace, 0)


class TestSchedulingIntegration:
    def test_auto_windows_usable_by_schedulers(self, mesh44):
        from repro.core import CostModel, evaluate_schedule
        from repro.trace import build_reference_tensor
        from repro.workloads import code_workload

        wl = code_workload(8, mesh44)
        windows = segment_by_similarity(wl.trace, threshold=0.6)
        tensor = build_reference_tensor(wl.trace, windows)
        model = CostModel(mesh44)
        cost = evaluate_schedule(
            schedule(tensor, model, algorithm="gomcds"), tensor, model
        ).total
        assert cost > 0


class TestJointFeature:
    def test_joint_feature_sees_more_fft_stages(self, mesh44):
        """Early FFT stages change only *which data* each processor pairs
        (the processor marginals barely move), so the per-processor
        feature misses boundaries the joint proc-datum sketch finds."""
        from repro.workloads import fft_workload

        fft = fft_workload(256, mesh44)
        blind = segment_by_similarity(fft.trace, threshold=0.7, feature="proc")
        sighted = segment_by_similarity(
            fft.trace, threshold=0.7, feature="proc-datum"
        )
        assert sighted.n_windows > blind.n_windows
        # the first intra-block stride change (step 4) is invisible to the
        # processor marginals but visible to the joint sketch
        assert 4 not in blind.starts.tolist()
        assert 4 in sighted.starts.tolist()

    def test_auto_windows_match_natural_gomcds_cost(self, mesh44):
        from repro.core import CostModel, evaluate_schedule
        from repro.trace import build_reference_tensor
        from repro.workloads import fft_workload

        fft = fft_workload(128, mesh44)
        model = CostModel(mesh44)
        natural = fft.reference_tensor()
        auto_windows = segment_by_similarity(fft.trace, threshold=0.7)
        auto = build_reference_tensor(fft.trace, auto_windows)
        natural_cost = evaluate_schedule(
            schedule(natural, model, algorithm="gomcds"), natural, model
        ).total
        auto_cost = evaluate_schedule(
            schedule(auto, model, algorithm="gomcds"), auto, model
        ).total
        # the sketch finds every boundary that matters for communication
        assert auto_cost <= natural_cost * 1.05

    def test_unknown_feature_rejected(self):
        trace = phased_trace()
        with pytest.raises(ValueError):
            step_profiles(trace, feature="bogus")
