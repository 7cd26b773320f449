"""WindowSet unit tests."""

import numpy as np
import pytest

from repro.trace import (
    WindowSet,
    single_window,
    window_per_step,
    windows_by_step_count,
    windows_from_boundaries,
)


class TestWindowSet:
    def test_bounds_and_sizes(self):
        ws = WindowSet(starts=np.array([0, 3, 5]), n_steps=9)
        assert ws.n_windows == 3
        assert ws.bounds(0) == (0, 3)
        assert ws.bounds(1) == (3, 5)
        assert ws.bounds(2) == (5, 9)
        assert ws.sizes().tolist() == [3, 2, 4]

    def test_assign(self):
        ws = WindowSet(starts=np.array([0, 3, 5]), n_steps=9)
        assert ws.assign(np.array([0, 2, 3, 4, 5, 8])).tolist() == [0, 0, 1, 1, 2, 2]

    def test_group_matches_per_window_masks(self):
        ws = WindowSet(starts=np.array([0, 3, 5, 7]), n_steps=9)
        steps = np.random.default_rng(0).integers(0, 9, size=40)
        groups = ws.group(steps)
        assert len(groups) == ws.n_windows
        windows = ws.assign(steps)
        for w, idx in enumerate(groups):
            assert idx.tolist() == np.nonzero(windows == w)[0].tolist()

    def test_window_of_steps(self):
        ws = WindowSet(starts=np.array([0, 2]), n_steps=4)
        assert ws.window_of_steps().tolist() == [0, 0, 1, 1]

    def test_merge(self):
        ws = WindowSet(starts=np.array([0, 2, 4, 6]), n_steps=8)
        merged = ws.merge(1, 2)
        assert merged.starts.tolist() == [0, 2, 6]
        assert merged.n_steps == 8
        with pytest.raises(ValueError):
            ws.merge(2, 1)
        with pytest.raises(ValueError):
            ws.merge(0, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowSet(starts=np.array([1, 2]), n_steps=4)  # must start at 0
        with pytest.raises(ValueError):
            WindowSet(starts=np.array([0, 0]), n_steps=4)  # strictly increasing
        with pytest.raises(ValueError):
            WindowSet(starts=np.array([0, 4]), n_steps=4)  # empty last window
        with pytest.raises(ValueError):
            WindowSet(starts=np.array([], dtype=np.int64), n_steps=4)


class TestConstructors:
    def test_by_step_count_exact(self):
        ws = windows_by_step_count(8, 2)
        assert ws.starts.tolist() == [0, 2, 4, 6]

    def test_by_step_count_folds_short_tail(self):
        # 9 steps at 4/window: tail of 1 (< 2) folds into the last window.
        ws = windows_by_step_count(9, 4)
        assert ws.starts.tolist() == [0, 4]
        assert ws.sizes().tolist() == [4, 5]

    def test_by_step_count_keeps_large_tail(self):
        ws = windows_by_step_count(11, 4)
        assert ws.starts.tolist() == [0, 4, 8]

    def test_by_step_count_single_window_when_short(self):
        ws = windows_by_step_count(3, 10)
        assert ws.n_windows == 1

    def test_by_step_count_rejects_bad_size(self):
        with pytest.raises(ValueError):
            windows_by_step_count(8, 0)

    def test_from_boundaries_dedup_and_zero(self):
        ws = windows_from_boundaries([3, 3, 6], 10)
        assert ws.starts.tolist() == [0, 3, 6]

    def test_from_boundaries_drops_out_of_range(self):
        ws = windows_from_boundaries([0, 5, 10, 12], 10)
        assert ws.starts.tolist() == [0, 5]

    def test_single_window(self):
        ws = single_window(7)
        assert ws.n_windows == 1
        assert ws.bounds(0) == (0, 7)

    def test_window_per_step(self):
        ws = window_per_step(4)
        assert ws.n_windows == 4
        assert ws.sizes().tolist() == [1, 1, 1, 1]

    def test_accepts_trace(self, lu8):
        ws = single_window(lu8.trace)
        assert ws.n_steps == lu8.trace.n_steps
