"""Trace/schedule persistence tests."""

import numpy as np
import pytest

import repro
from repro.core import CostModel
from repro.trace import (
    load_schedule,
    load_trace,
    save_schedule,
    save_trace,
    windows_by_step_count,
)


def test_trace_roundtrip(tmp_path, lu8):
    path = tmp_path / "lu8.npz"
    save_trace(path, lu8.trace, lu8.windows)
    trace, windows = load_trace(path)
    assert np.array_equal(trace.steps, lu8.trace.steps)
    assert np.array_equal(trace.procs, lu8.trace.procs)
    assert np.array_equal(trace.data, lu8.trace.data)
    assert np.array_equal(trace.counts, lu8.trace.counts)
    assert trace.n_steps == lu8.trace.n_steps
    assert trace.n_data == lu8.trace.n_data
    assert np.array_equal(windows.starts, lu8.windows.starts)


def test_trace_roundtrip_without_windows(tmp_path, lu8):
    path = tmp_path / "bare.npz"
    save_trace(path, lu8.trace)
    trace, windows = load_trace(path)
    assert windows is None
    assert trace.total_references == lu8.trace.total_references


def test_save_rejects_mismatched_windows(tmp_path, lu8):
    wrong = windows_by_step_count(lu8.trace.n_steps + 4, 2)
    with pytest.raises(ValueError):
        save_trace(tmp_path / "x.npz", lu8.trace, wrong)


def test_schedule_roundtrip(tmp_path, lu8_tensor, mesh44):
    model = CostModel(mesh44)
    schedule = repro.schedule(lu8_tensor, model, algorithm="gomcds")
    path = tmp_path / "sched.npz"
    save_schedule(path, schedule)
    loaded = load_schedule(path)
    assert np.array_equal(loaded.centers, schedule.centers)
    assert loaded.method == schedule.method
    assert np.array_equal(loaded.windows.starts, schedule.windows.starts)
    assert loaded.windows.n_steps == schedule.windows.n_steps


def test_loaded_schedule_evaluates_identically(tmp_path, lu8_tensor, mesh44):
    from repro.core import evaluate_schedule

    model = CostModel(mesh44)
    schedule = repro.schedule(lu8_tensor, model, algorithm="gomcds")
    save_schedule(tmp_path / "s.npz", schedule)
    loaded = load_schedule(tmp_path / "s.npz")
    assert (
        evaluate_schedule(loaded, lu8_tensor, model).total
        == evaluate_schedule(schedule, lu8_tensor, model).total
    )
