"""ReplayCursor: window-stepping replay with snapshot/rollback fidelity."""

import numpy as np
import pytest

import repro
from repro.faults import FaultPlan, NodeFault
from repro.sim import ReplayCursor, replay_schedule


@pytest.fixture
def run(drift, model44):
    tensor = drift.reference_tensor()
    schedule = repro.schedule(tensor, model44, algorithm="gomcds")
    return drift.trace, schedule, model44


class TestBitIdentity:
    def test_fault_free_matches_monolithic_replay(self, run):
        trace, schedule, model = run
        cursor = ReplayCursor(trace, schedule, model)
        report = cursor.run()
        baseline = replay_schedule(trace, schedule, model)
        assert report.to_dict() == baseline.to_dict()

    def test_fault_free_with_link_tracking(self, run):
        trace, schedule, model = run
        cursor = ReplayCursor(trace, schedule, model, track_links=True)
        report = cursor.run()
        baseline = replay_schedule(trace, schedule, model, track_links=True)
        assert report.to_dict() == baseline.to_dict()

    def test_faulted_matches_monolithic_replay(self, run):
        trace, schedule, model = run
        plan = FaultPlan(
            node_faults=(NodeFault(pid=5, start=1),), drop_rate=0.05, seed=3
        )
        cursor = ReplayCursor(trace, schedule, model, faults=plan)
        report = cursor.run()
        baseline = replay_schedule(trace, schedule, model, faults=plan)
        assert report.to_dict() == baseline.to_dict()


class TestStepping:
    def test_step_past_end_raises(self, run):
        trace, schedule, model = run
        cursor = ReplayCursor(trace, schedule, model)
        cursor.run()
        with pytest.raises(RuntimeError, match="past the last window"):
            cursor.step()

    def test_finish_before_done_raises(self, run):
        trace, schedule, model = run
        cursor = ReplayCursor(trace, schedule, model)
        cursor.step()
        with pytest.raises(RuntimeError, match="incomplete"):
            cursor.finish()

    def test_window_events_partition_the_trace(self, run):
        trace, schedule, model = run
        cursor = ReplayCursor(trace, schedule, model)
        served = np.concatenate(
            [cursor.window_events(w) for w in range(cursor.n_windows)]
        )
        assert sorted(served.tolist()) == list(range(len(trace.steps)))


class TestCheckpointing:
    def test_snapshot_restore_reproduces_digest(self, run):
        trace, schedule, model = run
        cursor = ReplayCursor(trace, schedule, model)
        cursor.step()
        cursor.step()
        ckpt = cursor.snapshot()
        assert cursor.state_digest() == ckpt.digest
        cursor.step()
        assert cursor.state_digest() != ckpt.digest
        cursor.restore(ckpt)
        assert cursor.window == ckpt.window
        assert cursor.state_digest() == ckpt.digest

    def test_restore_is_repeatable(self, run):
        trace, schedule, model = run
        cursor = ReplayCursor(trace, schedule, model)
        cursor.step()
        ckpt = curspt = cursor.snapshot()
        first = None
        for _ in range(3):
            cursor.restore(curspt)
            while not cursor.done:
                cursor.step()
            digest = cursor.state_digest()
            if first is None:
                first = digest
            assert digest == first
        assert ckpt.digest == curspt.digest

    def test_rollback_then_rerun_matches_straight_run(self, run):
        trace, schedule, model = run
        straight = ReplayCursor(trace, schedule, model).run()
        cursor = ReplayCursor(trace, schedule, model)
        cursor.step()
        ckpt = cursor.snapshot()
        cursor.step()
        cursor.restore(ckpt)
        while not cursor.done:
            cursor.step()
        assert cursor.finish().to_dict() == straight.to_dict()

    def test_checkpoint_to_dict_is_serializable(self, run):
        import json

        trace, schedule, model = run
        cursor = ReplayCursor(trace, schedule, model)
        cursor.step()
        d = cursor.snapshot().to_dict()
        assert d["kind"] == "checkpoint"
        assert json.loads(json.dumps(d)) == d


class TestRebind:
    def test_rebind_rejects_horizon_change(self, run, model44, lu8, lu8_tensor):
        trace, schedule, model = run
        other = repro.schedule(lu8_tensor, model44, algorithm="gomcds")
        cursor = ReplayCursor(trace, schedule, model)
        with pytest.raises(ValueError):
            cursor.rebind(schedule=other)

    def test_rebind_to_faulted_plan_switches_paths(self, run):
        trace, schedule, model = run
        cursor = ReplayCursor(trace, schedule, model)
        assert cursor.injector is None
        cursor.step()
        plan = FaultPlan(node_faults=(NodeFault(pid=0, start=1),))
        cursor.rebind(faults=plan)
        assert cursor.injector is not None
        report = cursor.run()
        # accounting stays closed across the mid-run path switch
        assert report.accounts_for_all_fetches()


class TestValidation:
    def test_mismatched_trace_rejected(self, run, lu8):
        _, schedule, model = run
        with pytest.raises(ValueError):
            ReplayCursor(lu8.trace, schedule, model)
