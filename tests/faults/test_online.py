"""Online recovery: detection at activation, bounded rollback, degradation."""

import numpy as np
import pytest

import repro
from repro.core import replicated_scds
from repro.faults import (
    FaultConfigError,
    FaultDetector,
    FaultPlan,
    LinkFault,
    NodeFault,
    RecoveryController,
    RecoveryError,
    RecoveryPolicy,
    replay_with_recovery,
)
from repro.sim import replay_schedule


@pytest.fixture
def run(drift, model44):
    tensor = drift.reference_tensor()
    schedule = repro.schedule(tensor, model44, algorithm="gomcds")
    return drift.trace, schedule, model44, tensor


def mid_fault_plan(schedule):
    """Kill the busiest window-w center at w = horizon // 2."""
    w = schedule.n_windows // 2
    victim = int(schedule.centers[0, w])
    return FaultPlan(node_faults=(NodeFault(victim, start=w),)), w, victim


class TestFaultDetector:
    def test_discovers_at_activation_only(self):
        plan = FaultPlan(
            node_faults=(NodeFault(3, start=2), NodeFault(4, start=5)),
            link_faults=(LinkFault(0, 1, start=2),),
        )
        det = FaultDetector(plan)
        assert det.poll(0) == ()
        assert det.known_plan.is_empty
        newly = det.poll(2)
        assert {type(f).__name__ for f in newly} == {"NodeFault", "LinkFault"}
        assert det.known_plan.down_nodes(2) == frozenset({3})
        # already-seen faults are not re-reported
        assert det.poll(3) == ()
        assert det.poll(5) == (NodeFault(4, start=5),)
        assert det.all_discovered()

    def test_drop_rate_is_known_up_front(self):
        plan = FaultPlan(drop_rate=0.2, seed=9)
        det = FaultDetector(plan)
        known = det.known_plan
        assert known.drop_rate == 0.2 and known.seed == 9
        # seeded drop decisions agree with the ground truth exactly
        assert all(
            known.drops_message(w, e, a) == plan.drops_message(w, e, a)
            for w in range(3) for e in range(5) for a in range(2)
        )

    def test_assume_permanent_hides_healing(self):
        plan = FaultPlan(node_faults=(NodeFault(1, start=0, end=2),))
        det = FaultDetector(plan, assume_permanent=True)
        (f,) = det.poll(0)
        assert f.end is None and f.start == 0
        assert det.known_plan.down_nodes(5) == frozenset({1})


class TestRecoveryPolicy:
    def test_unknown_mode_rejected(self):
        with pytest.raises(FaultConfigError, match="unknown recovery mode"):
            RecoveryPolicy(mode="yolo")

    def test_checkpoint_interval_flt007(self):
        with pytest.raises(FaultConfigError, match=r"\[FLT007\]"):
            RecoveryPolicy(checkpoint_interval=0).validate()
        with pytest.raises(FaultConfigError, match=r"\[FLT007\]"):
            RecoveryPolicy(checkpoint_interval=10).validate(n_windows=4)
        RecoveryPolicy(checkpoint_interval=4).validate(n_windows=4)

    def test_replicate_without_replicas_flt008(self):
        with pytest.raises(FaultConfigError, match=r"\[FLT008\]"):
            RecoveryPolicy(mode="replicate").validate(has_replicas=False)
        RecoveryPolicy(mode="replicate").validate(has_replicas=True)

    def test_dict_round_trip(self):
        policy = RecoveryPolicy(
            mode="replicate", checkpoint_interval=3, max_recoveries=2,
            backoff=1.5, recovery_deadline=64.0, reschedule=False,
        )
        assert RecoveryPolicy.from_dict(policy.to_dict()) == policy

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(FaultConfigError, match="unknown recovery-policy"):
            RecoveryPolicy.from_dict({"modee": "strict"})


class TestFaultFreeIdentity:
    def test_bit_identical_to_monolithic_replay(self, run):
        trace, schedule, model, tensor = run
        baseline = replay_schedule(trace, schedule, model)
        rep = replay_with_recovery(
            trace, schedule, model, FaultPlan(), tensor=tensor,
            policy=RecoveryPolicy(checkpoint_interval=2),
        )
        assert rep.sim.to_dict() == baseline.to_dict()
        assert rep.n_detections == 0 and rep.n_rollbacks == 0
        assert rep.recoverable and rep.data_preserved


class TestDegradeMode:
    def test_detection_triggers_bounded_rollback(self, run):
        trace, schedule, model, tensor = run
        plan, w, victim = mid_fault_plan(schedule)
        policy = RecoveryPolicy(mode="degrade", checkpoint_interval=2)
        rep = replay_with_recovery(
            trace, schedule, model, plan, tensor=tensor, policy=policy
        )
        assert rep.n_detections == 1 and rep.n_rollbacks == 1
        assert 1 <= rep.max_rollback_depth <= policy.checkpoint_interval
        assert rep.restore_mismatches == 0
        assert rep.sim.accounts_for_all_fetches()
        (event,) = rep.events
        assert event.window == w
        assert event.rollback_to <= w
        assert event.rescheduled
        assert f"pid={victim}" in event.faults[0]

    def test_rescheduled_suffix_avoids_dead_center(self, run):
        trace, schedule, model, tensor = run
        plan, w, victim = mid_fault_plan(schedule)
        controller = RecoveryController(
            trace, schedule, model, plan, tensor=tensor,
            policy=RecoveryPolicy(mode="degrade", checkpoint_interval=2),
        )
        controller.run()
        final = controller.schedule
        assert final.method == "GOMCDS+recovery"
        assert victim not in set(final.centers[:, w:].ravel().tolist())

    def test_wasted_cost_and_windows_accounted(self, run):
        trace, schedule, model, tensor = run
        plan, _, _ = mid_fault_plan(schedule)
        rep = replay_with_recovery(
            trace, schedule, model, plan, tensor=tensor,
            policy=RecoveryPolicy(mode="degrade", checkpoint_interval=2),
        )
        assert rep.windows_replayed >= rep.n_rollbacks
        assert rep.wasted_cost >= 0.0
        assert rep.to_dict()["windows_replayed"] == rep.windows_replayed

    def test_retry_deadline_escalates(self, run):
        trace, schedule, model, tensor = run
        plan = FaultPlan(
            node_faults=(NodeFault(1, start=1), NodeFault(2, start=3)),
        )
        rep = replay_with_recovery(
            trace, schedule, model, plan, tensor=tensor,
            policy=RecoveryPolicy(
                mode="degrade", checkpoint_interval=2, backoff=2.0
            ),
        )
        deadlines = [e.retry_deadline for e in rep.events]
        assert len(deadlines) == 2
        assert deadlines[1] > deadlines[0]

    def test_budget_exhaustion_finishes_against_ground_truth(self, run):
        trace, schedule, model, tensor = run
        plan = FaultPlan(
            node_faults=(NodeFault(1, start=1), NodeFault(2, start=3)),
        )
        rep = replay_with_recovery(
            trace, schedule, model, plan, tensor=tensor,
            policy=RecoveryPolicy(
                mode="degrade", checkpoint_interval=2, max_recoveries=1
            ),
        )
        assert rep.budget_exhausted
        assert not rep.recoverable
        assert rep.n_rollbacks == 1  # second detection spent no rollback
        assert rep.sim.accounts_for_all_fetches()


class TestReplicateMode:
    def test_no_datum_instances_lost(self, run, model44):
        trace, schedule, model, tensor = run
        plan, _, _ = mid_fault_plan(schedule)
        replicas = replicated_scds(tensor, model44, k=2)
        rep = replay_with_recovery(
            trace, schedule, model, plan, tensor=tensor, replicas=replicas,
            policy=RecoveryPolicy(mode="replicate", checkpoint_interval=2),
        )
        assert rep.recoverable
        assert rep.sim.n_lost == 0
        assert rep.sim.accounts_for_all_fetches()

    def test_replica_serves_fetches_stuck_on_a_dead_center(self, run, model44):
        # with evacuation and rescheduling both off, data on the dead node
        # stay there, so alive requesters can only be served from replicas
        trace, schedule, model, tensor = run
        w = schedule.n_windows // 2
        # fail the node datum 0 *resides on* entering window w
        victim = int(schedule.centers[0, w - 1])
        plan = FaultPlan(node_faults=(NodeFault(victim, start=w),))
        replicas = replicated_scds(tensor, model44, k=2)
        rep = replay_with_recovery(
            trace, schedule, model, plan, tensor=tensor, replicas=replicas,
            evacuate=False,
            policy=RecoveryPolicy(
                mode="replicate", checkpoint_interval=2, reschedule=False
            ),
        )
        degrade = replay_with_recovery(
            trace, schedule, model, plan, tensor=tensor, evacuate=False,
            policy=RecoveryPolicy(
                mode="degrade", checkpoint_interval=2, reschedule=False
            ),
        )
        assert rep.n_replica_served > 0
        assert rep.sim.n_unreachable < degrade.sim.n_unreachable
        assert rep.sim.accounts_for_all_fetches()

    def test_requires_replicas(self, run):
        trace, schedule, model, tensor = run
        with pytest.raises(FaultConfigError, match=r"\[FLT008\]"):
            replay_with_recovery(
                trace, schedule, model, FaultPlan(), tensor=tensor,
                policy=RecoveryPolicy(mode="replicate"),
            )


class TestStrictMode:
    def test_budget_exhaustion_raises(self, run):
        trace, schedule, model, tensor = run
        plan, _, _ = mid_fault_plan(schedule)
        with pytest.raises(RecoveryError, match="budget") as err:
            replay_with_recovery(
                trace, schedule, model, plan, tensor=tensor,
                policy=RecoveryPolicy(
                    mode="strict", checkpoint_interval=2, max_recoveries=0
                ),
            )
        assert err.value.report is not None

    def test_unreachable_raises(self, run):
        trace, schedule, model, tensor = run
        plan, w, victim = mid_fault_plan(schedule)
        # rescheduling off: the dead requester's own fetches are
        # unreachable no matter what, so strict must fail fast
        with pytest.raises(RecoveryError, match="unreachable|stranded"):
            replay_with_recovery(
                trace, schedule, model, plan, tensor=tensor,
                policy=RecoveryPolicy(
                    mode="strict", checkpoint_interval=2, reschedule=False
                ),
            )

    def test_clean_run_passes(self, run):
        trace, schedule, model, tensor = run
        rep = replay_with_recovery(
            trace, schedule, model, FaultPlan(), tensor=tensor,
            policy=RecoveryPolicy(mode="strict", checkpoint_interval=2),
        )
        assert rep.data_preserved


class TestConstruction:
    def test_reschedule_requires_tensor(self, run):
        trace, schedule, model, _ = run
        with pytest.raises(FaultConfigError, match="reference tensor"):
            RecoveryController(trace, schedule, model, FaultPlan())

    def test_report_round_trips_through_json(self, run):
        import json

        trace, schedule, model, tensor = run
        plan, _, _ = mid_fault_plan(schedule)
        rep = replay_with_recovery(
            trace, schedule, model, plan, tensor=tensor,
            policy=RecoveryPolicy(mode="degrade", checkpoint_interval=2),
        )
        d = rep.to_dict()
        assert d["kind"] == "recovery_report"
        assert json.loads(json.dumps(d)) == d
        assert "summary" not in d  # summary() is a rendering, not a field
        assert rep.summary().startswith("recovery[degrade]")
