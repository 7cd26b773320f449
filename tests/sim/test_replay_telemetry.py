"""Pin the telemetry a replay emits: span names and attribute keys,
counter and histogram names, in emission order.

Exporters, the profile report and the no-op overhead gate read these
names, so a refactor of the replay loop must leave them exactly as they
are."""

import pytest

import repro
from repro.analysis.regression import _END_COUNTERS
from repro.faults import (
    FaultPlan,
    LinkFault,
    NodeFault,
    RecoveryPolicy,
    replay_with_recovery,
)
from repro.obs import Instrumentation
from repro.sim import replay_schedule

MIXED_PLAN = FaultPlan(
    node_faults=(NodeFault(pid=5, start=2),),
    link_faults=(LinkFault(src=1, dst=2, start=1),),
    drop_rate=0.05,
    seed=3,
)

REPLAY_KEYS = ("n_windows", "n_steps", "method", "faults")

PLAIN = {
    "window_keys": ("window", "fetches", "local", "hops", "cost"),
    "counters": [
        "sim.fetches",
        "sim.local_fetches",
        "sim.moves",
        "sim.movement_volume",
    ],
    "histograms": ["sim.window_hops", "sim.window_cost"],
}

FAULTED = {
    "window_keys": ("window", "fetches", "delivered", "down_nodes", "cost"),
    "counters": [
        "sim.fetches",
        "sim.moves",
        "faults.delivered",
        "faults.retries",
        "faults.dropped",
        "faults.unreachable",
        "faults.evacuated",
        "faults.lost",
        "faults.skipped_moves",
    ],
    "histograms": ["sim.window_cost", "sim.window_delivered"],
}


@pytest.fixture
def run(mesh44, model44):
    wl = repro.benchmark(1, 8, mesh44)
    tensor = wl.reference_tensor()
    sched = repro.schedule(tensor, model44, algorithm="gomcds")
    return wl.trace, tensor, sched, model44


def _replay_telemetry(run, faults):
    trace, _, sched, model = run
    instr = Instrumentation.started()
    replay_schedule(trace, sched, model, faults=faults, instrument=instr)
    return instr


@pytest.mark.parametrize(
    ("faults", "expected"),
    [(None, PLAIN), (MIXED_PLAN, FAULTED)],
    ids=["fault-free", "faulted"],
)
def test_replay_telemetry_is_pinned(run, faults, expected):
    instr = _replay_telemetry(run, faults)
    n_windows = run[2].n_windows
    spans = [(s.name, s.depth, tuple(s.attrs)) for s in instr.tracer.spans]
    assert spans == [("sim.replay", 0, REPLAY_KEYS)] + [
        ("sim.window", 1, expected["window_keys"])
    ] * n_windows
    assert [s.attrs["window"] for s in instr.tracer.spans[1:]] == list(
        range(n_windows)
    )
    assert instr.tracer.spans[0].attrs["faults"] is (faults is not None)
    assert list(instr.metrics.counters) == expected["counters"]
    assert list(instr.metrics.gauges) == []
    assert list(instr.metrics.histograms) == expected["histograms"]
    for name in expected["histograms"]:
        assert instr.metrics.histograms[name].count == n_windows


def test_end_counters_mirror_the_fault_free_replay(run):
    """The no-op overhead gate times exactly the counters a healthy
    replay emits."""
    instr = _replay_telemetry(run, None)
    assert list(_END_COUNTERS) == list(instr.metrics.counters)


@pytest.mark.parametrize("mode", ["strict", "degrade"])
def test_recovery_run_emits_no_replay_spans(run, mode):
    trace, tensor, sched, model = run
    instr = Instrumentation.started()
    replay_with_recovery(
        trace, sched, model, MIXED_PLAN, tensor=tensor,
        policy=RecoveryPolicy(mode=mode, checkpoint_interval=2),
        instrument=instr,
    )
    names = [s.name for s in instr.tracer.spans]
    assert names[0] == "recovery.run"
    assert "sim.replay" not in names
    assert "sim.window" not in names
    assert not any(name.startswith("sim.") for name in instr.metrics.counters)
