"""Fault-model invariants (ISSUE acceptance properties).

Three properties pin the fault subsystem to the paper's fault-free
semantics:

1. a zero-fault plan reproduces the analytic cost *exactly* (the fault
   machinery is observationally absent when nothing fails);
2. evacuation never violates the :class:`~repro.mem.CapacityPlan` — no
   recovery move overfills a surviving memory;
3. a fault-aware route whose x-y path is untouched by faults is the x-y
   path itself, so its hop count equals the Manhattan (metric) distance.
"""

import numpy as np
import pytest

import repro
from repro.core import evaluate_schedule
from repro.faults import FaultPlan, NodeFault, plan_evacuation
from repro.grid import FaultAwareRouter, Mesh2D, XYRouter
from repro.sim import replay_schedule


# -- property 1: zero faults == analytic cost ---------------------------------


@pytest.mark.parametrize("algorithm", ["scds", "gomcds"])
def test_zero_fault_plan_reproduces_analytic_cost(
    algorithm, lu8, lu8_tensor, model44, paper_capacity
):
    schedule = repro.schedule(
        lu8_tensor, model44, algorithm=algorithm, capacity=paper_capacity
    )
    analytic = evaluate_schedule(schedule, lu8_tensor, model44)
    report = replay_schedule(
        lu8.trace, schedule, model44,
        capacity=paper_capacity, faults=FaultPlan(),
    )
    assert report.matches(analytic)
    assert report.total_cost == pytest.approx(analytic.total)
    assert report.n_delivered == report.n_fetches
    assert report.degraded_cost == report.total_cost  # no recovery overhead


def test_zero_fault_plan_bit_identical_to_no_plan(
    drift, model44, paper_capacity
):
    tensor = drift.reference_tensor()
    schedule = repro.schedule(
        tensor, model44, algorithm="gomcds", capacity=paper_capacity
    )
    a = replay_schedule(
        drift.trace, schedule, model44,
        capacity=paper_capacity, track_links=True,
    )
    b = replay_schedule(
        drift.trace, schedule, model44,
        capacity=paper_capacity, track_links=True, faults=FaultPlan(),
    )
    assert a.reference_cost == b.reference_cost
    assert a.movement_cost == b.movement_cost
    assert a.link_traffic == b.link_traffic
    assert np.array_equal(a.per_window_cost, b.per_window_cost)


# -- property 2: evacuation respects capacity ---------------------------------


def test_evacuation_never_violates_capacity_plan(mesh44):
    """Randomized: applying the planned moves never exceeds any capacity."""
    rng = np.random.default_rng(2024)
    distances = mesh44.distance_matrix()
    n_procs = mesh44.n_procs
    for trial in range(200):
        n_data = int(rng.integers(1, 24))
        capacities = rng.integers(1, 4, size=n_procs)
        # a consistent pre-failure state that itself respects capacity
        locations = np.empty(n_data, dtype=np.int64)
        load = np.zeros(n_procs, dtype=np.int64)
        slots = np.repeat(np.arange(n_procs), capacities)
        rng.shuffle(slots)
        for d, p in enumerate(slots[:n_data]):
            locations[d], load[p] = p, load[p] + 1
        if len(slots) < n_data:
            continue  # infeasible universe; nothing to test
        failed = set(
            int(p) for p in rng.choice(n_procs, size=rng.integers(1, 4), replace=False)
        )
        alive = np.ones(n_procs, dtype=bool)
        alive[list(failed)] = False
        moves, lost = plan_evacuation(
            locations, load, capacities, failed, alive, distances
        )
        new_load = load.copy()
        for m in moves:
            assert not alive[m.src] or m.src in failed
            assert alive[m.dst]
            new_load[m.src] -= 1
            new_load[m.dst] += 1
        assert (new_load[alive] <= capacities[alive]).all(), trial
        # every victim is either moved or reported lost, never silent
        victims = {d for d in range(n_data) if int(locations[d]) in failed}
        assert victims == {m.datum for m in moves} | set(lost)


def test_replayed_evacuation_respects_capacity(
    lu8, lu8_tensor, model44, paper_capacity
):
    """End to end: a degraded replay's machine never overfills memory.

    ``PIMArray`` raises on any capacity violation, so completing the
    replay *is* the assertion; we additionally check the accounting.
    """
    plan = FaultPlan(
        node_faults=(NodeFault(pid=5, start=1), NodeFault(pid=6, start=2)),
        seed=3,
    )
    schedule = repro.schedule(
        lu8_tensor, model44, algorithm="gomcds", capacity=paper_capacity
    )
    report = replay_schedule(
        lu8.trace, schedule, model44, capacity=paper_capacity, faults=plan
    )
    assert report.accounts_for_all_fetches()
    assert report.n_evacuated >= 0 and report.n_lost == 0


# -- property 3: untouched x-y routes keep the Manhattan length ---------------


def test_detoured_routes_manhattan_when_xy_survives():
    """For every (src, dst): if no fault lies on the x-y path, the
    fault-aware route *is* the x-y path and its hop count equals the
    metric distance."""
    topology = Mesh2D(4, 5)
    xy = XYRouter(topology)
    rng = np.random.default_rng(7)
    for trial in range(30):
        dead_nodes = set(
            int(p)
            for p in rng.choice(
                topology.n_procs, size=rng.integers(1, 5), replace=False
            )
        )
        links = [
            ((int(a), int(b)) if rng.random() < 0.5 else (int(b), int(a)))
            for a, b in zip(
                rng.choice(topology.n_procs, 3), rng.choice(topology.n_procs, 3)
            )
        ]
        dead_links = {
            (a, b) for a, b in links
            if a != b and topology.distance(a, b) == 1
        }
        router = FaultAwareRouter(
            topology, dead_nodes=dead_nodes, dead_links=dead_links
        )
        for src in topology.iter_pids():
            for dst in topology.iter_pids():
                if src in dead_nodes or dst in dead_nodes:
                    assert router.route(src, dst) is None
                    continue
                xy_path = xy.route(src, dst)
                touched = any(p in dead_nodes for p in xy_path) or any(
                    link in dead_links
                    for link in zip(xy_path[:-1], xy_path[1:])
                )
                if not touched:
                    assert router.route(src, dst) == xy_path
                    assert router.hop_count(src, dst) == topology.distance(
                        src, dst
                    ), (trial, src, dst)


def test_detours_never_shorter_than_manhattan(mesh44):
    router = FaultAwareRouter(mesh44, dead_nodes={5, 10})
    for src in mesh44.iter_pids():
        for dst in mesh44.iter_pids():
            hops = router.hop_count(src, dst)
            if hops is not None:
                assert hops >= mesh44.distance(src, dst)
