"""Replay a schedule over a trace, hop by hop.

The analytic evaluator (:mod:`repro.core.evaluate`) computes the paper's
objective from the distance matrix; this driver *executes* the schedule
on a :class:`~repro.sim.machine.PIMArray`: data are loaded at their
initial centers, relocated through the x-y router at every window
boundary, and every reference is serviced by a fetch message routed from
the datum's center to the referencing processor.

Because the metric is hop-additive and x-y routes realize the metric
distance, the replayed cost must equal the analytic cost *exactly* —
an end-to-end differential test of the whole stack (scheduler, allocator,
evaluator, router), enforced by the integration tests.

With ``track_links=True`` the report also carries per-link traffic, which
the paper's metric abstracts away (total volume per directed mesh link,
max link load) — used by the congestion extension bench.

With a non-empty :class:`~repro.faults.FaultPlan` the replay degrades
gracefully instead of crashing (see ``docs/fault-model.md``): residents
of a failed node are evacuated to surviving memories (charged to the
cost model), fetches are routed around dead links/nodes, transiently
dropped fetches are retried with exponential backoff up to a retry
budget, and every reference is accounted as delivered, dropped or
unreachable in the :class:`~repro.sim.SimReport`.  An *empty* plan takes
the exact fault-free code path, bit for bit.

:func:`replay_schedule` owns the telemetry of a replay; the windows
themselves are executed by :meth:`~repro.sim.checkpoint.ReplayCursor.step`,
the one per-window loop of this package, through the helpers below.
"""

from __future__ import annotations

import numpy as np

from ..core import CostModel, Schedule
from ..faults import FaultInjector, FaultPlan, RetryPolicy, plan_evacuation
from ..grid import FaultAwareRouter, XYRouter
from ..mem import CapacityError, CapacityPlan
from ..obs import Instrumentation, SpatialRecorder, resolve
from ..trace import Trace
from .machine import PIMArray, ResidencyError
from .stats import SimReport

__all__ = ["replay_schedule"]

#: End-of-run counters of a healthy and of a degraded replay, in
#: emission order, with the :class:`SimReport` field each one reports.
_PLAIN_COUNTERS = (
    ("sim.fetches", "n_fetches"),
    ("sim.local_fetches", "n_local_fetches"),
    ("sim.moves", "n_moves"),
    ("sim.movement_volume", "movement_cost"),
)
_FAULT_COUNTERS = (
    ("sim.fetches", "n_fetches"),
    ("sim.moves", "n_moves"),
    ("faults.delivered", "n_delivered"),
    ("faults.retries", "n_retries"),
    ("faults.dropped", "n_dropped"),
    ("faults.unreachable", "n_unreachable"),
    ("faults.evacuated", "n_evacuated"),
    ("faults.lost", "n_lost"),
    ("faults.skipped_moves", "n_skipped_moves"),
)


def replay_schedule(
    trace: Trace,
    schedule: Schedule,
    model: CostModel,
    capacity: CapacityPlan | None = None,
    track_links: bool = False,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    evacuate: bool = True,
    instrument: Instrumentation | None = None,
) -> SimReport:
    """Execute ``schedule`` against ``trace`` and report observed costs.

    Parameters
    ----------
    trace:
        The access-event trace (its steps must span the schedule's
        windows).
    schedule:
        Per-datum, per-window centers to execute.
    model:
        Metric + per-datum volumes (must match the trace's array).
    capacity:
        When given, the machine enforces it at every instant; an
        over-committed schedule raises
        :class:`~repro.mem.CapacityError`.
    track_links:
        Route every transfer hop-by-hop and record per-link volumes
        (slower; off by default).
    faults:
        Optional :class:`~repro.faults.FaultPlan` to inject.  ``None`` or
        an empty plan replays the fault-free path unchanged.
    retry:
        Timeout/retry semantics for degraded fetches; defaults to
        :class:`~repro.faults.RetryPolicy`'s defaults.  Ignored without
        faults.
    evacuate:
        Whether a node failure triggers data evacuation to surviving
        memories.  With ``False`` the victims stay stranded and their
        references become unreachable (used to quantify what recovery
        buys).  Ignored without faults.
    instrument:
        Optional :class:`~repro.obs.Instrumentation`; defaults to the
        active (usually no-op) handle.  Tracing is strictly read-only —
        a fault-free replay is bit-identical with or without it.
    """
    from .checkpoint import ReplayCursor

    cursor = ReplayCursor(
        trace, schedule, model, capacity=capacity, faults=faults,
        retry=retry, evacuate=evacuate, track_links=track_links,
    )
    injector = cursor.injector
    obs = resolve(instrument)
    spatial, all_vols = _spatial_recorder(obs, schedule, model)
    report = cursor.report
    with obs.span(
        "sim.replay",
        n_windows=cursor.n_windows,
        n_steps=trace.n_steps,
        method=schedule.method,
        faults=injector is not None,
    ):
        while not cursor.done:
            w = cursor.window
            with obs.span("sim.window", window=w) as window_span:
                local_before = report.n_local_fetches
                delivered_before = report.n_delivered
                hops = cursor.step(spatial=spatial, want_hops=obs.enabled)
                if spatial is not None:
                    spatial.close_window(
                        w, obs.tracer.now_us(), cursor.machine.locations(), all_vols
                    )
                if not obs.enabled:
                    continue
                fetches = len(cursor.window_events(w))
                cost = float(report.per_window_cost[w])
                if injector is None:
                    obs.observe("sim.window_hops", hops)
                    obs.observe("sim.window_cost", cost)
                    window_span.set(
                        fetches=fetches,
                        local=report.n_local_fetches - local_before,
                        hops=hops,
                        cost=cost,
                    )
                else:
                    delivered = report.n_delivered - delivered_before
                    obs.observe("sim.window_cost", cost)
                    obs.observe("sim.window_delivered", delivered)
                    window_span.set(
                        fetches=fetches,
                        delivered=delivered,
                        down_nodes=len(injector.down_nodes(w)),
                        cost=cost,
                    )
        counters = _PLAIN_COUNTERS if injector is None else _FAULT_COUNTERS
        for name, attr in counters:
            obs.count(name, getattr(report, attr))
    if spatial is not None:
        obs.spatial.add(spatial.finish())
    return cursor.finish()


def _check_inputs(trace: Trace, schedule: Schedule, model: CostModel) -> None:
    """Reject a trace, schedule and cost model that describe different runs."""
    if schedule.windows.n_steps != trace.n_steps:
        raise ValueError("schedule windows do not span the trace")
    if trace.n_data != schedule.n_data:
        raise ValueError("schedule and trace disagree on n_data")
    if trace.n_procs != model.n_procs:
        raise ValueError("trace and cost model disagree on the array size")


def _spatial_recorder(obs, schedule, model, label: str | None = None):
    """A recorder (and per-datum volume vector) when the session asks for
    spatial telemetry; ``(None, None)`` on every uninstrumented path."""
    if not (obs.enabled and obs.spatial.recording):
        return None, None
    vols = model.volume_column(schedule.n_data)
    recorder = SpatialRecorder(
        model.topology,
        schedule.windows.n_windows,
        label=schedule.method if label is None else label,
    )
    return recorder, vols


def _serve_window_plain(
    machine: PIMArray,
    schedule: Schedule,
    trace: Trace,
    model: CostModel,
    w: int,
    idx: np.ndarray,
    report: SimReport,
    router: XYRouter,
    track_links: bool,
    spatial: SpatialRecorder | None = None,
    want_hops: bool = False,
) -> float:
    """Serve window ``w``'s fetches on a healthy array (vectorized).

    The single source of truth for fault-free fetch accounting.  Returns
    the window's unweighted fetch hops when ``want_hops`` (it exists for
    the observability probes and costs an extra vector pass), else 0.0.
    """
    dist = model.distances
    procs = trace.procs[idx]
    data = trace.data[idx]
    counts = trace.counts[idx]
    centers = machine.locations()[data]
    expected = schedule.centers[data, w]
    diverged = np.nonzero(centers != expected)[0]
    if len(diverged):
        i = int(diverged[0])
        raise ResidencyError(
            f"machine residency diverged from the schedule: datum "
            f"{int(data[i])} resides at {int(centers[i])}, "
            f"scheduled at {int(expected[i])}",
            datum=int(data[i]),
            claimed=int(expected[i]),
            actual=int(centers[i]),
            window=w,
        )
    vols = model.volume_column(schedule.n_data)[data]
    hop_costs = dist[centers, procs] * counts * vols
    report.reference_cost += float(hop_costs.sum())
    report.per_window_cost[w] += float(hop_costs.sum())
    report.n_fetches += int(len(idx))
    report.n_local_fetches += int((centers == procs).sum())
    if track_links or spatial is not None:
        for c, p, volume in zip(centers, procs, counts * vols):
            if c != p:
                links = router.links(int(c), int(p))
                if track_links:
                    report.add_link_traffic(links, float(volume))
                if spatial is not None:
                    spatial.record(w, links, float(volume))
    return float((dist[centers, procs] * counts).sum()) if want_hops else 0.0


def _relocate_for_window(
    machine: PIMArray,
    schedule: Schedule,
    model: CostModel,
    w: int,
    report: SimReport,
    router: XYRouter,
    track_links: bool,
    spatial: SpatialRecorder | None = None,
) -> None:
    """Perform all movements into window ``w`` and charge their cost."""
    prev_centers = schedule.centers[:, w - 1]
    next_centers = schedule.centers[:, w]
    moved = np.nonzero(prev_centers != next_centers)[0]
    dist = model.distances
    machine.relocate_batch(moved, next_centers[moved])
    for d in moved:
        src, dst = int(prev_centers[d]), int(next_centers[d])
        volume = model.volume(int(d))
        cost = float(dist[src, dst]) * volume
        report.movement_cost += cost
        report.per_window_cost[w] += cost
        report.n_moves += 1
        if track_links or spatial is not None:
            links = router.links(src, dst)
            if track_links:
                report.add_link_traffic(links, volume)
            if spatial is not None:
                spatial.record(w, links, volume)


# ---------------------------------------------------------------------------
# Degraded replay under a fault plan
# ---------------------------------------------------------------------------


def _execute_faulted_window(
    machine: PIMArray,
    schedule: Schedule,
    trace: Trace,
    model: CostModel,
    w: int,
    idx: np.ndarray,
    report: SimReport,
    injector: FaultInjector,
    retry: RetryPolicy,
    evacuate: bool,
    track_links: bool,
    spatial: SpatialRecorder | None = None,
    on_unreachable=None,
    on_stranded=None,
) -> None:
    """Execute one window of a degraded replay (evacuate, move, fetch).

    :meth:`~repro.sim.checkpoint.ReplayCursor.step` runs it for every
    window under a fault plan, so offline degraded replays and online
    recovery share one per-window accounting.  The two optional hooks
    are the seams the ``replicate`` recovery mode plugs into:

    * ``on_unreachable(w, event, datum, proc, volume, router, alive)``
      may serve a fetch whose primary center is unreachable from a
      replica copy; return ``True`` to suppress the unreachable record;
    * ``on_stranded(datum, src, w)`` may salvage a datum evacuation
      could not place; return ``True`` to suppress the loss record.
    """
    router = injector.router(w)
    alive = injector.alive_mask(w)

    newly_down = injector.newly_down(w)
    if newly_down:
        if evacuate:
            _evacuate_nodes(
                machine, schedule, model, injector, w, newly_down,
                report, track_links, spatial, on_stranded=on_stranded,
            )
        else:
            for pid in newly_down:
                report.n_lost += len(machine.residents(pid))

    if w > 0:
        _relocate_degraded(
            machine, schedule, model, w, alive, router, report,
            track_links, spatial,
        )

    locations = machine.locations()
    for i in idx:
        i = int(i)
        p = int(trace.procs[i])
        d = int(trace.data[i])
        volume = float(trace.counts[i]) * model.volume(d)
        center = int(locations[d])
        report.n_fetches += 1
        if not alive[p] or not alive[center]:
            if on_unreachable is None or not on_unreachable(
                w, i, d, p, volume, router, alive
            ):
                _record_unreachable(report, retry)
            continue
        route = router.route(center, p)
        if route is None:
            if on_unreachable is None or not on_unreachable(
                w, i, d, p, volume, router, alive
            ):
                _record_unreachable(report, retry)
            continue
        _attempt_fetch(
            report, retry, injector, w, i, route, volume,
            track_links, spatial,
        )


def _record_unreachable(report: SimReport, retry: RetryPolicy) -> None:
    """A reference whose center cannot be reached at all: the requester
    burns its full timeout/backoff budget, then gives up."""
    report.n_unreachable += 1
    report.n_retries += retry.max_retries
    report.retry_wait_cycles += retry.total_timeout_cycles()


def _attempt_fetch(
    report: SimReport,
    retry: RetryPolicy,
    injector: FaultInjector,
    window: int,
    event: int,
    route: list[int],
    volume: float,
    track_links: bool,
    spatial: SpatialRecorder | None = None,
) -> None:
    """Deliver one fetch over ``route``, retrying transient drops."""
    hops = len(route) - 1
    if hops == 0:
        # local memory access: no wire, nothing to drop
        report.n_local_fetches += 1
        report.n_delivered += 1
        return
    links = list(zip(route[:-1], route[1:]))
    for attempt in range(retry.max_attempts):
        dropped = injector.drops(window, event, attempt)
        if track_links:
            # the message occupies the wires whether or not it survives
            report.add_link_traffic(links, volume)
        if spatial is not None:
            spatial.record(window, links, volume)
        if not dropped:
            cost = hops * volume
            report.reference_cost += cost
            report.per_window_cost[window] += cost
            report.n_delivered += 1
            return
        report.retry_cost += hops * volume
        report.retry_wait_cycles += retry.wait_cycles(attempt)
        if attempt < retry.max_retries:
            report.n_retries += 1
    report.n_dropped += 1


def _evacuate_nodes(
    machine: PIMArray,
    schedule: Schedule,
    model: CostModel,
    injector: FaultInjector,
    w: int,
    newly_down: frozenset[int],
    report: SimReport,
    track_links: bool,
    spatial: SpatialRecorder | None = None,
    on_stranded=None,
) -> None:
    """Relocate every resident of the just-failed nodes to survivors.

    Victims go to their scheduled center for window ``w`` when it is
    alive with headroom, otherwise to the nearest surviving node with a
    free slot; relocation traffic is charged to ``evacuation_cost`` at
    the surviving-route hop count.  ``on_stranded(datum, src, w)`` may
    salvage a victim no survivor can hold (replica promotion); returning
    ``True`` suppresses the ``n_lost`` record.
    """
    capacities = None if machine.capacity is None else machine.capacity.capacities
    locations = machine.locations()
    moves, stranded = plan_evacuation(
        locations,
        machine.memory_load(),
        capacities,
        newly_down,
        injector.alive_mask(w),
        model.distances,
        preferred=schedule.centers[:, w],
    )
    for datum in stranded:
        if on_stranded is None or not on_stranded(
            int(datum), int(locations[datum]), w
        ):
            report.n_lost += 1
    for move in moves:
        router = injector.recovery_router(w, move.src)
        route = router.route(move.src, move.dst)
        if route is None:
            if on_stranded is None or not on_stranded(move.datum, move.src, w):
                report.n_lost += 1
            continue
        machine.relocate(move.datum, move.src, move.dst)
        volume = model.volume(move.datum)
        cost = (len(route) - 1) * volume
        report.evacuation_cost += cost
        report.per_window_cost[w] += cost
        report.n_evacuated += 1
        if track_links or spatial is not None:
            links = list(zip(route[:-1], route[1:]))
            if track_links:
                report.add_link_traffic(links, volume)
            if spatial is not None:
                spatial.record(w, links, volume)


def _relocate_degraded(
    machine: PIMArray,
    schedule: Schedule,
    model: CostModel,
    w: int,
    alive: np.ndarray,
    router: FaultAwareRouter,
    report: SimReport,
    track_links: bool,
    spatial: SpatialRecorder | None = None,
) -> None:
    """Scheduled movements into window ``w`` on a degraded array.

    A move is skipped — the datum stays put — when its source or target
    node is dead, when faults partition the mesh between them, or when
    the target memory is full (degraded relocation is sequential, so the
    fault-free batch-swap guarantee does not apply).
    """
    current = machine.locations()
    targets = schedule.centers[:, w]
    for d in np.nonzero(current != targets)[0]:
        d = int(d)
        src, dst = int(current[d]), int(targets[d])
        if not alive[src] or not alive[dst]:
            report.n_skipped_moves += 1
            continue
        route = router.route(src, dst)
        if route is None:
            report.n_skipped_moves += 1
            continue
        try:
            machine.relocate(d, src, dst)
        except CapacityError:
            report.n_skipped_moves += 1
            continue
        volume = model.volume(d)
        cost = (len(route) - 1) * volume
        report.movement_cost += cost
        report.per_window_cost[w] += cost
        report.n_moves += 1
        if track_links or spatial is not None:
            links = list(zip(route[:-1], route[1:]))
            if track_links:
                report.add_link_traffic(links, volume)
            if spatial is not None:
                spatial.record(w, links, volume)
