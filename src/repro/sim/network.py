"""Cycle-stepped store-and-forward network simulation (extension).

:mod:`repro.sim.timing` *bounds* a window's communication time by its
worst link/endpoint load.  This module measures it: every transfer of a
window is expanded into unit-volume packets that traverse their x-y
route one link per cycle, with each directed link carrying at most one
packet per cycle (FIFO arbitration, deterministic round-robin over
senders).  The simulated drain time of a window is then an *achievable*
schedule of the wires, so

    ``max(link load, endpoint load)  <=  simulated cycles``

with equality when there is no path interference — the property the
test-suite asserts, closing the loop between the analytic bound and an
executable network.

This is deliberately a per-window batch model (all of a window's fetch
traffic is injected at once), matching the paper's phase-structured
execution, not a general NoC simulator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..core import CostModel, Schedule
from ..faults import FaultInjector, FaultPlan
from ..grid import XYRouter
from ..obs import Instrumentation, resolve
from ..trace import Trace
from .replay import _check_inputs, _spatial_recorder

__all__ = ["NetworkReport", "simulate_window_traffic", "simulate_schedule_network"]


@dataclass
class NetworkReport:
    """Measured drain times of each window's traffic phases."""

    fetch_cycles: np.ndarray  # (n_windows,)
    move_cycles: np.ndarray  # (n_windows,)
    total_packets: int
    #: packets that could not be injected at all under a fault plan
    #: (dead endpoint or partitioned mesh); zero in a fault-free run.
    n_undeliverable: int = 0

    @property
    def total_cycles(self) -> float:
        return float(self.fetch_cycles.sum() + self.move_cycles.sum())


def simulate_window_traffic(
    transfers: list[tuple[int, int, int]], router: XYRouter
) -> int:
    """Cycles to drain a batch of ``(src, dst, volume)`` transfers.

    Each transfer becomes ``volume`` unit packets following the x-y
    route; per cycle every directed link forwards at most one packet.
    Packets waiting for a link queue FIFO; ties between packets arriving
    in the same cycle break by transfer order (deterministic).
    Zero-hop transfers cost nothing.
    """
    # Per-packet state: remaining route (list of links).
    queues: dict[tuple[int, int], deque] = {}
    packets: list[list[tuple[int, int]]] = []
    for src, dst, volume in transfers:
        if src == dst or volume <= 0:
            continue
        route = router.links(src, dst)
        if route is None:  # fault-aware router: unreachable pair
            continue
        for _ in range(int(volume)):
            packets.append(list(route))
    if not packets:
        return 0

    # Enqueue every packet at its first link.
    for pid, route in enumerate(packets):
        queues.setdefault(route[0], deque()).append(pid)

    remaining = len(packets)
    progress = [0] * len(packets)  # next-link index per packet
    cycles = 0
    while remaining:
        cycles += 1
        # One packet per link per cycle; collect advancements first so a
        # packet cannot hop two links in one cycle.
        advancing: list[tuple[int, tuple[int, int] | None]] = []
        for link in list(queues.keys()):
            queue = queues[link]
            if not queue:
                continue
            pid = queue.popleft()
            progress[pid] += 1
            route = packets[pid]
            nxt = route[progress[pid]] if progress[pid] < len(route) else None
            advancing.append((pid, nxt))
        for pid, nxt in advancing:
            if nxt is None:
                remaining -= 1
            else:
                queues.setdefault(nxt, deque()).append(pid)
        # Drop empty queues so the loop stays proportional to active links.
        queues = {k: v for k, v in queues.items() if v}
    return cycles


def simulate_schedule_network(
    trace: Trace,
    schedule: Schedule,
    model: CostModel,
    faults: FaultPlan | None = None,
    instrument: Instrumentation | None = None,
) -> NetworkReport:
    """Drain every window's fetch and movement traffic through the wires.

    With a non-empty ``faults`` plan, packets route around dead nodes and
    severed links (detours lengthen drain times); transfers with a dead
    endpoint or no surviving route are counted as undeliverable instead
    of injected.  An empty plan is bit-identical to the fault-free path.

    When the resolved ``instrument`` session records spatial telemetry,
    the injected traffic is also recorded per link/per processor (label
    ``network:<method>``); per-window drain times land as timestamped
    histograms (``network.window_fetch_cycles`` / ``..._move_cycles``).
    """
    _check_inputs(trace, schedule, model)
    windows = schedule.windows
    faulty = faults is not None and not faults.is_empty
    injector = (
        FaultInjector(faults, model.topology, windows.n_windows) if faulty else None
    )
    obs = resolve(instrument)
    spatial, all_vols = _spatial_recorder(
        obs, schedule, model, label=f"network:{schedule.method}"
    )
    plain_router = XYRouter(model.topology)
    n_windows = windows.n_windows
    fetch_cycles = np.zeros(n_windows)
    move_cycles = np.zeros(n_windows)
    total_packets = 0
    n_undeliverable = 0

    with obs.span(
        "sim.network",
        n_windows=n_windows,
        method=schedule.method,
        faults=faulty,
    ):
        for w, idx in enumerate(windows.group(trace.steps)):
            router = injector.router(w) if injector is not None else plain_router
            transfers = []
            for p, d, c in zip(trace.procs[idx], trace.data[idx], trace.counts[idx]):
                center = int(schedule.centers[d, w])
                volume = int(round(c * model.volume(int(d))))
                if center == int(p) or volume <= 0:
                    continue
                if injector is not None and not router.reachable(center, int(p)):
                    n_undeliverable += volume
                    continue
                transfers.append((center, int(p), volume))
                total_packets += volume
            fetch_cycles[w] = simulate_window_traffic(transfers, router)

            moves = []
            if w > 0:
                prev, nxt = schedule.centers[:, w - 1], schedule.centers[:, w]
                for d in np.nonzero(prev != nxt)[0]:
                    volume = int(round(model.volume(int(d))))
                    src, dst = int(prev[d]), int(nxt[d])
                    if injector is not None and not router.reachable(src, dst):
                        n_undeliverable += volume
                        continue
                    moves.append((src, dst, volume))
                    total_packets += volume
                move_cycles[w] = simulate_window_traffic(moves, router)

            if spatial is not None:
                for src, dst, volume in transfers + moves:
                    links = router.links(src, dst)
                    if links:
                        spatial.record(w, links, float(volume))
                spatial.close_window(
                    w, obs.tracer.now_us(), schedule.centers[:, w], all_vols
                )
            if obs.enabled:
                obs.observe("network.window_fetch_cycles", float(fetch_cycles[w]))
                obs.observe("network.window_move_cycles", float(move_cycles[w]))
        obs.count("network.packets", total_packets)
        obs.count("network.undeliverable", n_undeliverable)
    if spatial is not None:
        obs.spatial.add(spatial.finish())

    return NetworkReport(
        fetch_cycles=fetch_cycles,
        move_cycles=move_cycles,
        total_packets=total_packets,
        n_undeliverable=n_undeliverable,
    )
