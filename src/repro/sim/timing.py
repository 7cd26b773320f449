"""Execution-time estimation (extension beyond the paper's metric).

The paper scores schedules by total hop x volume — a bandwidth-energy
proxy that ignores *when* transfers happen and *where* they collide.
This module adds a simple but honest per-window time estimate on top of
the replayed link traffic:

for each execution window,

    ``T_w = max_p(compute_p) + t_hop * (worst directed-link load)``

plus, before each window, a movement phase timed the same way from the
relocation traffic.  The compute term models perfectly parallel local
work; the communication term is the classic congestion bound — each
directed mesh link carries one volume unit per ``t_hop``, so the
busiest wire lower-bounds the drain time of the window's traffic.  The
cycle-stepped network simulation in :mod:`repro.sim.network` *measures*
that drain time and can only be slower (path interference, pipeline
fill); the test-suite asserts the bound relationship on random
instances.

This deliberately stays a *static* bound — no cycle-accurate queueing —
because the paper's design question (where data lives) only needs
relative timing, not absolute latency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import CostModel, Schedule
from ..grid import XYRouter
from ..trace import Trace
from .replay import _check_inputs

__all__ = ["TimingModel", "TimingReport", "estimate_execution_time"]


@dataclass(frozen=True)
class TimingModel:
    """Cost coefficients for the time estimate.

    ``t_compute``: time per local reference (issue + operate);
    ``t_hop``: time per unit volume crossing one link.
    """

    t_compute: float = 1.0
    t_hop: float = 1.0

    def __post_init__(self) -> None:
        if self.t_compute < 0 or self.t_hop < 0:
            raise ValueError("timing coefficients must be non-negative")


@dataclass
class TimingReport:
    """Per-window breakdown of the estimated execution time."""

    compute_time: np.ndarray  # (n_windows,)
    fetch_comm_time: np.ndarray  # (n_windows,)
    move_comm_time: np.ndarray  # (n_windows,) phase entering each window

    @property
    def per_window_total(self) -> np.ndarray:
        return self.compute_time + self.fetch_comm_time + self.move_comm_time

    @property
    def total(self) -> float:
        return float(self.per_window_total.sum())

    @property
    def comm_fraction(self) -> float:
        """Share of the estimate spent communicating (0 when idle)."""
        total = self.total
        if total == 0:
            return 0.0
        comm = float((self.fetch_comm_time + self.move_comm_time).sum())
        return comm / total


def _contention_bound(link_load: dict, t_hop: float) -> float:
    worst_link = max(link_load.values()) if link_load else 0.0
    return t_hop * worst_link


def estimate_execution_time(
    trace: Trace,
    schedule: Schedule,
    model: CostModel,
    timing: TimingModel | None = None,
) -> TimingReport:
    """Estimate the schedule's makespan window by window."""
    timing = timing or TimingModel()
    _check_inputs(trace, schedule, model)
    windows = schedule.windows
    router = XYRouter(model.topology)
    n_procs = model.n_procs
    n_windows = windows.n_windows
    compute = np.zeros(n_windows)
    fetch_comm = np.zeros(n_windows)
    move_comm = np.zeros(n_windows)

    vols = model.volume_column(schedule.n_data)[trace.data]

    for w, idx in enumerate(windows.group(trace.steps)):
        procs = trace.procs[idx]
        data = trace.data[idx]
        counts = trace.counts[idx]
        volumes = counts * vols[idx]
        centers = schedule.centers[data, w]

        work = np.zeros(n_procs)
        np.add.at(work, procs, counts)
        compute[w] = timing.t_compute * (work.max() if len(work) else 0.0)

        link_load: dict = {}
        remote = centers != procs
        for c, p, volume in zip(centers[remote], procs[remote], volumes[remote]):
            for link in router.links(int(c), int(p)):
                link_load[link] = link_load.get(link, 0.0) + float(volume)
        fetch_comm[w] = _contention_bound(link_load, timing.t_hop)

        if w > 0:
            prev = schedule.centers[:, w - 1]
            nxt = schedule.centers[:, w]
            moved = np.nonzero(prev != nxt)[0]
            link_load = {}
            for d in moved:
                volume = model.volume(int(d))
                src, dst = int(prev[d]), int(nxt[d])
                for link in router.links(src, dst):
                    link_load[link] = link_load.get(link, 0.0) + volume
            move_comm[w] = _contention_bound(link_load, timing.t_hop)

    return TimingReport(
        compute_time=compute,
        fetch_comm_time=fetch_comm,
        move_comm_time=move_comm,
    )
