"""Checkpointed, window-stepping replay: the one per-window replay loop.

:class:`ReplayCursor` executes a schedule one window at a time.  It is
the only window loop in :mod:`repro.sim`: :func:`~repro.sim.replay_schedule`
steps a cursor to the end inside its telemetry spans, and the online
:class:`~repro.faults.online.RecoveryController` steps one with
checkpoints in between, because a fault only *discovered* mid-run needs
execution to rewind:

* ``step()`` executes the next window (``_serve_window_plain`` on a
  healthy array, ``_execute_faulted_window`` under a fault plan);
* ``snapshot()`` captures the full simulator state — machine residency,
  memory load and every :class:`~repro.sim.SimReport` accumulator — as
  an immutable :class:`Checkpoint` with a content digest;
* ``restore()`` rewinds to a checkpoint; a restore followed by a
  snapshot reproduces the digest exactly (the chaos campaign's
  round-trip invariant);
* ``rebind()`` swaps in a new schedule and/or fault plan mid-run, which
  is how the :class:`~repro.faults.online.RecoveryController` resumes on
  a rescheduled suffix after a rollback.

The cursor records no spans of its own: its callers own the
observability story, and span emission must never influence the report
(bit-identity again).
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from ..core import CostModel, Schedule
from ..faults import FaultInjector, FaultPlan, RetryPolicy
from ..grid import XYRouter
from ..obs import SpatialRecorder
from ..trace import Trace
from .machine import PIMArray
from .replay import (
    _check_inputs,
    _execute_faulted_window,
    _relocate_for_window,
    _serve_window_plain,
)
from .stats import SimReport

__all__ = ["Checkpoint", "ReplayCursor"]


@dataclass(frozen=True)
class Checkpoint:
    """Immutable snapshot of a replay at a window boundary.

    ``window`` is the next window the restored cursor will execute; the
    state is everything accumulated by windows ``0 .. window-1``.  The
    ``digest`` is a content hash of residency + report, so rollback
    fidelity is checkable without field-by-field comparison.
    """

    window: int
    locations: np.ndarray
    report: SimReport
    digest: str

    def to_dict(self) -> dict:
        """Serializable record (diagnostic artifact, not a restore path)."""
        return {
            "kind": "checkpoint",
            "window": self.window,
            "locations": [int(p) for p in self.locations],
            "digest": self.digest,
            "report": self.report.to_dict(),
        }


def _state_digest(window: int, locations: np.ndarray, report: SimReport) -> str:
    """Content hash of the complete replay state at a window boundary."""
    h = hashlib.sha256()
    h.update(str(window).encode())
    h.update(np.ascontiguousarray(locations).tobytes())
    h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


class ReplayCursor:
    """Window-stepping replay of a schedule with snapshot/rollback.

    Construction mirrors :func:`~repro.sim.replay_schedule`'s signature;
    ``faults`` here is the plan the cursor *injects* (for online runs:
    the faults discovered so far, not the full ground-truth plan).  An
    empty plan takes the vectorized fault-free path; any non-empty plan
    takes the degraded per-event path.
    """

    def __init__(
        self,
        trace: Trace,
        schedule: Schedule,
        model: CostModel,
        capacity=None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        evacuate: bool = True,
        track_links: bool = False,
        on_unreachable=None,
        on_stranded=None,
    ) -> None:
        _check_inputs(trace, schedule, model)
        self.trace = trace
        self.model = model
        self.capacity = capacity
        self.retry = retry or RetryPolicy()
        self.evacuate = evacuate
        self.track_links = track_links
        self.on_unreachable = on_unreachable
        self.on_stranded = on_stranded
        self.n_windows = schedule.n_windows

        self.machine = PIMArray(model.topology, capacity)
        self.machine.load_initial(schedule.initial_placement())
        self.report = SimReport(
            per_window_cost=np.zeros(self.n_windows),
            topology_shape=tuple(model.topology.shape),
        )
        self._events = schedule.windows.group(trace.steps)
        self.window = 0
        self._router = XYRouter(model.topology)
        self.schedule = schedule
        self.faults = FaultPlan()
        self.injector: FaultInjector | None = None
        self.rebind(schedule=schedule, faults=faults)

    # -- binding -------------------------------------------------------------

    def rebind(
        self,
        schedule: Schedule | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        """Swap the schedule and/or injected fault plan mid-run.

        The new schedule must cover the same trace/window horizon; past
        windows are history and are never re-validated.  Passing a fault
        plan replaces the injected set wholesale (the controller passes
        the full known-so-far plan each time, so window epochs stay
        consistent with ``newly_down`` accounting).
        """
        if schedule is not None:
            if schedule.n_windows != self.n_windows:
                raise ValueError("rebound schedule changes the window horizon")
            if schedule.n_data != self.trace.n_data:
                raise ValueError("rebound schedule changes the datum universe")
            self.schedule = schedule
        if faults is not None:
            self.faults = faults
            self.injector = (
                None
                if faults.is_empty
                else FaultInjector(faults, self.model.topology, self.n_windows)
            )

    # -- execution -----------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.window >= self.n_windows

    def window_events(self, w: int) -> np.ndarray:
        """Trace-event indices served by window ``w``."""
        return self._events[w]

    def step(
        self, *, spatial: SpatialRecorder | None = None, want_hops: bool = False
    ) -> float:
        """Execute the next window and advance the cursor.

        ``spatial`` additionally records the window's routed traffic.
        Returns the window's unweighted fetch hops when ``want_hops`` on
        a healthy array, else 0.0.
        """
        if self.done:
            raise RuntimeError("replay cursor already ran past the last window")
        w = self.window
        idx = self.window_events(w)
        hops = 0.0
        if self.injector is None:
            if w > 0:
                _relocate_for_window(
                    self.machine, self.schedule, self.model, w, self.report,
                    self._router, self.track_links, spatial,
                )
            hops = _serve_window_plain(
                self.machine, self.schedule, self.trace, self.model, w, idx,
                self.report, self._router, self.track_links, spatial, want_hops,
            )
            # a healthy array delivers everything; keeping the counter
            # current per window makes the accounting survive a mid-run
            # rebind onto the degraded path
            self.report.n_delivered = self.report.n_fetches
        else:
            _execute_faulted_window(
                self.machine, self.schedule, self.trace, self.model, w, idx,
                self.report, self.injector, self.retry, self.evacuate,
                self.track_links, spatial,
                on_unreachable=self.on_unreachable,
                on_stranded=self.on_stranded,
            )
        self.window = w + 1
        return hops

    def run(self) -> SimReport:
        """Step through every remaining window and finish."""
        while not self.done:
            self.step()
        return self.finish()

    def finish(self) -> SimReport:
        """The completed report (call after the last window)."""
        if not self.done:
            raise RuntimeError(
                f"replay incomplete: {self.window}/{self.n_windows} windows"
            )
        return self.report

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> Checkpoint:
        """Capture the full replay state at the current window boundary."""
        locations = self.machine.locations()
        report = copy.deepcopy(self.report)
        return Checkpoint(
            window=self.window,
            locations=locations,
            report=report,
            digest=_state_digest(self.window, locations, self.report),
        )

    def restore(self, checkpoint: Checkpoint) -> None:
        """Rewind to ``checkpoint``: residency, report and window index.

        The checkpoint's own arrays stay untouched (copies are installed),
        so one checkpoint can be restored any number of times.
        """
        self.machine.load_initial(checkpoint.locations)
        self.report = copy.deepcopy(checkpoint.report)
        self.window = checkpoint.window

    def state_digest(self) -> str:
        """Digest of the live state; equals ``snapshot().digest``."""
        return _state_digest(self.window, self.machine.locations(), self.report)
