"""Execution windows: segmentation of a trace's steps.

"A sequence of parallel execution steps are grouped into an execution
window" (paper, §2).  A :class:`WindowSet` is an ordered partition of the
step axis ``[0, n_steps)`` into contiguous, non-empty intervals.  The
schedulers only see window indices; how windows are drawn (fixed step
count, loop-level markers, ...) is decided here.

Window *grouping* (paper's Algorithm 3) happens downstream of this module,
per datum, in ``repro.core.grouping``; this module also provides the
`merge` primitive it relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import Trace

__all__ = [
    "WindowSet",
    "windows_by_step_count",
    "windows_from_boundaries",
    "single_window",
    "window_per_step",
]


@dataclass(frozen=True)
class WindowSet:
    """An ordered partition of steps ``[0, n_steps)`` into windows.

    ``starts[i]`` is the first step of window ``i``; window ``i`` covers
    ``[starts[i], starts[i+1])`` with an implicit final bound ``n_steps``.
    """

    starts: np.ndarray
    n_steps: int

    def __post_init__(self) -> None:
        starts = np.asarray(self.starts, dtype=np.int64)
        object.__setattr__(self, "starts", starts)
        if self.n_steps < 1:
            raise ValueError(
                f"a WindowSet needs a positive step horizon, got "
                f"n_steps={self.n_steps}"
            )
        if starts.ndim != 1 or len(starts) == 0:
            raise ValueError("a WindowSet needs at least one window")
        if starts[0] != 0:
            raise ValueError(
                f"first window must start at step 0, got start "
                f"{int(starts[0])}; windows partition [0, n_steps) with no gap"
            )
        diffs = np.diff(starts)
        if np.any(diffs <= 0):
            i = int(np.argmax(diffs <= 0))
            raise ValueError(
                f"window starts must be strictly increasing: start[{i + 1}]="
                f"{int(starts[i + 1])} does not follow start[{i}]="
                f"{int(starts[i])} (an equal start would make window {i} empty)"
            )
        if starts[-1] >= self.n_steps:
            raise ValueError(
                f"last window would be empty: it starts at step "
                f"{int(starts[-1])} but the trace has only {self.n_steps} "
                f"steps (valid starts are 0..{self.n_steps - 1})"
            )

    @property
    def n_windows(self) -> int:
        return len(self.starts)

    def __len__(self) -> int:
        return self.n_windows

    def bounds(self, w: int) -> tuple[int, int]:
        """Half-open step interval ``[lo, hi)`` of window ``w``."""
        if not 0 <= w < self.n_windows:
            raise ValueError(f"window {w} out of range")
        lo = int(self.starts[w])
        hi = int(self.starts[w + 1]) if w + 1 < self.n_windows else self.n_steps
        return lo, hi

    def sizes(self) -> np.ndarray:
        """Number of steps in each window."""
        ends = np.append(self.starts[1:], self.n_steps)
        return ends - self.starts

    def window_of_steps(self) -> np.ndarray:
        """``(n_steps,)`` array mapping each step to its window index."""
        out = np.zeros(self.n_steps, dtype=np.int64)
        out[self.starts[1:]] = 1
        return np.cumsum(out)

    def assign(self, steps: np.ndarray) -> np.ndarray:
        """Window index of each step in ``steps`` (vectorized)."""
        return np.searchsorted(self.starts, np.asarray(steps), side="right") - 1

    def group(self, steps: np.ndarray) -> list[np.ndarray]:
        """Indices into ``steps`` served by each window, ascending.

        One stable argsort instead of a mask per window:
        ``group(steps)[w]`` equals ``np.nonzero(assign(steps) == w)[0]``.
        """
        event_windows = self.assign(steps)
        order = np.argsort(event_windows, kind="stable")
        bounds = np.searchsorted(
            event_windows[order], np.arange(self.n_windows + 1)
        )
        return [order[bounds[w] : bounds[w + 1]] for w in range(self.n_windows)]

    def merge(self, first: int, last: int) -> "WindowSet":
        """New WindowSet with windows ``first..last`` (inclusive) merged."""
        if not 0 <= first <= last < self.n_windows:
            raise ValueError(f"bad merge range [{first}, {last}]")
        keep = np.concatenate([self.starts[: first + 1], self.starts[last + 1 :]])
        return WindowSet(starts=keep, n_steps=self.n_steps)


def windows_by_step_count(trace_or_steps, steps_per_window: int) -> WindowSet:
    """Split a trace (or a step horizon) into fixed-size windows.

    The final window absorbs any remainder steps, matching the paper's
    informal treatment of trailing steps.
    """
    n_steps = (
        trace_or_steps.n_steps
        if isinstance(trace_or_steps, Trace)
        else int(trace_or_steps)
    )
    if steps_per_window < 1:
        raise ValueError(
            f"steps_per_window must be >= 1, got {steps_per_window}"
        )
    starts = np.arange(0, n_steps, steps_per_window, dtype=np.int64)
    # Fold a short trailing window into its predecessor to avoid windows
    # smaller than half the nominal size, unless it is the only window.
    if len(starts) > 1 and n_steps - starts[-1] < max(1, steps_per_window // 2):
        starts = starts[:-1]
    return WindowSet(starts=starts, n_steps=n_steps)


def windows_from_boundaries(boundaries, n_steps: int) -> WindowSet:
    """Build windows from explicit start steps (e.g. outer-loop markers).

    Boundaries are deduplicated and a leading 0 is supplied if missing;
    boundaries at or past ``n_steps`` are dropped.  Negative boundaries
    are rejected outright rather than silently folded into window 0.
    """
    starts = np.unique(np.asarray(list(boundaries), dtype=np.int64))
    if len(starts) and starts[0] < 0:
        bad = [int(b) for b in starts[starts < 0]]
        raise ValueError(
            f"window boundaries must be non-negative step indices, got {bad}"
        )
    if len(starts) == 0 or starts[0] != 0:
        starts = np.concatenate([[0], starts])
    starts = starts[starts < n_steps]
    return WindowSet(starts=starts, n_steps=n_steps)


def single_window(trace_or_steps) -> WindowSet:
    """One window spanning the whole execution (SCDS's view)."""
    n_steps = (
        trace_or_steps.n_steps
        if isinstance(trace_or_steps, Trace)
        else int(trace_or_steps)
    )
    return WindowSet(starts=np.zeros(1, dtype=np.int64), n_steps=n_steps)


def window_per_step(trace_or_steps) -> WindowSet:
    """The finest segmentation: every step its own window."""
    n_steps = (
        trace_or_steps.n_steps
        if isinstance(trace_or_steps, Trace)
        else int(trace_or_steps)
    )
    return WindowSet(starts=np.arange(n_steps, dtype=np.int64), n_steps=n_steps)
