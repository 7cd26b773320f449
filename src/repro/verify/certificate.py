"""Standalone checking of GOMCDS shortest-path optimality certificates.

GOMCDS reduces per-datum scheduling to a shortest ``s -> d`` path in a
layered cost-graph, so its forward DP value tables are shortest-path
*node potentials*.  A certificate attached by ``gomcds(...,
certify=True)`` (or the fault-aware reschedulers) therefore proves
optimality through two classical, solver-independent conditions:

* **dual feasibility** — ``pi[0, k] <= C[0, k]`` and
  ``pi[w, k] <= min_j(pi[w-1, j] + move[j, k]) + C[w, k]`` for every
  admissible cell, which makes ``min_k pi[W-1, k]`` a valid *lower
  bound* on any admissible center path's cost (``VER006`` on failure);
* **tightness** — the schedule's actual path cost, recomputed here from
  the reference tensor and the metric alone, equals the claimed total
  and does not exceed that lower bound, squeezing the path against the
  optimum (``VER007`` on failure).

Together the two conditions certify each datum's center sequence is a
minimum-cost path over its admissible ``(window, processor)`` cells —
no trust in the solver required, and any tampering with potentials,
totals or centers breaks one of them.

Certificates are version 2: potentials live in the solvers' volume-free
domain (hop counts, exact integers in float64), so the checker needs no
volumes and compares exactly.  Any other version is ``VER005``.

The ``min_j`` in the dual-feasibility condition runs as one min-plus
pass per mesh axis over :meth:`~repro.grid.Topology.axis_distances`,
``O(W * m * sum(n_a))`` per datum, over blocks of data whose size bounds
the temporaries.  Sums and mins of exact integers do not depend on their
order, so every bound equals the dense ``(m, m)`` minimum bit for bit.
The pass is this module's own rather than the solver's, so a kernel bug
cannot certify itself.

The theory cross-check (``VER011``) ties the certificate to the paper's
§4 structure: Lemma 1 / Theorem 2 argue via cost rows that are convex
and separable along the mesh axes, which
:func:`repro.theory.is_separable_convex` verifies on sampled rows.  A
violation does not invalidate the LP-duality proof above, but it means
the cost model left the regime the paper's monotonicity argument (and
the SCDS/LOMCDS heuristics) assume — worth a warning.  Topologies outside
the lemmas' scope (anything but :class:`~repro.grid.Mesh1D` and
:class:`~repro.grid.Mesh2D`) skip the cross-check.
"""

from __future__ import annotations

import numpy as np

from ..core import CostModel
from ..core.reschedule import alive_window_mask
from ..diagnostics import VER005, VER006, VER007, VER011, Diagnostic, Severity
from ..faults import FaultPlan
from ..grid import Mesh1D, Mesh2D
from ..theory import is_separable_convex
from ..trace import ReferenceTensor
from .abstract import MAX_DIAGNOSTICS_PER_CHECK, _emit

__all__ = ["check_certificate", "certificate_of"]

#: the certificate format this checker understands (volume-free potentials)
CERTIFICATE_VERSION = 2
#: cap on separable-convexity spot checks (rows are independent).
_THEORY_SAMPLE = 32
#: bytes of one per-axis pass temporary in the dual-feasibility check;
#: sets how many data each block carries
_BLOCK_BYTES = 1 << 22


def certificate_of(schedule) -> dict | None:
    """The schedule's attached certificate payload, if any."""
    cert = schedule.meta.get("certificate") if schedule.meta else None
    return cert if isinstance(cert, dict) else None


def _malformed(message: str, hint: str | None = None) -> list[Diagnostic]:
    return [
        Diagnostic(
            code=VER005,
            severity=Severity.ERROR,
            message=f"malformed certificate: {message}",
            hint=hint or "re-emit with gomcds(..., certify=True)",
        )
    ]


def check_certificate(
    schedule,
    tensor: ReferenceTensor,
    model: CostModel,
    faults: FaultPlan | None = None,
    *,
    require: bool = False,
    check_theory: bool = True,
) -> list[Diagnostic]:
    """Verify the schedule's optimality certificate against the inputs.

    Returns coded diagnostics: ``VER005`` for a missing (when
    ``require``) or structurally broken certificate, or for a tensor
    whose shape disagrees with the schedule and model, ``VER006`` for
    dual-infeasible potentials, ``VER007`` for a non-tight certificate
    (claimed total wrong, schedule outside its admissible region, or
    path cost above the certified lower bound), and ``VER011`` for
    theory cross-check warnings.  An empty list means every datum's
    center path is proven optimal.
    """
    cert = certificate_of(schedule)
    if cert is None:
        raw = schedule.meta.get("certificate") if schedule.meta else None
        if raw is not None:
            return _malformed(
                f"expected a mapping, got {type(raw).__name__}"
            )
        if not require:
            return []
        return [
            Diagnostic(
                code=VER005,
                severity=Severity.ERROR,
                message=(
                    "no optimality certificate attached to the schedule"
                ),
                hint="schedule with gomcds(..., certify=True) or "
                "reschedule_*(..., certify=True)",
            )
        ]

    if cert.get("kind") != "gomcds-potentials":
        return _malformed(f"unknown kind {cert.get('kind')!r}")
    if cert.get("version") != CERTIFICATE_VERSION:
        return _malformed(
            f"unsupported version {cert.get('version')!r}, expected "
            f"{CERTIFICATE_VERSION}"
        )

    n_data, n_windows = schedule.centers.shape
    n_procs = model.n_procs
    inputs = (tensor.n_data, tensor.n_windows, tensor.n_procs)
    if inputs != (n_data, n_windows, n_procs):
        return [
            Diagnostic(
                code=VER005,
                severity=Severity.ERROR,
                message=(
                    f"reference tensor has (data, windows, processors) = "
                    f"{inputs}, but the schedule and cost model need "
                    f"{(n_data, n_windows, n_procs)}"
                ),
                hint="check the schedule against the tensor and model it "
                "was solved on",
            )
        ]
    from_window = int(cert.get("from_window", 0))
    if not 0 <= from_window < n_windows:
        return _malformed(f"from_window {from_window} outside the horizon")
    n_suffix = n_windows - from_window

    potentials = cert.get("potentials")
    totals = cert.get("totals")
    if potentials is None or totals is None:
        return _malformed("potentials/totals missing")
    potentials = np.asarray(potentials, dtype=np.float64)
    totals = np.asarray(totals, dtype=np.float64)
    if potentials.shape != (n_data, n_suffix, n_procs):
        return _malformed(
            f"potentials have shape {potentials.shape}, expected "
            f"({n_data}, {n_suffix}, {n_procs})"
        )
    if totals.shape != (n_data,):
        return _malformed(f"totals have shape {totals.shape}")

    masks = cert.get("masks")
    if masks is not None:
        masks = np.asarray(masks, dtype=bool)
        if masks.shape != potentials.shape:
            return _malformed(f"masks have shape {masks.shape}")

    placement = cert.get("placement")
    if placement is not None:
        placement = np.asarray(placement, dtype=np.int64)
        if placement.shape != (n_data,):
            return _malformed(f"placement has shape {placement.shape}")
        if placement.size and (
            placement.min() < 0 or placement.max() >= n_procs
        ):
            return _malformed("placement names a pid outside the array")

    diagnostics: list[Diagnostic] = []

    if faults is not None and masks is not None:
        alive = alive_window_mask(faults, n_windows, n_procs)[from_window:]
        leaks = masks & ~alive[None, :, :]
        if leaks.any():
            d, w, p = (int(x[0]) for x in np.nonzero(leaks))
            return _malformed(
                f"admissible mask admits processor {p} in window "
                f"{from_window + w}, which the fault plan takes down "
                f"(first leak: datum {d})",
                hint="re-emit the certificate from "
                "reschedule_around_faults(..., certify=True)",
            )

    # -- rebuild the cost tensor independently of the solver ----------------
    # int64 and built once; each check lifts only the cells it reads to
    # float64, adding the recovery pin and masking inadmissible cells there
    costs = model.reference_costs(tensor)
    suffix = costs[:, from_window:]
    dist = model.distances
    _check_dual_feasibility(
        potentials, suffix, masks, placement, model.topology, dist,
        from_window, diagnostics,
    )
    _check_tightness(
        schedule.centers[:, from_window:], potentials, totals, suffix, masks,
        placement, dist, diagnostics,
    )
    if check_theory:
        _check_theory(costs, model.topology, from_window, diagnostics)
    return diagnostics


def _room(diagnostics, code) -> int:
    """How many more ``code`` diagnostics the per-check cap admits."""
    return max(
        0,
        MAX_DIAGNOSTICS_PER_CHECK
        - sum(1 for d in diagnostics if d.code == code),
    )


def _window_costs(costs, masks, placement, dist, rows, w):
    """``(B, m)`` float64 costs of suffix window ``w`` for a block of data.

    The recovery DP pins its first window to the rollback residency, and
    cells outside a datum's admissible mask cost ``inf``.
    """
    window = costs[rows, w].astype(np.float64)
    if w == 0 and placement is not None:
        window += dist[placement[rows]]
    if masks is not None:
        window[~masks[rows, w]] = np.inf
    return window


def _relax(values, topology, axes) -> np.ndarray:
    """``min_j values[:, j] + dist[j, k]`` for a ``(B, m)`` block.

    The hop metric is a sum of per-axis distances, so the min over all
    source pids splits into one 1-D min-plus pass per mesh axis (the
    separable distance transform): ``O(m * sum(n_a))`` per datum rather
    than ``O(m**2)``.  The block is laid out in grid shape with the data
    on the trailing axis, so every pass runs over contiguous rows; each
    pass spreads source axis ``a`` against a new target axis after it
    and reduces the source away.
    """
    grid = np.ascontiguousarray(values.T).reshape(topology.shape + (-1,))
    for a, metric in enumerate(axes):
        tail = (1,) * (grid.ndim - a - 1)
        grid = np.min(
            np.expand_dims(grid, a + 1) + metric.reshape(metric.shape + tail),
            axis=a,
        )
    return grid.reshape(topology.n_procs, -1).T


def _check_dual_feasibility(
    potentials, costs, masks, placement, topology, dist, from_window,
    diagnostics,
):
    """VER006: ``pi`` must never exceed the best incoming value.

    Windows outer and blocks of data inner, so diagnostics come out in
    ``(window, datum, processor)`` order; the walk stops once the cap is
    full, since later cells could only be dropped.
    """
    n_data, n_suffix, n_procs = potentials.shape
    axes = tuple(a.astype(np.float64) for a in topology.axis_distances())
    block = max(1, _BLOCK_BYTES // (8 * n_procs * max(map(len, axes))))
    room = _room(diagnostics, VER006)
    for w in range(n_suffix):
        for start in range(0, n_data, block):
            if not room:
                return
            rows = slice(start, start + block)
            lower = _window_costs(costs, masks, placement, dist, rows, w)
            if w > 0:
                lower += _relax(potentials[rows, w - 1], topology, axes)
            ds, ps = np.nonzero(potentials[rows, w] > lower)
            for d, p in zip(ds[:room], ps[:room]):
                diagnostics.append(
                    Diagnostic(
                        code=VER006,
                        severity=Severity.ERROR,
                        message=(
                            "certificate potential "
                            f"{potentials[start + d, w, p]:g} exceeds the "
                            f"best incoming value {lower[d, p]:g}; the "
                            "potentials are dual-infeasible and certify "
                            "nothing"
                        ),
                        datum=start + int(d),
                        window=from_window + w,
                        processor=int(p),
                    )
                )
                room -= 1


def _check_tightness(
    path, potentials, totals, costs, masks, placement, dist, diagnostics
):
    """VER007: recomputed path cost == claimed total == certified bound."""
    bound = potentials[:, -1, :].min(axis=1)

    cells = (np.arange(len(path))[:, None], np.arange(path.shape[1]), path)
    gathered = costs[cells].astype(np.float64)
    if placement is not None:
        gathered[:, 0] += dist[placement, path[:, 0]]
    if masks is not None:
        gathered[~masks[cells]] = np.inf
    actual = gathered.sum(axis=1) + dist[path[:, :-1], path[:, 1:]].sum(axis=1)
    finite = np.isfinite(actual)

    def report(data, message, hint=None):
        for d in data[: _room(diagnostics, VER007)]:
            diagnostics.append(
                Diagnostic(
                    code=VER007,
                    severity=Severity.ERROR,
                    message=message(d),
                    datum=int(d),
                    hint=hint,
                )
            )

    report(
        np.nonzero(~finite)[0],
        lambda d: (
            "schedule leaves the certificate's admissible "
            "(window, processor) region; the certified optimum "
            "does not cover this path"
        ),
    )
    report(
        np.nonzero(finite & (actual != totals))[0],
        lambda d: (
            f"recomputed path cost {actual[d]:g} disagrees with "
            f"the certified total {totals[d]:g}"
        ),
    )
    report(
        np.nonzero(finite & (actual > bound))[0],
        lambda d: (
            f"path cost {actual[d]:g} exceeds the certified "
            f"lower bound {bound[d]:g}; the center sequence is "
            "not proven optimal"
        ),
        hint="re-solve with gomcds (the schedule may have been "
        "edited after certification)",
    )
    # a totals vector below its own potentials' bound is a forged claim
    report(
        np.nonzero(totals < bound)[0],
        lambda d: (
            f"certified total {totals[d]:g} undercuts the "
            f"potentials' own bound {bound[d]:g} (tampered "
            "claim)"
        ),
    )


def _check_theory(costs, topology, from_window, diagnostics):
    """VER011: sampled cost rows must satisfy the Lemma 1 preconditions.

    Lemma 1 / Theorem 2 speak of 1-D and 2-D meshes only; on any other
    topology there is nothing to cross-check.
    """
    if not isinstance(topology, (Mesh1D, Mesh2D)):
        return
    referenced = costs.sum(axis=2) > 0  # (D, W): rows with any cost mass
    checked = 0
    for d, w in zip(*np.nonzero(referenced)):
        if int(w) < from_window:
            continue
        if checked >= _THEORY_SAMPLE:
            return
        checked += 1
        if not is_separable_convex(costs[d, w], topology):
            _emit(
                diagnostics,
                Diagnostic(
                    code=VER011,
                    severity=Severity.WARNING,
                    message=(
                        "placement-cost row is not separable convex; the "
                        "certificate still proves optimality, but the "
                        "Lemma 1 / Theorem 2 monotonicity structure does "
                        "not hold for this cost model"
                    ),
                    datum=int(d),
                    window=int(w),
                ),
            )
            if (
                sum(1 for x in diagnostics if x.code == VER011)
                >= MAX_DIAGNOSTICS_PER_CHECK
            ):
                return
