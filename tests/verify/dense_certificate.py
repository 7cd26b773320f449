"""The certificate checker's dense oracle.

:func:`repro.verify.check_certificate` takes the ``min_j`` of dual
feasibility one mesh axis at a time over blocks of data.  This module
states both certificate conditions the literal way: one full float64
cost tensor with the recovery pin and the masks applied, and a
``(D, m, m)`` broadcast of ``pi[w-1, j] + Dist[j, k]`` per window.  It
reports ``VER006``/``VER007`` with the checker's messages, in its order
and under its per-code cap, so tests can compare whole diagnostics
lists.  It is test-only: the broadcast costs ``O(D * m**2)`` memory per
window.
"""

from __future__ import annotations

import numpy as np

from repro.diagnostics import VER006, VER007, Diagnostic, Severity
from repro.verify import certificate_of
from repro.verify.abstract import MAX_DIAGNOSTICS_PER_CHECK

__all__ = ["dense_certificate_diagnostics", "dense_lower"]


def dense_lower(potentials, costs, dist, w):
    """``(D, m)`` best incoming value of every cell of suffix window ``w``."""
    if w == 0:
        return costs[:, 0, :]
    return (potentials[:, w - 1, :, None] + dist).min(axis=1) + costs[:, w, :]


def dense_certificate_diagnostics(schedule, tensor, model) -> list[Diagnostic]:
    """VER006/VER007 for a well-formed certificate, the dense way."""
    cert = certificate_of(schedule)
    from_window = int(cert.get("from_window", 0))
    potentials = np.asarray(cert["potentials"], dtype=np.float64)
    totals = np.asarray(cert["totals"], dtype=np.float64)
    masks, placement = cert.get("masks"), cert.get("placement")

    costs = model.reference_costs(tensor)[:, from_window:, :].astype(
        np.float64
    )
    dist = model.distances.astype(np.float64)
    if placement is not None:
        costs[:, 0, :] += dist[placement, :]
    if masks is not None:
        costs[~np.asarray(masks, dtype=bool)] = np.inf

    found = []
    for w in range(potentials.shape[1]):
        lower = dense_lower(potentials, costs, dist, w)
        for d, p in zip(*np.nonzero(potentials[:, w, :] > lower)):
            found.append(
                Diagnostic(
                    code=VER006,
                    severity=Severity.ERROR,
                    message=(
                        f"certificate potential {potentials[d, w, p]:g} "
                        f"exceeds the best incoming value "
                        f"{lower[d, p]:g}; the potentials are "
                        "dual-infeasible and certify nothing"
                    ),
                    datum=int(d),
                    window=from_window + w,
                    processor=int(p),
                )
            )

    path = schedule.centers[:, from_window:]
    bound = potentials[:, -1, :].min(axis=1)
    gathered = np.take_along_axis(costs, path[:, :, None], axis=2)[:, :, 0]
    actual = gathered.sum(axis=1) + dist[path[:, :-1], path[:, 1:]].sum(axis=1)
    finite = np.isfinite(actual)

    def tight(data, message, hint=None):
        found.extend(
            Diagnostic(
                code=VER007,
                severity=Severity.ERROR,
                message=message(d),
                datum=int(d),
                hint=hint,
            )
            for d in data
        )

    tight(
        np.nonzero(~finite)[0],
        lambda d: (
            "schedule leaves the certificate's admissible "
            "(window, processor) region; the certified optimum "
            "does not cover this path"
        ),
    )
    tight(
        np.nonzero(finite & (actual != totals))[0],
        lambda d: (
            f"recomputed path cost {actual[d]:g} disagrees with "
            f"the certified total {totals[d]:g}"
        ),
    )
    tight(
        np.nonzero(finite & (actual > bound))[0],
        lambda d: (
            f"path cost {actual[d]:g} exceeds the certified "
            f"lower bound {bound[d]:g}; the center sequence is "
            "not proven optimal"
        ),
        hint="re-solve with gomcds (the schedule may have been "
        "edited after certification)",
    )
    tight(
        np.nonzero(totals < bound)[0],
        lambda d: (
            f"certified total {totals[d]:g} undercuts the "
            f"potentials' own bound {bound[d]:g} (tampered "
            "claim)"
        ),
    )

    kept, seen = [], {VER006: 0, VER007: 0}
    for diag in found:
        if seen[diag.code] < MAX_DIAGNOSTICS_PER_CHECK:
            seen[diag.code] += 1
            kept.append(diag)
    return kept
