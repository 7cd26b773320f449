"""The paper's communication-cost model (§2), vectorized.

One reference by processor ``p`` to datum ``d`` stored at center ``c``
costs ``dist(p, c) * volume(d)`` — the x-y-routing hop count weighted by
the transferred volume.  Moving datum ``d`` from center ``j`` to center
``k`` between windows costs ``dist(j, k) * volume(d)``.

Given the reference tensor ``R[d, w, p]`` the cost of storing datum ``d``
at *every* candidate center over *every* window is ``R_d @ Dist``.  The
hop metric is a sum of per-axis 1-D distances, so that product is built
from per-axis reference marginals in ``O(m * sum(n_a))`` per row instead
of ``O(m**2)``.  Volume scales a datum's reference and movement
terms alike, so it never changes which centers are optimal for that
datum: every per-datum pass solves on the exact int64 tensor
:meth:`CostModel.reference_costs` with plain :attr:`CostModel.distances`
for moves, and volumes enter only where cost is traded across data or
reported (:func:`repro.core.evaluate.per_datum_costs`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..grid import Topology, cached_distance_matrix
from ..trace import ReferenceTensor

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Distance metric + per-datum volumes for a scheduling instance.

    Parameters
    ----------
    topology:
        Processor array defining the hop metric.
    volumes:
        Optional ``(n_data,)`` positive transfer volumes; the paper's
        model ("each data transfer takes one time unit") is the default
        all-ones vector, represented as ``None``.
    """

    topology: Topology
    volumes: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.volumes is not None:
            vols = np.asarray(self.volumes, dtype=np.float64)
            if (
                vols.ndim != 1
                or len(vols) == 0
                or not np.isfinite(vols).all()
                or vols.min() <= 0
            ):
                raise ValueError("volumes must be a 1-D finite positive vector")
            object.__setattr__(self, "volumes", vols)

    @property
    def n_procs(self) -> int:
        return self.topology.n_procs

    @property
    def distances(self) -> np.ndarray:
        """Read-only ``(n, n)`` hop-distance matrix."""
        return cached_distance_matrix(self.topology)

    def volume(self, d: int) -> float:
        """Transfer volume of datum ``d`` (1 under the paper's model)."""
        if self.volumes is None:
            return 1.0
        return float(self.volumes[d])

    def volume_column(self, n_data: int) -> np.ndarray:
        """``(n_data,)`` float64 volumes; raises when the length disagrees."""
        if self.volumes is None:
            return np.ones(n_data)
        if len(self.volumes) != n_data:
            raise ValueError(
                f"cost model has {len(self.volumes)} volumes, tensor has "
                f"{n_data} data"
            )
        return self.volumes

    def reference_costs(self, tensor: ReferenceTensor) -> np.ndarray:
        """Volume-free ``(n_data, n_windows, n_procs)`` int64 cost tensor.

        Entry ``(d, w, c)`` is the hop count of window ``w``'s references
        to datum ``d`` if it sits at ``c`` — the one cost domain every
        scheduler and per-datum pass solves in.
        """
        if tensor.n_procs != self.n_procs:
            raise ValueError("reference tensor does not match the processor array")
        counts = tensor.counts.reshape(
            tensor.counts.shape[:2] + self.topology.shape
        )
        axes = list(range(counts.ndim))
        # the metric is a sum of per-axis distances, so the cost of a center
        # is a sum of per-axis terms: axis ``a``'s reference marginal times
        # that axis's 1-D metric, broadcast along the other axes
        costs = np.zeros((), dtype=np.int64)
        for a, metric in enumerate(self.topology.axis_distances(), start=2):
            marginal = np.einsum(counts, axes, [0, 1, a])  # (D, W, n_a)
            costs = costs[..., None] + (marginal @ metric).reshape(
                marginal.shape[:2] + (1,) * (a - 2) + metric.shape[1:]
            )
        return costs.reshape(tensor.counts.shape)
