"""Extended topologies: 3-D meshes and heterogeneous-link 2-D meshes.

Beyond the paper's planar grid:

* :class:`Mesh3D` — a stacked-die PIM array (layers x rows x cols) with
  dimension-ordered routing; the natural shape of later PIM proposals
  where DRAM dies stack above logic.
* :class:`WeightedMesh2D` — a planar mesh whose horizontal and vertical
  links have different per-hop costs (e.g. wide row buses vs. narrow
  column wires).  The *metric* is weighted Manhattan distance; the
  *adjacency* (and the x-y router's paths) are the ordinary mesh links.
  All schedulers consume only the per-axis metric, so they transparently
  optimize for the asymmetric wires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import Topology, _linear, _validate_extents

__all__ = ["Mesh3D", "WeightedMesh2D"]


@dataclass(frozen=True, repr=False)
class Mesh3D(Topology):
    """3-D mesh (layers x rows x cols) with Manhattan distance."""

    layers: int
    rows: int
    cols: int

    def __post_init__(self) -> None:
        _validate_extents(self.layers, self.rows, self.cols)

    @property
    def shape(self) -> tuple[int, ...]:  # type: ignore[override]
        return (self.layers, self.rows, self.cols)

    def axis_distances(self) -> tuple[np.ndarray, ...]:
        return (_linear(self.layers), _linear(self.rows), _linear(self.cols))


@dataclass(frozen=True, repr=False)
class WeightedMesh2D(Topology):
    """2-D mesh with per-axis link weights.

    ``dist((r1,c1),(r2,c2)) = row_weight*|r1-r2| + col_weight*|c1-c2|``.
    Weights must be positive integers so distances stay integral and
    zero-distance still implies identity.  :meth:`neighbors` returns the
    physically adjacent processors (one hop on either axis) regardless of
    weights.
    """

    rows: int
    cols: int
    row_weight: int = 1
    col_weight: int = 1

    def __post_init__(self) -> None:
        _validate_extents(self.rows, self.cols)
        for w in (self.row_weight, self.col_weight):
            if int(w) != w or w < 1:
                raise ValueError("link weights must be positive integers")

    @property
    def shape(self) -> tuple[int, ...]:  # type: ignore[override]
        return (self.rows, self.cols)

    def axis_distances(self) -> tuple[np.ndarray, ...]:
        return (
            _linear(self.rows, self.row_weight),
            _linear(self.cols, self.col_weight),
        )

    def neighbors(self, pid: int) -> list[int]:  # type: ignore[override]
        coords = self.all_coords()
        diff = np.abs(coords - coords[pid][None, :])
        adjacent = diff.sum(axis=1) == 1
        return [int(q) for q in np.nonzero(adjacent)[0]]
