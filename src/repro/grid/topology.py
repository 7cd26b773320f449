"""Processor-array topologies for the PIM machine model.

The paper assumes a 2-D grid of PIM nodes ("the processor array forms a
2-dimensional grid, where each processor has its own local memory") with
unit distance between adjacent processors.  This module provides that mesh,
plus a 1-D mesh (used by Lemma 1 of the paper) and a 2-D torus (an
extension for ablations).

Processors are identified two ways:

* a flat integer **pid** in ``range(n_procs)`` (row-major), used by all
  vectorized kernels, and
* a coordinate tuple ``(row, col)`` (``(x,)`` for 1-D), used in examples
  and reports to mirror the paper's ``processor (r, c)`` notation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["Topology", "Mesh1D", "Mesh2D", "Torus2D"]


class Topology:
    """Abstract base for processor-array topologies.

    Subclasses must define :attr:`shape` and :meth:`axis_distances`, the
    metric as one 1-D distance matrix per grid axis (x-y routing makes
    every hop count a sum of per-axis distances).  Everything else
    (pid/coordinate conversion, iteration, the full distance matrix,
    neighbor queries) is derived.
    """

    #: grid extents, e.g. ``(rows, cols)`` for a 2-D mesh.
    shape: tuple[int, ...]

    @property
    def n_procs(self) -> int:
        """Total number of processors in the array."""
        n = 1
        for extent in self.shape:
            n *= extent
        return n

    def __len__(self) -> int:
        return self.n_procs

    # -- pid <-> coordinates ------------------------------------------------

    def coords(self, pid: int) -> tuple[int, ...]:
        """Coordinates of processor ``pid`` (row-major unraveling)."""
        self._check_pid(pid)
        return tuple(int(c) for c in np.unravel_index(pid, self.shape))

    def pid(self, *coords: int) -> int:
        """Flat processor id for grid coordinates (row-major)."""
        if len(coords) != len(self.shape):
            raise ValueError(
                f"expected {len(self.shape)} coordinates, got {len(coords)}"
            )
        for c, extent in zip(coords, self.shape):
            if not 0 <= c < extent:
                raise ValueError(f"coordinate {coords} outside grid {self.shape}")
        return int(np.ravel_multi_index(coords, self.shape))

    def all_coords(self) -> np.ndarray:
        """``(n_procs, ndim)`` integer array: row ``p`` = coords of pid ``p``."""
        idx = np.indices(self.shape).reshape(len(self.shape), -1).T
        return np.ascontiguousarray(idx)

    def iter_pids(self) -> Iterator[int]:
        return iter(range(self.n_procs))

    def _check_pid(self, pid: int) -> None:
        if not 0 <= pid < self.n_procs:
            raise ValueError(f"pid {pid} outside array of {self.n_procs} processors")

    # -- metric --------------------------------------------------------------

    def axis_distances(self) -> tuple[np.ndarray, ...]:
        """Per-axis ``(extent, extent)`` int64 distance matrices.

        The hop distance between two processors is the sum over axes of
        ``axis_distances()[a][coord_a(p), coord_a(q)]``.
        """
        raise NotImplementedError

    def distance_matrix(self) -> np.ndarray:
        """``(n, n)`` int64 matrix of pairwise hop distances."""
        coords = self.all_coords()
        out = np.zeros((self.n_procs, self.n_procs), dtype=np.int64)
        for axis, metric in enumerate(self.axis_distances()):
            out += metric[coords[:, axis, None], coords[None, :, axis]]
        return out

    def distance(self, a: int, b: int) -> int:
        """Hop distance between processors ``a`` and ``b``."""
        self._check_pid(a)
        self._check_pid(b)
        return int(self.distance_matrix()[a, b])

    def neighbors(self, pid: int) -> list[int]:
        """Processors at distance exactly one from ``pid``, ascending."""
        dist = self.distance_matrix()[pid]
        return [int(q) for q in np.nonzero(dist == 1)[0]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(str(e) for e in self.shape)
        return f"{type(self).__name__}({dims})"


def _linear(extent: int, weight: int = 1) -> np.ndarray:
    """``weight * |i - j|`` over ``extent`` positions: one mesh axis."""
    ids = np.arange(extent, dtype=np.int64)
    return int(weight) * np.abs(ids[:, None] - ids[None, :])


def _validate_extents(*extents: int) -> None:
    for e in extents:
        if int(e) != e or e < 1:
            raise ValueError(f"grid extents must be positive integers, got {extents}")


@dataclass(frozen=True, repr=False)
class Mesh1D(Topology):
    """Linear processor array; the platform of the paper's Lemma 1."""

    n: int

    def __post_init__(self) -> None:
        _validate_extents(self.n)

    @property
    def shape(self) -> tuple[int, ...]:  # type: ignore[override]
        return (self.n,)

    def axis_distances(self) -> tuple[np.ndarray, ...]:
        return (_linear(self.n),)


@dataclass(frozen=True, repr=False)
class Mesh2D(Topology):
    """2-D mesh with Manhattan (x-y routing) distance — the paper's machine.

    The distance between processors ``(r1, c1)`` and ``(r2, c2)`` is
    ``|r1 - r2| + |c1 - c2|``: the hop count of a dimension-ordered route.
    """

    rows: int
    cols: int

    def __post_init__(self) -> None:
        _validate_extents(self.rows, self.cols)

    @property
    def shape(self) -> tuple[int, ...]:  # type: ignore[override]
        return (self.rows, self.cols)

    def axis_distances(self) -> tuple[np.ndarray, ...]:
        return (_linear(self.rows), _linear(self.cols))


@dataclass(frozen=True, repr=False)
class Torus2D(Topology):
    """2-D torus (wrap-around mesh); extension used in ablation studies.

    Per-dimension distance is ``min(d, extent - d)``.
    """

    rows: int
    cols: int

    def __post_init__(self) -> None:
        _validate_extents(self.rows, self.cols)

    @property
    def shape(self) -> tuple[int, ...]:  # type: ignore[override]
        return (self.rows, self.cols)

    def axis_distances(self) -> tuple[np.ndarray, ...]:
        def ring(extent: int) -> np.ndarray:
            diff = _linear(extent)
            return np.minimum(diff, extent - diff)

        return (ring(self.rows), ring(self.cols))
