"""The explicit cost-graph of Algorithm 2, as a networkx DAG.

This is the paper's construction verbatim: vertices ``s``, ``d`` and
``(i, j)`` for the *j*-th processor of execution window *i*; edges

* ``s -> (0, j)``   weighted by the reference cost of window 0 at ``j``,
* ``(i, j) -> (i+1, k)`` weighted by the movement cost ``j -> k`` plus the
  reference cost of window ``i+1`` at ``k``,
* ``(n-1, j) -> d`` with weight zero,

so that the shortest ``s -> d`` path spells the globally optimal center
sequence.  The vectorized DP in :mod:`repro.core.gomcds` computes the same
answer in :math:`O(W m^2)` without materializing the graph; this module
is the test suite's readable reference implementation and
differential-testing oracle (tests assert both agree on every instance).
It is the only user of networkx, a test-only dependency.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.core import CostModel
from repro.trace import ReferenceTensor

__all__ = [
    "SOURCE",
    "SINK",
    "build_cost_graph",
    "solve_cost_graph",
    "gomcds_via_graph",
]

SOURCE = "s"
SINK = "d"


def build_cost_graph(
    window_costs: np.ndarray,
    move_costs: np.ndarray,
    allowed: np.ndarray | None = None,
) -> nx.DiGraph:
    """Materialize the per-datum cost-graph.

    Parameters mirror :func:`repro.core.gomcds.shortest_center_path`;
    disallowed (full) cells are simply omitted from the graph.
    """
    n_windows, n_procs = window_costs.shape
    if move_costs.shape != (n_procs, n_procs):
        raise ValueError("move_costs must be (n_procs, n_procs)")
    if allowed is None:
        allowed = np.ones((n_windows, n_procs), dtype=bool)
    graph = nx.DiGraph()
    graph.add_node(SOURCE)
    graph.add_node(SINK)
    for j in range(n_procs):
        if allowed[0, j]:
            graph.add_edge(SOURCE, (0, j), weight=float(window_costs[0, j]))
    for i in range(n_windows - 1):
        for j in range(n_procs):
            if not allowed[i, j]:
                continue
            for k in range(n_procs):
                if not allowed[i + 1, k]:
                    continue
                weight = float(move_costs[j, k]) + float(window_costs[i + 1, k])
                graph.add_edge((i, j), (i + 1, k), weight=weight)
    for j in range(n_procs):
        if allowed[n_windows - 1, j]:
            graph.add_edge((n_windows - 1, j), SINK, weight=0.0)
    return graph


def solve_cost_graph(graph: nx.DiGraph, n_windows: int) -> tuple[np.ndarray, float]:
    """Shortest ``s -> d`` path of a cost-graph as a center sequence.

    Returns the ``(n_windows,)`` pid path and its total weight.  Raises
    ``networkx.NetworkXNoPath`` when the memory constraint disconnected
    the graph.
    """
    length, node_path = nx.single_source_dijkstra(graph, SOURCE, SINK, weight="weight")
    inner = node_path[1:-1]
    if len(inner) != n_windows:
        raise ValueError("path does not traverse one node per window")
    centers = np.array([proc for _w, proc in inner], dtype=np.int64)
    return centers, float(length)


def gomcds_via_graph(
    tensor: ReferenceTensor, model: CostModel, d: int
) -> tuple[np.ndarray, float]:
    """Unconstrained Algorithm 2 for datum ``d`` through the literal DAG.

    Volume-free, like the schedulers: edge weights are hop counts.
    """
    window_costs = tensor.for_data(d) @ model.distances
    graph = build_cost_graph(window_costs, model.distances)
    return solve_cost_graph(graph, tensor.n_windows)
