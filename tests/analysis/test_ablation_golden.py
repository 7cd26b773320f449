"""Golden rows of the extension ablations (seed 1998, 4x4 mesh, size 16).

Each pass behind these rows solves in exact integer hops, so the rows
are exact: any change to a tie rule or a cost domain shows up here
before it reaches the tables in EXPERIMENTS.md.
"""

import numpy as np
import pytest

from repro import CostModel, Mesh2D, benchmark, schedule
from repro.analysis import (
    ablation_grouping_strategy,
    ablation_movement_budget,
    ablation_refinement,
    ablation_replication,
    ablation_static_optimality,
)
from repro.core import gomcds_budgeted


def _column(rows, key):
    return [row[key] for row in rows]


def test_movement_budget_frontier():
    rows = ablation_movement_budget()
    assert _column(rows, "budget") == [0, 1, 2, 4, 8]
    assert _column(rows, "total") == [3998, 3331, 1422, 1406, 1406]
    assert _column(rows, "moves") == [0, 232, 480, 494, 494]
    assert _column(rows, "reference") == [3998, 2728, 142, 126, 126]


def test_grouping_strategies():
    out = ablation_grouping_strategy()
    assert [
        out["LOMCDS (no grouping)"],
        out["greedy grouping"],
        out["optimal grouping"],
        out["GOMCDS bound"],
    ] == [1428, 1428, 1416, 1406]


def test_replication_costs():
    rows = ablation_replication()
    assert _column(rows, "replicated cost") == [3998, 148, 370, 432]


def test_refinement_rows():
    rows = ablation_refinement()
    assert _column(rows, "refined") == [3388, 1884, 1430]
    assert _column(rows, "swaps") == [152, 65, 9]


def test_static_optimality_rows():
    rows = ablation_static_optimality()
    assert _column(rows, "optimal static") == [3800, 3370, 3019]


@pytest.mark.parametrize("bench", [1, 2, 3, 4, 5])
def test_zero_budget_is_scds(bench):
    # fewest moves first: with no moves every datum keeps SCDS's
    # lowest-pid merged-window optimum
    topo = Mesh2D(4, 4)
    tensor = benchmark(bench, 16, topo, seed=1998).reference_tensor()
    model = CostModel(topo)
    static = gomcds_budgeted(tensor, model, 0)
    assert np.array_equal(
        static.centers, schedule(tensor, model, algorithm="scds").centers
    )
