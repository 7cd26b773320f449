"""End-to-end checks of the paper's headline claims (small sizes).

These are the claims EXPERIMENTS.md records, validated at 8x8/16x16 so
the suite stays fast; the full-size numbers come from the bench harness.
"""

import numpy as np
import pytest

import repro
from repro.analysis import run_table1, run_table2
from repro.core import CostModel, evaluate_schedule, grouped_schedule
from repro.distrib import baseline_schedule
from repro.grid import Mesh2D
from repro.mem import CapacityPlan
from repro.sim import replay_schedule
from repro.workloads import benchmark


@pytest.fixture(scope="module")
def table1():
    return run_table1(sizes=(8, 16), benchmarks=(1, 2, 3, 4, 5))


@pytest.fixture(scope="module")
def table2():
    return run_table2(sizes=(8, 16), benchmarks=(1, 2, 3, 4, 5))


class TestTable1Claims:
    def test_all_schemes_beat_sf_on_average(self, table1):
        """'All of the proposed schemes give significant improvement
        compared with the straight forward data distribution.'"""
        for name in ("SCDS", "LOMCDS", "GOMCDS"):
            assert table1.average_improvement(name) > 5.0

    def test_gomcds_is_best_on_average(self, table1):
        """'the performance of GOMCDS is the best'"""
        assert table1.best_scheduler() == "GOMCDS"

    def test_lomcds_outperforms_scds_on_average(self, table1):
        """'LOMCDS outperforms SCDS' (on average)."""
        assert table1.average_improvement("LOMCDS") > table1.average_improvement(
            "SCDS"
        )

    def test_movement_helps_most_on_complex_patterns(self, table1):
        """'considering the data movement can be more effective especially
        for the benchmarks with complicate data reference patterns' —
        the movement advantage (GOMCDS vs SCDS) is larger on the combined
        benchmarks (3-5) than on the simple ones (1-2)."""

        def movement_edge(rows):
            return np.mean(
                [
                    r.result_for("GOMCDS").improvement
                    - r.result_for("SCDS").improvement
                    for r in rows
                ]
            )

        simple = [r for r in table1.rows if r.benchmark in (1, 2)]
        complex_ = [r for r in table1.rows if r.benchmark in (3, 4, 5)]
        assert movement_edge(complex_) > movement_edge(simple)

    def test_improvement_magnitude_band(self, table1):
        """The paper reports average improvements 'up to 30%'; our
        substituted CODE kernel lands in the same band or above, and the
        shape (GOMCDS ~tens of percent) must hold."""
        avg = table1.average_improvement("GOMCDS")
        assert 20.0 <= avg <= 70.0

    def test_gomcds_never_worse_than_scds_rowwise(self, table1):
        for row in table1.rows:
            assert row.result_for("GOMCDS").cost <= row.result_for("SCDS").cost


class TestTable2Claims:
    def test_grouping_further_improves(self, table1, table2):
        """'the performance is further improved by applying the grouping
        algorithm' — LOMCDS after grouping beats LOMCDS before, on
        average."""
        before = table1.average_improvement("LOMCDS")
        after = table2.average_improvement("LOMCDS")
        assert after >= before

    def test_grouping_never_hurts_lomcds_unconstrained(self):
        """Per-row the guarantee only holds without a memory constraint:
        Algorithm 3 accepts a merge only when the (unconstrained) cost does
        not increase.  Under capacity pressure individual rows may regress
        (the grouped placement displaces differently); the tables' claim is
        the average, checked above."""
        for bench in (1, 2, 5):
            topo = Mesh2D(4, 4)
            wl = benchmark(bench, 8, topo)
            tensor = wl.reference_tensor()
            model = CostModel(topo)
            plain = evaluate_schedule(
                repro.schedule(tensor, model, algorithm="lomcds"), tensor, model
            ).total
            grouped = evaluate_schedule(
                grouped_schedule(tensor, model, center_method="local"),
                tensor,
                model,
            ).total
            assert grouped <= plain


class TestFullStackConsistency:
    @pytest.mark.parametrize("bench", [1, 2, 5])
    def test_replay_matches_analytic_under_capacity(self, bench):
        """Scheduler -> allocator -> evaluator -> machine -> router all
        agree: the replayed cost of every scheduler equals the analytic
        objective, and the machine accepts the allocator's decisions."""
        topo = Mesh2D(4, 4)
        wl = benchmark(bench, 8, topo)
        tensor = wl.reference_tensor()
        model = CostModel(topo)
        cap = CapacityPlan.paper_rule(wl.n_data, topo.n_procs)
        schedules = [
            repro.schedule(tensor, model, algorithm=name, capacity=cap)
            for name in ("scds", "lomcds", "gomcds")
        ] + [grouped_schedule(tensor, model, cap)]
        for schedule in schedules:
            analytic = evaluate_schedule(schedule, tensor, model)
            report = replay_schedule(wl.trace, schedule, model, capacity=cap)
            assert report.matches(analytic), schedule.method

    def test_baseline_replay_matches(self):
        topo = Mesh2D(4, 4)
        wl = benchmark(3, 8, topo)
        tensor = wl.reference_tensor()
        model = CostModel(topo)
        schedule = baseline_schedule(wl, "row_wise")
        analytic = evaluate_schedule(schedule, tensor, model)
        report = replay_schedule(wl.trace, schedule, model)
        assert report.matches(analytic)

    def test_capacity_binds_but_stays_feasible(self):
        """At the paper's 2x rule the allocator must produce schedules the
        strict machine accepts, even when first choices collide."""
        topo = Mesh2D(4, 4)
        wl = benchmark(5, 8, topo)
        tensor = wl.reference_tensor()
        model = CostModel(topo)
        tight = CapacityPlan.paper_rule(wl.n_data, topo.n_procs, multiplier=1.0)
        schedule = repro.schedule(tensor, model, algorithm="gomcds", capacity=tight)
        occ = schedule.occupancy(topo.n_procs)
        assert (occ <= tight.capacities[None, :]).all()
        assert occ.max() == tight.capacities.max()  # the constraint binds
        replay_schedule(wl.trace, schedule, model, capacity=tight)
