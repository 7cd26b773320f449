"""Loop-nest DSL tests."""

import pytest

from repro import schedule
from repro.workloads import (
    Loop,
    LoopNest,
    lu_workload,
    matrix_data_ids,
    row_wise_owners,
)


def lu_update_nest(n, topo):
    owners = row_wise_owners(n, n, topo)
    ids = matrix_data_ids(n, n)
    return LoopNest(
        name="lu-update-dsl",
        loops=[
            Loop("k", 0, n - 1),
            Loop("i", lambda ix: ix["k"] + 1, n, parallel=True),
            Loop("j", lambda ix: ix["k"] + 1, n, parallel=True),
        ],
        owner=lambda ix: owners[ix["i"], ix["j"]],
        refs=[
            lambda ix: ids[ix["i"], ix["j"]],
            lambda ix: ids[ix["i"], ix["k"]],
            lambda ix: ids[ix["k"], ix["j"]],
        ],
        window_loop="k",
        data_shape=(n, n),
    )


class TestExecution:
    def test_triangular_domain_counts(self, mesh44):
        n = 6
        inst = lu_update_nest(n, mesh44).generate(mesh44, n * n)
        expected = sum(3 * (n - k - 1) ** 2 for k in range(n - 1))
        assert inst.trace.total_references == expected

    def test_window_per_sequential_iteration(self, mesh44):
        n = 6
        inst = lu_update_nest(n, mesh44).generate(mesh44, n * n)
        assert inst.windows.n_windows == n - 1

    def test_matches_handwritten_lu_update_pattern(self, mesh44):
        """The DSL's update-phase tensor equals the handwritten LU's when
        the division refs are added alongside."""
        n = 6
        dsl = lu_update_nest(n, mesh44).generate(mesh44, n * n)
        hand = lu_workload(n, mesh44)
        # compare per-datum totals of the update subset: every handwritten
        # reference not in the division step
        division = sum(2 * (n - k - 1) for k in range(n - 1))
        assert (
            hand.trace.total_references
            == dsl.trace.total_references + division
        )

    def test_parallel_loops_share_a_step(self, mesh44):
        nest = LoopNest(
            name="flat",
            loops=[Loop("i", 0, 5, parallel=True)],
            owner=lambda ix: ix["i"] % 4,
            refs=[lambda ix: ix["i"]],
        )
        inst = nest.generate(mesh44, 5)
        assert inst.trace.n_steps == 1
        assert inst.windows.n_windows == 1

    def test_sequential_loop_advances_steps(self, mesh44):
        nest = LoopNest(
            name="seq",
            loops=[Loop("t", 0, 4)],
            owner=lambda ix: 0,
            refs=[lambda ix: ix["t"]],
        )
        inst = nest.generate(mesh44, 4)
        assert inst.trace.n_steps == 4
        assert inst.trace.steps.tolist() == [0, 1, 2, 3]

    def test_guarded_reference_skipped(self, mesh44):
        nest = LoopNest(
            name="guarded",
            loops=[Loop("i", 0, 6, parallel=True)],
            owner=lambda ix: 0,
            refs=[lambda ix: ix["i"] if ix["i"] % 2 == 0 else None],
        )
        inst = nest.generate(mesh44, 6)
        assert sorted(inst.trace.data.tolist()) == [0, 2, 4]

    def test_counted_reference(self, mesh44):
        nest = LoopNest(
            name="counted",
            loops=[Loop("i", 0, 3, parallel=True)],
            owner=lambda ix: 0,
            refs=[lambda ix: (ix["i"], 5)],
        )
        inst = nest.generate(mesh44, 3)
        assert inst.trace.total_references == 15

    def test_nonlinear_reference_function(self, mesh44):
        """The paper's selling point: arbitrary (non-affine) references."""
        nest = LoopNest(
            name="nonlinear",
            loops=[Loop("t", 0, 8), Loop("i", 0, 4, parallel=True)],
            owner=lambda ix: (ix["i"] * 5 + ix["t"]) % 16,
            refs=[lambda ix: (ix["i"] ** 2 + 3 * ix["t"]) % 20],
            window_loop="t",
        )
        inst = nest.generate(mesh44, 20)
        assert inst.windows.n_windows == 8
        assert inst.trace.total_references == 32

    def test_empty_iteration_space_yields_empty_trace(self, mesh44):
        nest = LoopNest(
            name="empty",
            loops=[Loop("i", 3, 3, parallel=True)],
            owner=lambda ix: 0,
            refs=[lambda ix: 0],
        )
        inst = nest.generate(mesh44, 1)
        assert inst.trace.total_references == 0


class TestSchedulingIntegration:
    def test_dsl_workload_feeds_schedulers(self, mesh44):
        from repro.core import CostModel, evaluate_schedule

        n = 8
        inst = lu_update_nest(n, mesh44).generate(mesh44, n * n)
        tensor = inst.reference_tensor()
        model = CostModel(mesh44)
        go = evaluate_schedule(
            schedule(tensor, model, algorithm="gomcds"), tensor, model
        ).total
        sc = evaluate_schedule(
            schedule(tensor, model, algorithm="scds"), tensor, model
        ).total
        assert go <= sc


class TestValidation:
    def test_needs_loops(self, mesh44):
        with pytest.raises(ValueError):
            LoopNest(name="x", loops=[], owner=lambda ix: 0, refs=[])

    def test_duplicate_indices(self):
        with pytest.raises(ValueError):
            LoopNest(
                name="x",
                loops=[Loop("i", 0, 2), Loop("i", 0, 2)],
                owner=lambda ix: 0,
                refs=[],
            )

    def test_unknown_window_loop(self):
        with pytest.raises(ValueError):
            LoopNest(
                name="x",
                loops=[Loop("i", 0, 2)],
                owner=lambda ix: 0,
                refs=[],
                window_loop="z",
            )

    def test_parallel_window_loop_rejected(self):
        with pytest.raises(ValueError):
            LoopNest(
                name="x",
                loops=[Loop("i", 0, 2, parallel=True)],
                owner=lambda ix: 0,
                refs=[],
                window_loop="i",
            )
