"""Extended-suite kernel tests: FFT, SOR, Floyd-Warshall, bitonic."""

import numpy as np
import pytest

import repro
from repro.workloads import (
    EXTENDED_KERNELS,
    bitonic_workload,
    fft_workload,
    floyd_workload,
    sor_workload,
)


class TestFFT:
    def test_stage_count(self, mesh44):
        wl = fft_workload(64, mesh44)
        assert wl.trace.n_steps == 6  # log2(64)
        assert wl.windows.n_windows == 6

    def test_reference_totals(self, mesh44):
        n = 32
        wl = fft_workload(n, mesh44)
        # per stage: n/2 pairs x 2 elements x count 2 = 2n references
        assert wl.trace.total_references == 2 * n * 5

    def test_every_element_touched_every_stage(self, mesh44):
        wl = fft_workload(16, mesh44)
        tensor = wl.reference_tensor()
        assert (tensor.counts.sum(axis=2) > 0).all()

    def test_stage_strides(self, mesh44):
        n = 16
        wl = fft_workload(n, mesh44)
        # at stage s, the owner of i references i and i ^ 2^s: both data of
        # each event pair differ by exactly the stride
        for s in range(4):
            mask = wl.trace.steps == s
            data = np.sort(np.unique(wl.trace.data[mask]))
            assert len(data) == n

    def test_power_of_two_required(self, mesh44):
        with pytest.raises(ValueError):
            fft_workload(24, mesh44)
        with pytest.raises(ValueError):
            fft_workload(1, mesh44)

    def test_late_stages_cost_more_under_row_wise(self, mesh44):
        """The stride-doubling signature: under the block layout, stage
        costs are non-decreasing in the stride."""
        from repro.core import CostModel, evaluate_schedule
        from repro.distrib import baseline_schedule

        wl = fft_workload(64, mesh44)
        tensor = wl.reference_tensor()
        model = CostModel(mesh44)
        schedule = baseline_schedule(wl, "row_wise")
        cost_tensor = model.reference_costs(tensor)
        d_idx = np.arange(tensor.n_data)[:, None]
        w_idx = np.arange(tensor.n_windows)[None, :]
        per_window = cost_tensor[d_idx, w_idx, schedule.centers].sum(axis=0)
        assert per_window[0] == 0.0  # neighbours share an owner block
        assert per_window[-1] == per_window.max()


class TestSOR:
    def test_steps_and_windows(self, mesh44):
        wl = sor_workload(8, mesh44, sweeps=3)
        assert wl.trace.n_steps == 6  # red + black per sweep
        assert wl.windows.n_windows == 3

    def test_reference_count(self, mesh44):
        n = 6
        wl = sor_workload(n, mesh44, sweeps=1)
        # every cell updated once; interior cells reference 5, edges 4,
        # corners 3
        interior = (n - 2) ** 2 * 5
        edges = 4 * (n - 2) * 4
        corners = 4 * 3
        assert wl.trace.total_references == interior + edges + corners

    def test_block_layout_is_near_optimal(self, mesh44):
        from repro.core import CostModel, evaluate_schedule
        from repro.distrib import baseline_schedule

        wl = sor_workload(16, mesh44)
        tensor = wl.reference_tensor()
        model = CostModel(mesh44)
        block = evaluate_schedule(
            baseline_schedule(wl, "block"), tensor, model
        ).total
        best = evaluate_schedule(
            repro.schedule(tensor, model, algorithm="gomcds"), tensor, model
        ).total
        assert best <= block <= best * 1.1  # static block within 10%

    def test_validation(self, mesh44):
        with pytest.raises(ValueError):
            sor_workload(1, mesh44)
        with pytest.raises(ValueError):
            sor_workload(8, mesh44, sweeps=0)


class TestFloyd:
    def test_one_window_per_k(self, mesh44):
        wl = floyd_workload(8, mesh44)
        assert wl.windows.n_windows == 8

    def test_reference_total(self, mesh44):
        n = 6
        wl = floyd_workload(n, mesh44)
        assert wl.trace.total_references == 3 * n**3

    def test_pivot_row_hot_in_window_k(self, mesh44):
        n = 8
        wl = floyd_workload(n, mesh44)
        tensor = wl.reference_tensor()
        from repro.workloads import matrix_data_ids

        ids = matrix_data_ids(n, n)
        k = 3
        per_datum = tensor.counts[:, k, :].sum(axis=1)
        # D[k, j] is referenced by the whole column j: n refs + own update
        pivot_row_counts = per_datum[ids[k]]
        ordinary = per_datum[ids[0, 1]]  # i=0, j=1 not in row/col k
        assert (pivot_row_counts > ordinary).all()

    def test_uniform_window_weight(self, mesh44):
        wl = floyd_workload(8, mesh44)
        tensor = wl.reference_tensor()
        per_window = tensor.counts.sum(axis=(0, 2))
        assert len(set(per_window.tolist())) == 1

    def test_validation(self, mesh44):
        with pytest.raises(ValueError):
            floyd_workload(1, mesh44)
        with pytest.raises(ValueError):
            floyd_workload(8, mesh44, ks_per_window=0)


class TestBitonic:
    def test_step_count_is_triangular(self, mesh44):
        n = 32  # log n = 5 -> 1+2+3+4+5 = 15 sub-steps
        wl = bitonic_workload(n, mesh44)
        assert wl.trace.n_steps == 15
        assert wl.windows.n_windows == 5  # one window per stage

    def test_reference_total(self, mesh44):
        n = 16
        wl = bitonic_workload(n, mesh44)
        substeps = 1 + 2 + 3 + 4
        assert wl.trace.total_references == substeps * 2 * n

    def test_power_of_two_required(self, mesh44):
        with pytest.raises(ValueError):
            bitonic_workload(12, mesh44)

    def test_every_key_in_every_substep(self, mesh44):
        wl = bitonic_workload(16, mesh44)
        for s in range(wl.trace.n_steps):
            data = np.unique(wl.trace.data[wl.trace.steps == s])
            assert len(data) == 16


class TestRegistry:
    def test_all_registered_kernels_generate(self, mesh44):
        for name, (factory, n) in EXTENDED_KERNELS.items():
            wl = factory(n, mesh44)
            assert wl.name == name
            assert wl.trace.total_references > 0

    def test_extended_table_runs(self):
        from repro.analysis import run_extended_table

        table = run_extended_table(kernels=("fft", "sor"))
        assert len(table.rows) == 2
        for row in table.rows:
            assert row.result_for("GOMCDS").cost <= row.sf_cost
