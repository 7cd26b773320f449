"""CostModel unit tests."""

import numpy as np
import pytest

from repro.core import CostModel, Schedule, evaluate_schedule, per_datum_costs
from repro.grid import Mesh1D, Mesh2D
from repro.trace import ReferenceTensor, build_reference_tensor, window_per_step
from repro.workloads import trace_from_counts


def line_tensor(counts):
    """Reference tensor of a ``(D, W, n)`` count array on ``Mesh1D(n)``."""
    counts = np.asarray(counts, dtype=np.int64)
    topo = Mesh1D(counts.shape[2])
    trace, windows = trace_from_counts(counts, topo)
    return build_reference_tensor(trace, windows)


class TestPlacementCosts:
    def test_hand_computed_1d(self):
        model = CostModel(Mesh1D(4))
        # 2 refs at proc 0, 1 ref at proc 3
        costs = model.reference_costs(line_tensor([[[2, 0, 0, 1]]]))
        # cost(c) = 2|c-0| + |c-3|
        assert costs.dtype == np.int64
        assert costs[0, 0].tolist() == [3, 4, 5, 6]

    def test_zero_references_zero_cost(self, model44):
        tensor = ReferenceTensor(
            counts=np.zeros((1, 2, 16), dtype=np.int64),
            windows=window_per_step(2),
        )
        assert not model44.reference_costs(tensor).any()

    def test_rejects_wrong_width(self, tiny_tensor):
        with pytest.raises(ValueError, match="processor array"):
            CostModel(Mesh1D(5)).reference_costs(tiny_tensor)

    def test_reference_costs_matches_dense_product(self, tiny_tensor, mesh23):
        model = CostModel(mesh23)
        full = model.reference_costs(tiny_tensor)
        assert full.shape == (2, 3, 6)
        assert np.array_equal(full, tiny_tensor.counts @ model.distances)

    def test_reference_costs_rejects_other_array(self, tiny_tensor):
        model = CostModel(Mesh2D(4, 4))
        with pytest.raises(ValueError):
            model.reference_costs(tiny_tensor)


class TestVolumes:
    def test_volume_scales_costs(self):
        tensor = line_tensor([[[1, 0, 0]], [[1, 0, 0]]])
        schedule = Schedule.static(np.array([2, 2]), tensor.windows)
        unit = CostModel(Mesh1D(3))
        heavy = CostModel(Mesh1D(3), volumes=np.array([2.0, 5.0]))
        # volumes weigh the reported cost, never the volume-free tensor
        assert np.array_equal(
            heavy.reference_costs(tensor), unit.reference_costs(tensor)
        )
        ref, _move = per_datum_costs(schedule, tensor, heavy)
        unit_ref, _ = per_datum_costs(schedule, tensor, unit)
        assert ref.tolist() == [4.0, 10.0]
        assert np.array_equal(ref, unit_ref * [2.0, 5.0])

    def test_volume_lookup(self):
        model = CostModel(Mesh1D(3), volumes=np.array([2.0, 5.0]))
        assert model.volume(0) == 2.0
        assert model.volume(1) == 5.0
        assert CostModel(Mesh1D(3)).volume(7) == 1.0

    def test_movement_cost(self):
        model = CostModel(Mesh1D(5), volumes=np.array([3.0]))
        tensor = line_tensor([[[0] * 5, [0] * 5]])
        moved = Schedule(centers=np.array([[0, 4]]), windows=tensor.windows)
        assert evaluate_schedule(moved, tensor, model).movement_cost == 12.0
        stayed = Schedule.static(np.array([2]), tensor.windows)
        assert evaluate_schedule(stayed, tensor, model).movement_cost == 0.0

    def test_volume_validation(self):
        with pytest.raises(ValueError):
            CostModel(Mesh1D(3), volumes=np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            CostModel(Mesh1D(3), volumes=np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_volumes_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CostModel(Mesh1D(3), volumes=np.array([1.0, bad]))

    def test_volume_count_mismatch_caught(self, tiny_tensor, mesh23):
        model = CostModel(mesh23, volumes=np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="3 volumes"):
            model.volume_column(tiny_tensor.n_data)

    @pytest.mark.parametrize("algorithm", ["scds", "lomcds", "gomcds", "omcds"])
    def test_volume_count_mismatch_caught_by_schedule(
        self, tiny_tensor, mesh23, algorithm
    ):
        from repro import ScheduleRequest, schedule, schedule_many

        model = CostModel(mesh23, volumes=np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="3 volumes"):
            schedule(tiny_tensor, model, algorithm=algorithm)
        request = ScheduleRequest(tiny_tensor, model, algorithm=algorithm)
        with pytest.raises(ValueError, match="3 volumes"):
            schedule_many([request])
