"""Certificate checking: clean proofs verify; every tamper direction is
caught by its own code."""

import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest

import repro
from repro.core import CostModel, reschedule_around_faults, reschedule_from_window
from repro.diagnostics import VER005, VER006, VER007, Severity
from repro.faults import FaultPlan, NodeFault
from repro.grid import Mesh2D, Mesh3D, Torus2D, WeightedMesh2D
from repro.mem import CapacityPlan
from repro.trace import ReferenceTensor, WindowSet
from repro.verify import certificate_of, check_certificate
from repro.workloads import benchmark


@pytest.fixture
def certified(mesh44):
    wl = benchmark(1, 8, mesh44)
    tensor = wl.reference_tensor()
    model = CostModel(mesh44)
    capacity = CapacityPlan.paper_rule(wl.n_data, mesh44.n_procs, 2.0)
    schedule = repro.schedule(
        tensor, model, algorithm="gomcds", capacity=capacity, certify=True
    )
    return tensor, model, capacity, schedule


def _codes(diags):
    return {d.code for d in diags}


def test_clean_certificate_verifies(certified):
    tensor, model, _, schedule = certified
    cert = certificate_of(schedule)
    assert cert is not None and cert["kind"] == "gomcds-potentials"
    diags = check_certificate(schedule, tensor, model)
    assert not [d for d in diags if d.severity == Severity.ERROR]


def test_uncertified_schedule_is_silent_unless_required(certified):
    tensor, model, capacity, _ = certified
    plain = repro.schedule(tensor, model, algorithm="gomcds", capacity=capacity)
    assert certificate_of(plain) is None
    assert check_certificate(plain, tensor, model) == []
    required = check_certificate(plain, tensor, model, require=True)
    assert _codes(required) == {VER005}


def test_inflated_potential_is_dual_infeasible(certified):
    tensor, model, _, schedule = certified
    bad = dataclasses.replace(schedule, meta=copy.deepcopy(schedule.meta))
    bad.meta["certificate"]["potentials"][0, 2, :] += 3.0
    assert VER006 in _codes(check_certificate(bad, tensor, model))


def test_deflated_bound_is_not_tight(certified):
    tensor, model, _, schedule = certified
    bad = dataclasses.replace(schedule, meta=copy.deepcopy(schedule.meta))
    cert = bad.meta["certificate"]
    cert["potentials"][0, -1, :] -= 5.0
    cert["totals"] = cert["potentials"][:, -1, :].min(axis=1)
    assert VER007 in _codes(check_certificate(bad, tensor, model))


def test_perturbed_center_breaks_tightness(certified):
    tensor, model, _, schedule = certified
    centers = schedule.centers.copy()
    centers[0, 1] = (centers[0, 1] + 7) % model.topology.n_procs
    bad = dataclasses.replace(schedule, centers=centers)
    assert VER007 in _codes(check_certificate(bad, tensor, model))


def test_malformed_certificate_is_ver005(certified):
    tensor, model, _, schedule = certified
    bad = dataclasses.replace(schedule, meta=copy.deepcopy(schedule.meta))
    bad.meta["certificate"]["potentials"] = np.zeros((2, 2))
    diags = check_certificate(bad, tensor, model)
    assert _codes(diags) == {VER005}
    garbage = dataclasses.replace(schedule, meta={"certificate": "yes"})
    assert _codes(check_certificate(garbage, tensor, model)) == {VER005}


def test_certificate_version_is_checked(certified):
    tensor, model, _, schedule = certified
    assert certificate_of(schedule)["version"] == 2
    stale = dataclasses.replace(schedule, meta=copy.deepcopy(schedule.meta))
    stale.meta["certificate"]["version"] = 1  # volume-scaled potentials
    diags = check_certificate(stale, tensor, model)
    assert _codes(diags) == {VER005}
    assert "version" in diags[0].message


def test_faulted_certificates_verify(certified, mesh44):
    tensor, model, capacity, _ = certified
    plan = FaultPlan(node_faults=(NodeFault(pid=5, start=2),))
    schedule = reschedule_around_faults(
        tensor, model, plan, capacity, certify=True
    )
    diags = check_certificate(schedule, tensor, model, faults=plan)
    assert not [d for d in diags if d.severity == Severity.ERROR]


def test_mask_admitting_dead_node_is_ver005(certified, mesh44):
    tensor, model, capacity, _ = certified
    plan = FaultPlan(node_faults=(NodeFault(pid=5, start=0),))
    schedule = reschedule_around_faults(
        tensor, model, plan, capacity, certify=True
    )
    bad = dataclasses.replace(schedule, meta=copy.deepcopy(schedule.meta))
    bad.meta["certificate"]["masks"][:, :, 5] = True  # pid 5 is down
    assert VER005 in _codes(
        check_certificate(bad, tensor, model, faults=plan)
    )


def test_suffix_certificate_verifies(certified):
    tensor, model, capacity, schedule = certified
    plan = FaultPlan(node_faults=(NodeFault(pid=5, start=2),))
    suffix = reschedule_from_window(
        schedule, tensor, model, plan, from_window=2, capacity=capacity,
        certify=True,
    )
    cert = certificate_of(suffix)
    assert cert is not None and cert["from_window"] == 2
    diags = check_certificate(suffix, tensor, model, faults=plan)
    assert not [d for d in diags if d.severity == Severity.ERROR]


def test_restricted_to_keeps_certificate_consistent(certified):
    tensor, model, _, schedule = certified
    from repro.trace import ReferenceTensor

    ids = [0, 3, 5]
    sub = schedule.restricted_to(ids)
    subtensor = ReferenceTensor(tensor.counts[ids], tensor.windows)
    diags = check_certificate(sub, subtensor, model)
    assert not [d for d in diags if d.severity == Severity.ERROR]


@pytest.mark.parametrize(
    "topo",
    [Torus2D(4, 4), WeightedMesh2D(4, 4, 1, 2), Mesh3D(2, 2, 4)],
    ids=repr,
)
def test_theory_check_skips_topologies_outside_lemma1(topo):
    # VER011 samples Lemma 1 / Theorem 2 preconditions, which speak of
    # 1-D and 2-D meshes only; other topologies certify without it
    wl = benchmark(1, 8, topo)
    tensor = wl.reference_tensor()
    model = CostModel(topo)
    capacity = CapacityPlan.paper_rule(wl.n_data, topo.n_procs)
    certified = repro.schedule(
        tensor, model, algorithm="gomcds", capacity=capacity, certify=True
    )
    assert check_certificate(certified, tensor, model, require=True) == []


@pytest.mark.parametrize(
    "delta",
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 4)],
    ids=["more-data", "fewer-data", "more-windows", "fewer-windows", "procs"],
)
def test_mismatched_tensor_is_ver005(certified, delta):
    # the tensor must describe the schedule's data and windows on the
    # model's array; anything else is a coded error, not a crash
    tensor, model, _, schedule = certified
    shape = np.add(tensor.counts.shape, delta)
    other = ReferenceTensor(
        np.resize(tensor.counts, shape),
        WindowSet(np.arange(shape[1]), int(shape[1])),
    )
    diags = check_certificate(schedule, other, model)
    assert _codes(diags) == {VER005}
    assert "reference tensor" in diags[0].message


def test_check_peak_memory_is_linear_in_the_potentials():
    # the dual check walks blocks of data with per-axis passes and keeps
    # one int64 cost tensor: no (D, m, m) broadcast (134 MB for one window
    # here) and no float64 copy of the cost tensor
    mesh = Mesh2D(16, 16)
    wl = benchmark(1, 16, mesh)
    tensor = wl.reference_tensor()
    model = CostModel(mesh)
    capacity = CapacityPlan.paper_rule(wl.n_data, mesh.n_procs)
    schedule = repro.schedule(
        tensor, model, algorithm="gomcds", capacity=capacity, certify=True
    )
    potentials = certificate_of(schedule)["potentials"]
    tracemalloc.start()
    try:
        diags = check_certificate(schedule, tensor, model, require=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diags == []
    assert peak <= 2.5 * potentials.nbytes
