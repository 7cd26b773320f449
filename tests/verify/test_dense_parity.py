"""The per-axis certificate checker reports exactly what the dense
``(D, m, m)`` oracle reports: the same codes, cells, messages and order,
on clean and tampered certificates over every topology."""

import copy
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro
from repro.core import CostModel, reschedule_from_window
from repro.diagnostics import VER006, VER007
from repro.faults import FaultPlan, NodeFault
from repro.grid import Mesh1D, Mesh2D, Mesh3D, Torus2D, WeightedMesh2D
from repro.mem import CapacityError, CapacityPlan
from repro.trace import build_reference_tensor
from repro.verify import certificate, certificate_of, check_certificate
from repro.verify.abstract import MAX_DIAGNOSTICS_PER_CHECK
from repro.workloads import benchmark, trace_from_counts

from .dense_certificate import dense_certificate_diagnostics

TOPOLOGIES = [
    Mesh1D(5),
    Mesh2D(2, 3),
    Torus2D(3, 3),
    WeightedMesh2D(2, 3, 2, 3),
    Mesh3D(2, 2, 2),
]
SCENARIOS = ["free", "capacity", "suffix"]
TAMPERS = ["clean", "inflate", "shift", "deflate", "move"]


@st.composite
def certified(draw, topo):
    """A certified schedule: free, capacity-masked, or a pinned suffix."""
    n_data = draw(st.integers(1, 6))
    n_windows = draw(st.integers(2, 5))
    counts = draw(
        arrays(
            dtype=np.int64,
            shape=(n_data, n_windows, topo.n_procs),
            elements=st.integers(0, 3),
        )
    )
    trace, windows = trace_from_counts(counts, topo)
    tensor = build_reference_tensor(trace, windows)
    model = CostModel(topo)
    scenario = draw(st.sampled_from(SCENARIOS))
    capacity = None
    if scenario != "free":
        capacity = CapacityPlan.paper_rule(n_data, topo.n_procs, 2.0)
    try:
        solved = repro.schedule(
            tensor, model, algorithm="gomcds", capacity=capacity, certify=True
        )
        if scenario == "suffix":
            dead = draw(st.integers(0, topo.n_procs - 1))
            from_window = draw(st.integers(1, n_windows - 1))
            plan = FaultPlan(node_faults=(NodeFault(pid=dead, start=from_window),))
            # a pin away from the old centers makes the first suffix
            # window pay a real move
            placement = draw(
                arrays(
                    dtype=np.int64,
                    shape=(n_data,),
                    elements=st.integers(0, topo.n_procs - 1),
                )
            )
            solved = reschedule_from_window(
                solved, tensor, model, plan, from_window=from_window,
                placement=placement, capacity=capacity, certify=True,
            )
    except CapacityError:
        assume(False)
    return tensor, model, solved


def tamper(solved, how, draw):
    """Copy of ``solved`` with its certificate or centers edited."""
    bad = dataclasses.replace(
        solved,
        centers=solved.centers.copy(),
        meta=copy.deepcopy(solved.meta),
    )
    cert = certificate_of(bad)
    potentials, totals = cert["potentials"], cert["totals"]
    n_data, n_suffix, n_procs = potentials.shape
    d = draw(st.integers(0, n_data - 1))
    if how == "inflate":
        w = draw(st.integers(0, n_suffix - 1))
        p = draw(st.integers(0, n_procs - 1))
        potentials[d, w, p] += 1.0
    elif how == "shift":
        # every cell infeasible: the per-code cap decides what survives
        potentials += np.arange(1, n_suffix + 1)[None, :, None]
    elif how == "deflate":
        totals[d] -= 1.0
    elif how == "move":
        w = draw(st.integers(cert["from_window"], solved.centers.shape[1] - 1))
        step = draw(st.integers(1, n_procs - 1))
        bad.centers[d, w] = (bad.centers[d, w] + step) % n_procs
    return bad


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=repr)
@pytest.mark.parametrize("how", TAMPERS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_checker_matches_dense_oracle(topo, how, data):
    tensor, model, solved = data.draw(certified(topo))
    checked = tamper(solved, how, data.draw)
    # one datum per block, or every datum in one block
    block_bytes = data.draw(st.sampled_from([1, certificate._BLOCK_BYTES]))
    with mock.patch.object(certificate, "_BLOCK_BYTES", block_bytes):
        got = check_certificate(checked, tensor, model, check_theory=False)
    assert got == dense_certificate_diagnostics(checked, tensor, model)
    if how == "clean":
        assert got == []


def test_tampered_check_formats_no_diagnostic_past_the_cap(monkeypatch):
    # shifting every potential by w + 1 leaves every cell infeasible;
    # only the first MAX_DIAGNOSTICS_PER_CHECK survive, in window-major
    # order, and no more than that are ever built
    mesh = Mesh2D(4, 4)
    tensor = benchmark(1, 8, mesh).reference_tensor()
    model = CostModel(mesh)
    solved = repro.schedule(tensor, model, algorithm="gomcds", certify=True)
    bad = dataclasses.replace(solved, meta=copy.deepcopy(solved.meta))
    potentials = certificate_of(bad)["potentials"]
    potentials += np.arange(1, potentials.shape[1] + 1)[None, :, None]

    built = []

    def counting(*args, **kwargs):
        diag = repro.diagnostics.Diagnostic(*args, **kwargs)
        built.append(diag.code)
        return diag

    monkeypatch.setattr(certificate, "Diagnostic", counting)
    got = check_certificate(bad, tensor, model, check_theory=False)
    assert got == dense_certificate_diagnostics(bad, tensor, model)
    for code in (VER006, VER007):
        assert built.count(code) == MAX_DIAGNOSTICS_PER_CHECK
    cells = [(d.window, d.datum, d.processor) for d in got if d.code == VER006]
    assert cells == sorted(cells)
