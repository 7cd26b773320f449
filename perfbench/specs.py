"""Workload definitions shared by the benchmark's worker, recorder and tests.

A workload is a list of scheduling requests on one mesh, submitted
through ``repro.schedule_many`` three times per pass (cold into a fresh
disk-backed ``SolveCache``, then a fresh cache on the same directory,
then that cache again).  Every unique result is checked against the
exact total recorded in ``workloads.json`` (written by ``record.py``).

Inputs come from the paper's benchmark generators.  Benchmarks 3-5 mix
in a seeded random reference stream, so the recorded totals depend on
the generator seed: ``--seed n`` picks generator seed
``1998 + (n - 1998) mod 16`` (``1998..2013``, all recorded).  The full
``--seed`` also drives the request order and the choice of repeated
requests in ``batch-sweep``, which do not change any total.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
RECORD_PATH = HERE / "workloads.json"

BASE_SEED = 1998
N_INPUT_SEEDS = 16

CAPACITIES = {"none": None, "paper_rule_x2": 2.0, "paper_rule_x3": 3.0}


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    mesh: tuple[int, int]
    size: int
    benchmarks: tuple[int, ...]
    #: (algorithm, capacity label) solved for every benchmark, in order
    configs: tuple[tuple[str, str], ...]
    #: exact repeats appended to the unique requests (seeded choice)
    repeats: int = 0
    shuffle: bool = False
    #: pool width cap; the workload uses min(max_workers, nproc)
    max_workers: int = 1
    #: GOMCDS requests ask for an optimality certificate
    certify: bool = False


SPECS = {
    "mesh16-scale": WorkloadSpec(
        name="mesh16-scale",
        mesh=(16, 16),
        size=16,
        benchmarks=(1, 5),
        configs=(
            ("SCDS", "paper_rule_x2"),
            ("GOMCDS", "none"),
            ("GOMCDS", "paper_rule_x2"),
        ),
    ),
    "batch-sweep": WorkloadSpec(
        name="batch-sweep",
        mesh=(8, 8),
        size=16,
        benchmarks=(1, 2, 3, 4, 5),
        configs=tuple(
            (algorithm, cap)
            for cap in CAPACITIES
            for algorithm in ("SCDS", "LOMCDS", "GOMCDS")
        ),
        repeats=23,
        shuffle=True,
        max_workers=2,
        certify=True,
    ),
}


def input_seed(seed: int) -> int:
    """Generator seed for the benchmark instances (one of 16 recorded)."""
    return BASE_SEED + (seed - BASE_SEED) % N_INPUT_SEEDS


def case_key(bench: int, algorithm: str, capacity: str) -> str:
    return f"b{bench}/{algorithm}/{capacity}"


@dataclass
class Case:
    """One unique request and what its checks need."""

    key: str
    bench: int
    request: object  # repro.ScheduleRequest
    instance: object  # repro WorkloadInstance (its trace feeds the replay)


@dataclass
class Workload:
    spec: WorkloadSpec
    model: object
    cases: list[Case]
    #: submission order, as indices into ``cases`` (repeats included)
    order: list[int]
    workers: int
    #: set-up layer timings: generate_s, tensor_build_s
    timings: dict

    @property
    def requests(self) -> list:
        return [self.cases[i].request for i in self.order]


def build(name: str, seed: int) -> Workload:
    """Generate the workload's inputs from ``seed`` (the set-up phase)."""
    from repro import CapacityPlan, CostModel, Mesh2D, ScheduleRequest
    from repro.workloads import benchmark

    spec = SPECS[name]
    topology = Mesh2D(*spec.mesh)
    model = CostModel(topology)
    model.distances  # fill the distance-matrix cache
    generate_s = tensor_s = 0.0
    cases: list[Case] = []
    for bench in spec.benchmarks:
        start = perf_counter()
        instance = benchmark(bench, spec.size, topology, seed=input_seed(seed))
        generate_s += perf_counter() - start
        start = perf_counter()
        tensor = instance.reference_tensor()
        tensor_s += perf_counter() - start
        plans = {
            label: None
            if factor is None
            else CapacityPlan.paper_rule(
                instance.n_data, topology.n_procs, multiplier=factor
            )
            for label, factor in CAPACITIES.items()
        }
        for algorithm, cap in spec.configs:
            certify = spec.certify and algorithm == "GOMCDS"
            options = {"certify": True} if certify else {}
            key = case_key(bench, algorithm, cap)
            request = ScheduleRequest(
                tensor=tensor,
                model=model,
                capacity=plans[cap],
                algorithm=algorithm,
                options=options,
                label=key,
            )
            cases.append(Case(key, bench, request, instance))
    order = list(range(len(cases)))
    rng = random.Random(seed)
    order += [rng.randrange(len(cases)) for _ in range(spec.repeats)]
    if spec.shuffle:
        rng.shuffle(order)
    workers = min(spec.max_workers, len(os.sched_getaffinity(0)))
    timings = {"generate_s": generate_s, "tensor_build_s": tensor_s}
    return Workload(spec, model, cases, order, workers, timings)


def tensor_facts(wl: Workload) -> dict:
    """D, W per benchmark, m, nonzero share and dense bytes of the tensors."""
    unique = {id(c.request.tensor): c.request.tensor for c in wl.cases}
    tensors = list(unique.values())
    nonzero = sum(int((t.counts != 0).sum()) for t in tensors)
    cells = sum(t.counts.size for t in tensors)
    return {
        "D": tensors[0].n_data,
        "W": [t.n_windows for t in tensors],
        "m": wl.model.n_procs,
        "nonzero_frac": nonzero / cells,
        "tensor_mb": sum(t.counts.nbytes for t in tensors) / 1e6,
    }


def solve(request):
    """Solve one request directly through ``repro.schedule``."""
    from repro import schedule

    return schedule(
        request.tensor,
        request.model,
        algorithm=request.algorithm,
        capacity=request.capacity,
        **request.options,
    )


def load_record(path: Path = RECORD_PATH) -> dict:
    with path.open() as fh:
        return json.load(fh)


def expected_totals(name: str, seed: int, path: Path = RECORD_PATH) -> dict:
    """``{case key: total}`` recorded for the workload's generator seed."""
    totals = load_record(path)["workloads"][name].get("totals", {})
    return totals.get(str(input_seed(seed)), {})
