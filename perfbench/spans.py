"""Per-layer metrics from one traced pass.

The traced pass records into one ``Instrumentation`` session: the
benchmark's own spans around each public call (``bench.*``,
``engine.*_pass``, ``engine.solve_key``, ``core.evaluate``,
``sim.replay``, ``verify.certificate_check``) and the spans and counters
the program already emits when handed ``instrument=`` (``engine.batch``,
``scheduler.*``, ``scds.*``, ``lomcds.*``, ``gomcds.*``, ``sim.window``;
pool workers' spans are merged back with a ``worker_pid`` attribute).

A span's self time is its duration minus the durations of its direct
children, found from the pre-order list and each span's ``depth``.  The
parent process's spans form one tree under ``bench.pass``, so their
self times, summed per layer, account for the traced ``pipeline_s``
exactly; worker spans form a second, parallel timeline that only feeds
the busy-time sums.
"""

from __future__ import annotations

import json

#: span-name prefix -> layer (module of ``repro`` the span sits in)
LAYERS = {
    "bench": "bench",
    "engine": "engine",
    "scheduler": "core",
    "scds": "core",
    "lomcds": "core",
    "gomcds": "core",
    "core": "core",
    "sim": "sim",
    "verify": "verify",
}
SELF_METRICS = {
    "bench": "bench.gap_s",
    "engine": "engine.self_s",
    "core": "core.self_s",
    "sim": "sim.self_s",
    "verify": "verify.self_s",
}


def layer_of(name: str) -> str:
    return LAYERS.get(name.split(".", 1)[0], "other")


def self_times(span_list) -> list[float]:
    """Self time (µs) of each span of a pre-order list with depths."""
    own = [span.duration_us for span in span_list]
    stack: list[int] = []
    for i, span in enumerate(span_list):
        while stack and span_list[stack[-1]].depth >= span.depth:
            stack.pop()
        if stack:
            own[stack[-1]] -= span.duration_us
        stack.append(i)
    return own


def layer_metrics(instr, wl, result) -> tuple[dict, list[dict], list[str]]:
    """``(metrics, span records, accounting problems)`` of a traced pass."""
    parent = [s for s in instr.tracer.spans if "worker_pid" not in s.attrs]
    workers = [s for s in instr.tracer.spans if "worker_pid" in s.attrs]
    parent_self = self_times(parent)
    every = list(zip(parent + workers, parent_self + self_times(workers)))

    def total_s(match) -> float:
        return sum(s.duration_us for s, _ in every if match(s.name)) / 1e6

    def counter(name) -> float:
        return instr.metrics.counter(name).value

    root = parent[0]
    pipeline_s = root.duration_us / 1e6
    by_layer = dict.fromkeys([*SELF_METRICS, "other"], 0.0)
    for span, own in zip(parent, parent_self):
        by_layer[layer_of(span.name)] += own / 1e6
    hits, misses = counter("engine.cache.hits"), counter("engine.cache.misses")
    busy_s = instr.metrics.histogram("engine.request_us").total / 1e6
    cold_s = total_s(lambda n: n == "engine.cold_pass")
    checked = sum(1 for s in parent if s.name == "core.evaluate")
    certified = sum(1 for s in parent if s.name == "verify.certificate_check")
    metrics = {
        "obs.traced_pipeline_s": pipeline_s,
        **{SELF_METRICS[layer]: by_layer[layer] for layer in SELF_METRICS},
        "core.cost_tensor_s": total_s(lambda n: n.endswith(".cost_tensor")),
        "core.dp_sweep_s": total_s(lambda n: n == "gomcds.dp_sweep"),
        "core.dp_cells": sum(
            s.attrs["n_data"] * s.attrs["n_windows"] * s.attrs["n_procs"]
            for s, _ in every
            if s.name == "scheduler.gomcds"
        ),
        "core.capacity_walk_s": total_s(lambda n: n.endswith(".capacity_walk")),
        "core.capacity_fallbacks": counter("scheduler.capacity_fallbacks"),
        "core.argmin_s": total_s(
            lambda n: n in ("scds.argmin", "lomcds.local_argmin")
        ),
        "core.solver_self_s": sum(
            own for s, own in every if s.name.startswith("scheduler.")
        )
        / 1e6,
        "core.evaluate_s": total_s(lambda n: n == "core.evaluate"),
        "sim.replay_s": total_s(lambda n: n == "sim.replay"),
        "sim.fetches": counter("sim.fetches"),
        "sim.moves": counter("sim.moves"),
        "verify.certificate_check_s": total_s(
            lambda n: n == "verify.certificate_check"
        ),
        "verify.checked_schedules": checked,
        "verify.certified_frac": certified / checked if checked else 0.0,
        "engine.solve_key_s": total_s(lambda n: n == "engine.solve_key"),
        "engine.cold_pass_s": cold_s,
        "engine.disk_pass_s": total_s(lambda n: n == "engine.disk_pass"),
        "engine.memory_pass_s": total_s(lambda n: n == "engine.memory_pass"),
        "engine.solve_busy_s": busy_s,
        "engine.pool_overhead_s": cold_s - busy_s / wl.workers,
        "engine.cache_lookups": hits + misses,
        "engine.cache_hit_ratio": hits / (hits + misses),
        "engine.disk_hits": counter("engine.cache.disk_hits"),
        "engine.dedup_hits": counter("engine.batch.dedup_hits"),
        "engine.cache_disk_mb": result.cache_disk_mb,
    }
    problems = []
    if root.name != "bench.pass":
        problems.append(f"trace root is {root.name}, not bench.pass")
    if by_layer["other"]:
        problems.append("spans outside the known layers")
    accounted = sum(by_layer.values())
    if abs(accounted - pipeline_s) > 1e-3 * pipeline_s:
        problems.append(
            f"layer self times sum to {accounted:.6f} s, "
            f"traced pipeline took {pipeline_s:.6f} s"
        )
    if min(own for _, own in every) < -1.0:
        problems.append("a span's children outlast it (mis-nested trace)")
    records = [
        {
            "name": span.name,
            "start_us": span.start_us,
            "duration_us": span.duration_us,
            "self_us": own,
            "depth": span.depth,
            "worker": span.attrs.get("worker"),
        }
        for span, own in every
    ]
    return metrics, records, problems


def write(path, records: list[dict]) -> None:
    """Write span records as JSON lines (kept in memory until the end)."""
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
