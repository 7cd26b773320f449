"""The workload process: set up one workload, run timed passes, report.

``run.py`` starts this file once per measured run (and a few more times
with ``--setup-only`` to sample set-up time), with ``src`` on
``PYTHONPATH``.  It prints one JSON line on stdout:
``{"setup_s", "attempted", "failed", "failures", "metrics"}``.

A pass submits the workload's requests through ``schedule_many`` three
times — cold into a fresh disk-backed ``SolveCache``, then a fresh cache
on the same directory (disk reads), then that cache again (memory
hits) — and checks every unique result between the cold and warm
submissions.  An answer counts as failed when its call raises, its
schedule fails a check, or a warm answer differs from the cold one.

``--trace 0`` runs dark passes for ``--seconds`` and reports the
end-to-end metrics as medians over passes; ``peak_rss_mb`` is the
process's ``ru_maxrss`` after set-up and the first pass.  ``--trace 1`` alternates
dark and traced passes, then runs one pass under ``tracemalloc``, and
reports the per-layer metrics (see ``spans.py``).
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import shutil
import statistics
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import specs
import spans

OUT_DIR = specs.HERE / "out"
MAX_FAILURE_MESSAGES = 20


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        if len(self.messages) < MAX_FAILURE_MESSAGES:
            self.messages.append(message)


@dataclass
class PassResult:
    pipeline_s: float
    cold_s: float
    disk_s: float
    memory_s: float
    check_s: float
    cache_disk_mb: float
    #: cold answers in submission order (None where the call raised)
    centers: list

    @property
    def solve_s(self) -> float:
        return self.cold_s + self.disk_s + self.memory_s


def check_case(case, schedule, model, expected, obs, clock) -> list[str]:
    """Problems with one unique result; the check calls feed ``clock``."""
    from repro import evaluate_schedule, replay_schedule
    from repro.diagnostics import Severity
    from repro.verify import check_certificate

    problems = []
    with clock("core.evaluate"):
        total = evaluate_schedule(schedule, case.request.tensor, model).total
    want = expected.get(case.key)
    if want is None:
        problems.append("no recorded total")
    elif total != want:
        problems.append(f"total {total} != recorded {want}")
    if case.request.capacity is not None:
        occupancy = schedule.occupancy(model.n_procs)
        if (occupancy > case.request.capacity.capacities[None, :]).any():
            problems.append("occupancy exceeds the capacity plan")
    with clock("sim.replay"):
        report = replay_schedule(
            case.instance.trace,
            schedule,
            model,
            capacity=case.request.capacity,
            instrument=obs,
        )
    if report.total_cost != total:
        problems.append(f"replay total {report.total_cost} != {total}")
    if case.request.options.get("certify"):
        with clock("verify.certificate_check"):
            diagnostics = check_certificate(
                schedule, case.request.tensor, model, require=True
            )
        errors = [d for d in diagnostics if d.severity >= Severity.ERROR]
        if errors:
            problems.append(f"certificate: {errors[0]}")
    return problems


def run_pass(wl, expected, tmp_root: Path, obs, tally: Tally) -> PassResult:
    """One pass over the workload's call list (see the module docstring)."""
    from repro import SolveCache, schedule_many

    requests = wl.requests
    n = len(requests)
    check_s = 0.0

    @contextmanager
    def clock(name):
        nonlocal check_s
        start = perf_counter()
        with obs.span(name):
            yield
        check_s += perf_counter() - start

    def serve(phase, cache):
        start = perf_counter()
        with obs.span(f"engine.{phase}_pass"):
            try:
                answers = schedule_many(
                    requests, workers=wl.workers, cache=cache, instrument=obs
                )
            except Exception as exc:  # counted, reported, pass goes on
                tally.fail(n, f"{phase} pass raised {exc!r}")
                answers = [None] * n
        tally.attempted += n
        return answers, perf_counter() - start

    disk_dir = Path(tempfile.mkdtemp(dir=tmp_root, prefix="cache-"))
    try:
        start = perf_counter()
        with obs.span("bench.pass", workload=wl.spec.name):
            cold, cold_s = serve("cold", SolveCache(disk_dir=disk_dir))
            with obs.span("bench.check"):
                for index, case in enumerate(wl.cases):
                    answer = cold[wl.order.index(index)]
                    if answer is None:
                        continue
                    try:
                        problems = check_case(
                            case, answer, wl.model, expected, obs, clock
                        )
                    except Exception as exc:
                        problems = [f"check raised {exc!r}"]
                    if problems:
                        tally.fail(
                            wl.order.count(index),
                            f"{case.key}: {'; '.join(problems)}",
                        )
            cache_disk_mb = sum(
                p.stat().st_size for p in disk_dir.iterdir()
            ) / 1e6
            cache = SolveCache(disk_dir=disk_dir)
            disk, disk_s = serve("disk", cache)
            memory, memory_s = serve("memory", cache)
            centers = centers_of(cold)
            with obs.span("bench.compare"):
                compare(centers, centers_of(disk), wl, tally, "disk")
                compare(centers, centers_of(memory), wl, tally, "memory")
        pipeline_s = perf_counter() - start
    finally:
        shutil.rmtree(disk_dir, ignore_errors=True)
    return PassResult(
        pipeline_s, cold_s, disk_s, memory_s, check_s, cache_disk_mb, centers
    )


def centers_of(answers) -> list:
    return [None if a is None else a.centers for a in answers]


def same_centers(a, b) -> bool:
    import numpy as np

    return a.shape == b.shape and bool(np.array_equal(a, b))


def compare(reference: list, centers: list, wl, tally: Tally, what: str):
    """Count answers whose centers differ from the reference, by position."""
    for position, (a, b) in enumerate(zip(reference, centers)):
        if a is not None and b is not None and not same_centers(a, b):
            key = wl.cases[wl.order[position]].key
            tally.fail(1, f"{key}: {what} answer differs")


def dark_metrics(wl, passes: list[PassResult], peak_rss_mb: float) -> dict:
    n = len(wl.order)

    def median(values):
        return statistics.median(list(values))

    return {
        "pipeline_s": median(p.pipeline_s for p in passes),
        "solve_s": median(p.solve_s for p in passes),
        "check_s": median(p.check_s for p in passes),
        "cold_requests_per_s": median(n / p.cold_s for p in passes),
        "warm_requests_per_s": median(
            2 * n / (p.disk_s + p.memory_s) for p in passes
        ),
        "peak_rss_mb": peak_rss_mb,
    }


@contextmanager
def timed_solve_keys(obs):
    """Span every ``ScheduleRequest.solve_key`` call (public method)."""
    from repro import ScheduleRequest

    original = ScheduleRequest.solve_key

    def solve_key(self):
        with obs.span("engine.solve_key"):
            return original(self)

    ScheduleRequest.solve_key = solve_key
    try:
        yield
    finally:
        ScheduleRequest.solve_key = original


def memory_pass(wl, reference: PassResult, tally: Tally) -> dict:
    """Per-call tracemalloc peaks of ``schedule`` and ``evaluate_schedule``."""
    from repro import evaluate_schedule

    def peak_mb(call, *args):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = call(*args)
        return out, (tracemalloc.get_traced_memory()[1] - base) / 1e6

    schedule_peak = evaluate_peak = 0.0
    tracemalloc.start()
    try:
        for index, case in enumerate(wl.cases):
            tally.attempted += 1
            try:
                answer, peak = peak_mb(specs.solve, case.request)
                schedule_peak = max(schedule_peak, peak)
                _, peak = peak_mb(
                    evaluate_schedule, answer, case.request.tensor, wl.model
                )
                evaluate_peak = max(evaluate_peak, peak)
            except Exception as exc:
                tally.fail(1, f"{case.key}: direct schedule raised {exc!r}")
                continue
            want = reference.centers[wl.order.index(index)]
            if want is not None and not same_centers(want, answer.centers):
                tally.fail(1, f"{case.key}: direct answer differs")
    finally:
        tracemalloc.stop()
    return {
        "core.schedule_peak_mb": schedule_peak,
        "core.evaluate_peak_mb": evaluate_peak,
    }


def pickle_cost(wl) -> dict:
    """Bytes and time to pickle the unique requests, as a pool ships them."""
    size = 0
    start = perf_counter()
    for case in wl.cases:
        size += len(pickle.dumps(case.request))
    return {
        "engine.request_pickle_mb": size / 1e6,
        "engine.request_pickle_s": perf_counter() - start,
    }


def measure(wl, expected, seconds: float, trace: bool, tmp_root: Path):
    """Run passes for ``seconds``; returns ``(metrics, tally, span records)``."""
    from repro.obs import NOOP, Instrumentation

    tally = Tally()
    dark: list[PassResult] = []
    traced: list[tuple[PassResult, dict]] = []
    records: list[dict] = []
    peak_rss_mb = 0.0

    def dark_pass():
        nonlocal peak_rss_mb
        dark.append(run_pass(wl, expected, tmp_root, NOOP, tally))
        if len(dark) > 1:
            compare(dark[0].centers, dark[-1].centers, wl, tally, "repeated")
        else:
            # after one pass, so the figure does not grow with the pass count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def traced_pass():
        instr = Instrumentation.started()
        with timed_solve_keys(instr):
            result = run_pass(wl, expected, tmp_root, instr, tally)
        metrics, spans_of_pass, problems = spans.layer_metrics(instr, wl, result)
        for problem in problems:
            tally.fail(1, problem)
        records.extend(dict(r, traced_pass=len(traced)) for r in spans_of_pass)
        traced.append((result, metrics))

    start = perf_counter()
    while True:
        begun = perf_counter()
        if not trace:
            dark_pass()
        elif len(traced) % 2 == 0:  # alternate which side runs first
            dark_pass()
            traced_pass()
        else:
            traced_pass()
            dark_pass()
        last = perf_counter() - begun
        if perf_counter() - start + last > seconds:
            break
    if not trace:
        return dark_metrics(wl, dark, peak_rss_mb), tally, records
    for result, _ in traced:
        compare(dark[0].centers, result.centers, wl, tally, "traced")
    metrics = {
        name: statistics.median(m[name] for _, m in traced)
        for name in traced[0][1]
    }
    dark_s = statistics.median(p.pipeline_s for p in dark)
    traced_s = statistics.median(p.pipeline_s for p, _ in traced)
    metrics["obs.trace_overhead_pct"] = 100.0 * (traced_s - dark_s) / dark_s
    metrics.update(memory_pass(wl, dark[0], tally))
    metrics.update(pickle_cost(wl))
    metrics["workloads.generate_s"] = wl.timings["generate_s"]
    metrics["trace.tensor_build_s"] = wl.timings["tensor_build_s"]
    metrics["trace.tensor_mb"] = specs.tensor_facts(wl)["tensor_mb"]
    return metrics, tally, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(specs.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import repro  # noqa: F401  (set-up includes the package import)

    wl = specs.build(args.workload, args.seed)
    expected = specs.expected_totals(args.workload, args.seed)
    # perf_counter is CLOCK_MONOTONIC on Linux: comparable across processes
    setup_s = perf_counter() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="run-") as tmp:
        metrics, tally, records = measure(
            wl, expected, args.seconds, bool(args.trace), Path(tmp)
        )
    if records:
        spans.write(OUT_DIR / f"spans-{args.workload}.jsonl", records)
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "failures": tally.messages,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
