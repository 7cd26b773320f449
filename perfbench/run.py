"""Scheduling benchmark: one command, every metric, outputs checked.

Usage, from the root of a checkout (needs ``src/repro`` and numpy)::

    python3 perfbench/run.py --workload batch-sweep --seed 1998 --seconds 50 --trace 0

Workloads are defined in ``specs.py`` and described in
``workloads.json``.  Each run starts the workload in its own process
(``worker.py``) so ``peak_rss_mb`` is per workload, after sampling the
set-up (interpreter start through input generation) in
``SETUP_SAMPLES - 1`` set-up-only processes; ``setup_s`` is the median
of all samples.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` its per-layer metrics; the span
records of every traced pass go to ``perfbench/out/``.

Prints one line per metric, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Exits 0 only when
every answer passed its checks; exits 2 without a result when the
program's source or a dependency is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


def declared_metrics(trace: bool) -> dict[str, str]:
    """``{name: unit}`` of the metrics BENCHMARK.json declares."""
    with (ROOT / "BENCHMARK.json").open() as fh:
        declared = json.load(fh)
    return {
        m["name"]: m["unit"]
        for m in declared["per_layer" if trace else "end_to_end"]
    }


def spawn(args, extra: list[str], timeout: float) -> dict:
    """Run ``worker.py`` once; its last stdout line is a JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spawned-at", repr(time.perf_counter()),
        *extra,
    ]
    # own session, so a timeout can stop the worker's pool processes too
    with subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        # set-up time is an end-to-end metric only: not sampled when tracing
        setups = [
            spawn(args, ["--setup-only"], timeout=20.0)["setup_s"]
            for _ in range(0 if args.trace else SETUP_SAMPLES - 1)
        ]
        report = spawn(
            args, [], timeout=DEADLINE_S - (time.perf_counter() - started)
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    setups.append(report["setup_s"])

    measured = dict(report["metrics"], setup_s=statistics.median(setups))
    declared = declared_metrics(bool(args.trace))
    missing = sorted(set(declared) - set(measured))
    failed = report["failed"] + len(missing)
    attempted = report["attempted"]
    for message in report["failures"]:
        print(f"FAILED {message}", file=sys.stderr)
    for name in missing:
        print(f"FAILED metric {name} was not measured", file=sys.stderr)

    metrics = {
        name: {"value": measured[name], "unit": unit}
        for name, unit in declared.items()
        if name in measured
    }
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        f"{args.workload} failed_frac = {failed / attempted:.6g} "
        f"({failed} of {attempted} operations)"
    )
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
