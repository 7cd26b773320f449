"""Tests of the benchmark itself: ``python -m pytest perfbench -q``.

They run the real command on short runs (one pass each), so the whole
file takes a few minutes, most of it on ``mesh16-scale``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import specs  # noqa: E402
import spans  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run(root: Path, workload: str, trace: int, seed: int = 1998):
    """Run the command with a one-pass budget; ``(exit code, stdout lines)``."""
    done = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0",
            "--trace", str(trace),
        ],
        cwd=root,
        stdout=subprocess.PIPE,
        timeout=300,
    )
    return done.returncode, done.stdout.decode().strip().splitlines()


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in DECLARED[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert set(WORKLOADS) == set(specs.SPECS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace):
    code, lines = run(ROOT, workload, trace)
    result = json.loads(lines[-1])
    key = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in DECLARED[key]}
    assert result["correct"] and result["failed"] == 0 and code == 0
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name


def copy_checkout(tmp_path: Path, with_source: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    if with_source:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def test_wrong_expected_total_fails_the_run(tmp_path):
    root = copy_checkout(tmp_path, with_source=True)
    record_path = root / "perfbench" / "workloads.json"
    record = json.loads(record_path.read_text())
    totals = record["workloads"]["batch-sweep"]["totals"][str(specs.BASE_SEED)]
    totals["b1/SCDS/none"] += 1
    record_path.write_text(json.dumps(record))

    code, lines = run(root, "batch-sweep", trace=0)
    result = json.loads(lines[-1])
    assert code != 0
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_missing_program_exits_without_a_result(tmp_path):
    root = copy_checkout(tmp_path, with_source=False)
    code, lines = run(root, "batch-sweep", trace=0)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_seed_reaches_workload_generation():
    a = specs.build("batch-sweep", 1998)
    b = specs.build("batch-sweep", 1999)
    assert a.order != b.order
    bench5 = [c.request.tensor.counts for c in (a.cases[-1], b.cases[-1])]
    assert a.cases[-1].bench == 5
    assert bench5[0].shape != bench5[1].shape or (bench5[0] != bench5[1]).any()
    again = specs.build("batch-sweep", 1998)
    assert again.order == a.order
    assert (again.cases[-1].request.tensor.counts == bench5[0]).all()


def test_every_generator_seed_has_recorded_totals():
    record = specs.load_record()
    for name in specs.SPECS:
        totals = record["workloads"][name]["totals"]
        for seed in (0, 1, 1998, 2013, 123456):
            keys = totals[str(specs.input_seed(seed))]
            assert len(keys) == len(specs.build(name, seed).cases)


class _Span:
    def __init__(self, name, duration_us, depth):
        self.name, self.duration_us, self.depth = name, duration_us, depth


def test_self_times_subtract_direct_children_only():
    tree = [
        _Span("bench.pass", 100.0, 0),
        _Span("engine.batch", 60.0, 1),
        _Span("scheduler.gomcds", 50.0, 2),
        _Span("gomcds.dp_sweep", 30.0, 3),
        _Span("core.evaluate", 25.0, 1),
    ]
    assert spans.self_times(tree) == [15.0, 10.0, 20.0, 30.0, 25.0]
    assert sum(spans.self_times(tree)) == tree[0].duration_us
