"""Record the exact totals and tensor facts the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record.py [WORKLOAD ...]

For each workload (all by default) and each of the 16 generator seeds,
solves every unique request with ``repro.schedule`` and stores
``evaluate_schedule(...).total`` under its case key in
``workloads.json``; the tensor facts (D, W per benchmark, m, nonzero
share, tensor MB) are stored for the default seed.  Under unit volumes
every total is an integer, so the benchmark compares them exactly.
Re-record only when a workload's definition changes: the totals are a
regression anchor, and a program change must reproduce them.
"""

from __future__ import annotations

import json
import sys

import specs


def record(name: str) -> tuple[dict, dict]:
    from repro import evaluate_schedule

    totals, facts = {}, {}
    for seed in range(specs.BASE_SEED, specs.BASE_SEED + specs.N_INPUT_SEEDS):
        wl = specs.build(name, seed)
        if seed == specs.BASE_SEED:
            facts = specs.tensor_facts(wl)
        totals[str(seed)] = {}
        for case in wl.cases:
            solved = specs.solve(case.request)
            total = evaluate_schedule(solved, case.request.tensor, wl.model).total
            totals[str(seed)][case.key] = total
        print(f"{name} seed {seed}: {len(wl.cases)} totals", file=sys.stderr)
    return facts, totals


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(specs.SPECS)
    data = specs.load_record()
    for name in names:
        facts, totals = record(name)
        entry = data["workloads"][name]
        entry["facts"] = facts
        entry["totals"] = totals
        with specs.RECORD_PATH.open("w") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
