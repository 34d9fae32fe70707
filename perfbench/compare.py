#!/usr/bin/env python3
"""Compares two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are files holding the stdout of any number of
`perfbench/run.py` runs, concatenated. Each run contributes its stamp line
({"stamp": {...}}) and its result line (the last line it printed). For
every workload, end-to-end metric and side, the median over runs is taken;
a metric whose median got worse by more than its bound is a regression.
Per-layer metrics (traced runs) are listed without a verdict.

Results from different machine classes (core count, SIMD tier) or built
differently (build type, compiler) or measured for a different run length
are refused: their numbers are not comparable. Exit code 0 means no
regression, 1 a regression, 2 refused or unreadable input.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Stamp fields that must match for two results to be comparable.
CLASS_FIELDS = ("nproc", "simd_tier", "build_type", "compiler", "seconds")


def load_runs(path):
    """[(stamp, result)] in file order; a result pairs with the stamp above."""
    runs, stamp = [], None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if "stamp" in record:
                stamp = record["stamp"]
            elif "metrics" in record:
                if stamp is None:
                    raise ValueError(f"{path}: result without a stamp line")
                runs.append((stamp, record))
                stamp = None
    return runs


def machine_class(runs, path):
    classes = {tuple(s.get(k) for k in CLASS_FIELDS) for s, _ in runs}
    if len(classes) != 1:
        raise ValueError(f"{path}: runs from {len(classes)} machine classes")
    return dict(zip(CLASS_FIELDS, classes.pop()))


def medians(runs):
    """{(workload, trace): {metric: median}}, plus failed-run counts."""
    values, failed = {}, {}
    for stamp, result in runs:
        key = (stamp["workload"], stamp["trace"])
        if not result["correct"] or result["failed"]:
            failed[key] = failed.get(key, 0) + 1
        for name, metric in result["metrics"].items():
            values.setdefault(key, {}).setdefault(name, []).append(metric["value"])
    return ({k: {n: statistics.median(v) for n, v in m.items()}
             for k, m in values.items()}, failed)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        base_runs, head_runs = load_runs(argv[0]), load_runs(argv[1])
        if not base_runs or not head_runs:
            raise ValueError("no results to compare")
        base_class = machine_class(base_runs, argv[0])
        head_class = machine_class(head_runs, argv[1])
    except (OSError, ValueError, KeyError) as err:
        print(f"compare: {err}", file=sys.stderr)
        return 2
    if base_class != head_class:
        print(f"compare: refusing to compare different machine classes:\n"
              f"  base {base_class}\n  head {head_class}", file=sys.stderr)
        return 2

    base, base_failed = medians(base_runs)
    head, head_failed = medians(head_runs)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    regressed = False
    for key in sorted(set(base) & set(head)):
        workload, trace = key
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'})")
        for failed, side in ((base_failed, "base"), (head_failed, "head")):
            if key in failed:
                print(f"   {side}: {failed[key]} run(s) failed their checks")
                regressed = regressed or side == "head"
        for name in sorted(set(base[key]) & set(head[key])):
            b, h = base[key][name], head[key][name]
            change = (h - b) / b if b else float("nan")
            verdict = ""
            if name in bounds and not trace:
                worse = -change if bounds[name]["better"] == "higher" else change
                if worse > bounds[name]["bound"]:
                    verdict = f"REGRESSION (bound {bounds[name]['bound']})"
                    regressed = True
            print(f"   {name:32s} {b:14.6g} -> {h:14.6g} {change:+8.2%} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
