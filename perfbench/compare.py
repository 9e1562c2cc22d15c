"""Compare two result sets of the benchmark's end-to-end metrics.

A result set is a JSON lines file written by ``run.py --out`` (or a
directory of them).  For every workload x end-to-end metric both sides'
median and quartiles are printed with a verdict against the metric's
bound in ``BENCHMARK.json``:

* ``REGRESSED`` — the change's median is worse than the parent's by more
  than the bound;
* ``unresolved`` — either side's spread (quartile distance over median)
  exceeds the bound, so a difference of that size cannot be told from
  noise, unless every run of the change reads better than every run of
  the parent (``better``);
* ``within`` — neither of the above.

Exit status 1 when any pairing regressed.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict:
    """{workload: {metric: [value, ...]}} from untraced records."""
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    values = defaultdict(lambda: defaultdict(list))
    for file in files:
        for line in file.read_text().splitlines():
            record = json.loads(line)
            if record["trace"] != 0 or not record["result"]["correct"]:
                continue
            for name, metric in record["result"]["metrics"].items():
                values[record["workload"]][name].append(metric["value"])
    return values


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if sign * (cm - pm) > bound * abs(pm):
        return "REGRESSED"
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    if spread > bound:
        if all(sign * (c - p) < 0 for c in change for p in parent):
            return "better"
        return "unresolved"
    return "within"


def compare(parent_path: Path, change_path: Path) -> int:
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load(parent_path), load(change_path)
    header = (f"{'workload':20s} {'metric':22s} {'parent q1/med/q3':>30s} "
              f"{'change q1/med/q3':>30s} {'delta':>8s} bound  verdict")
    print(header)
    regressed = False
    for workload in spec["workloads"]:
        name = workload["name"]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            old, new = parent[name].get(key), change[name].get(key)
            if not old or not new:
                print(f"{name:20s} {key:22s} {'(missing)':>30s}")
                continue
            result = verdict(old, new, metric["better"], metric["bound"])
            regressed |= result == "REGRESSED"
            po, pm, pq = quartiles(old)
            co, cm, cq = quartiles(new)
            print(
                f"{name:20s} {key:22s} "
                f"{po:>9.4g} {pm:>9.4g} {pq:>9.4g}    "
                f"{co:>9.4g} {cm:>9.4g} {cq:>9.4g}    "
                f"{(cm - pm) / abs(pm):>+7.1%} {metric['bound']:>5.2f}  "
                f"{result}"
            )
    return 1 if regressed else 0
