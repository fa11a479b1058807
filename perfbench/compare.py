#!/usr/bin/env python3
"""Summarise one result set, or compare two, against BENCHMARK.json's bounds.

  python3 perfbench/compare.py perfbench/results/A
  python3 perfbench/compare.py perfbench/results/A perfbench/results/B

A result set is a directory holding the `results.jsonl` that
`run.py --results DIR` appends to (or that file itself).

One set: per workload and end-to-end metric, the median over the set's
runs and the spread, the distance between the first and third quartiles
as a share of the median, beside the metric's bound.

Two sets: per workload and end-to-end metric, whether the second median
lies within the bound of the first in both directions ("agree") or not
("better" / "worse").  Metrics that are counts must also read exactly the
same in both sets for every (workload, seed, trace) the two share, and so
must the share of failed executions.  Exits with 1 when anything does
not agree.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Metrics in these units are exact counts: they must repeat exactly.
EXACT_UNITS = {"count", "bits", "messages", "bytes", "bits/bit"}


def load(path: Path) -> list[dict]:
    path = path / "results.jsonl" if path.is_dir() else path
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def by_workload(entries: list[dict]) -> dict[str, dict[str, list[float]]]:
    out: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for e in entries:
        if e["trace"] == 0:
            for name, m in e["result"]["metrics"].items():
                out[e["workload"]][name].append(m["value"])
    return out


def failed_share(entries: list[dict], workload: str):
    attempted = sum(e["result"]["attempted"] for e in entries if e["workload"] == workload)
    failed = sum(e["result"]["failed"] for e in entries if e["workload"] == workload)
    return failed, attempted


def summarise(entries: list[dict], spec: dict) -> int:
    table = by_workload(entries)
    print(f"{'workload':<22}{'metric':<28}{'runs':>5}{'median':>16}{'spread':>9}{'bound':>7}  status")
    for workload, metrics in table.items():
        for m in spec["end_to_end"]:
            values = metrics.get(m["name"], [])
            if not values:
                continue
            s = spread(values)
            status = "steady" if s <= m["bound"] / 3 else ("within" if s <= m["bound"] else "WIDE")
            if m["name"] == "setup_s":
                status += " (spread not bounded)"
            print(f"{workload:<22}{m['name']:<28}{len(values):>5}{statistics.median(values):>16.6g}"
                  f"{s:>9.4f}{m['bound']:>7}  {status}")
        failed, attempted = failed_share(entries, workload)
        print(f"{workload:<22}{'failed/attempted':<28}{'':>5}{f'{failed}/{attempted}':>16}")
    return 0


def compare(a: list[dict], b: list[dict], spec: dict) -> int:
    ta, tb = by_workload(a), by_workload(b)
    ok = True
    print(f"{'workload':<22}{'metric':<28}{'median A':>14}{'median B':>14}{'change':>9}{'bound':>7}  verdict")
    for workload in ta:
        if workload not in tb:
            print(f"{workload:<22}missing from B")
            ok = False
            continue
        for m in spec["end_to_end"]:
            va, vb = ta[workload].get(m["name"]), tb[workload].get(m["name"])
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma
            worse = change if m["better"] == "lower" else -change
            if abs(change) <= m["bound"]:
                verdict = "agree"
            else:
                verdict = "worse" if worse > 0 else "better"
                ok = False
            print(f"{workload:<22}{m['name']:<28}{ma:>14.6g}{mb:>14.6g}{change:>+9.4f}{m['bound']:>7}  {verdict}")
        fa, fb = failed_share(a, workload), failed_share(b, workload)
        same = fa[0] * fb[1] == fb[0] * fa[1]
        ok = ok and same
        print(f"{workload:<22}{'failed/attempted':<28}{f'{fa[0]}/{fa[1]}':>14}{f'{fb[0]}/{fb[1]}':>14}"
              f"{'':>16}  {'same share' if same else 'DIFFERENT share'}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    keyed = {(e["workload"], e["seed"], e["trace"]): e["result"]["metrics"] for e in a}
    compared = mismatched = 0
    for e in b:
        other = keyed.get((e["workload"], e["seed"], e["trace"]))
        if other is None:
            continue
        for name, m in e["result"]["metrics"].items():
            if units.get(name) in EXACT_UNITS:
                compared += 1
                if other.get(name, {}).get("value") != m["value"]:
                    mismatched += 1
                    print(f"count differs: {e['workload']} seed {e['seed']} {name}: "
                          f"{other.get(name, {}).get('value')} vs {m['value']}")
    ok = ok and mismatched == 0
    print(f"exact counts: {compared - mismatched} of {compared} repeat exactly")
    print("AGREE" if ok else "DISAGREE")
    return 0 if ok else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    sets = [load(Path(p)) for p in argv]
    return summarise(sets[0], spec) if len(sets) == 1 else compare(sets[0], sets[1], spec)


if __name__ == "__main__":
    sys.exit(main())
