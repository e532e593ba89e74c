"""Compare two results files written by ``run.py --workload all``.

    python3 perfbench/compare.py OLD.json NEW.json

Prints one row per workload with each end-to-end metric's median change
from OLD to NEW and a verdict, using the bounds in BENCHMARK.json:

  worse       NEW's median is worse than OLD's by more than the bound
  unresolved  the run-to-run spread (quartile distance over median) of
              either side exceeds the bound, unless every NEW run is
              better than every OLD run
  better      NEW's median is better by more than OLD's own spread
  same        otherwise

A workload where NEW fails a larger share of operations than OLD is
marked FAILED, and its "better" verdicts read "void".  The exit code is 1
if any workload failed or any metric is worse.

Then prints each per-layer metric's change from the traced runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(old, new, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    old_m, new_m = statistics.median(old), statistics.median(new)
    gain = sign * (new_m - old_m) / abs(old_m)
    if gain < -bound:
        return "worse"
    if max(spread(old), spread(new)) > bound:
        if all(sign * n > sign * o for n in new for o in old):
            return "better"
        return "unresolved"
    if gain > spread(old):
        return "better"
    return "same"


def values(entry, name) -> list:
    return [r["metrics"][name]["value"] for r in entry["runs"] if name in r["metrics"]]


def fail_counts(entry) -> tuple:
    return (sum(r["failed"] for r in entry["runs"]),
            sum(r["attempted"] for r in entry["runs"]))


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = 0
    for name, new_entry in new["workloads"].items():
        old_entry = old["workloads"].get(name)
        if old_entry is None:
            print(f"{name}: not in {argv[0]}")
            continue
        failed, attempted = fail_counts(new_entry)
        old_failed, old_attempted = fail_counts(old_entry)
        cells = [f"{name:<9} failed {failed}/{attempted}"]
        failing = failed * old_attempted > old_failed * attempted
        if failing:
            worse += 1
            cells[0] += f" FAILED (OLD failed {old_failed}/{old_attempted})"
        for metric in spec["end_to_end"]:
            o, n = values(old_entry, metric["name"]), values(new_entry, metric["name"])
            if not o or not n:
                cells.append(f"{metric['name']} n/a")
                continue
            v = verdict(o, n, metric["better"], metric["bound"])
            if failing and v == "better":
                v = "void"
            worse += v == "worse"
            change = (statistics.median(n) - statistics.median(o)) / abs(statistics.median(o))
            cells.append(f"{metric['name']} {statistics.median(o):.4g}->"
                         f"{statistics.median(n):.4g} {metric['unit']} ({change:+.1%}, "
                         f"spread {spread(o):.1%}/{spread(n):.1%}) {v}")
        print(" | ".join(cells))
    for name, new_entry in new["workloads"].items():
        old_traced = (old["workloads"].get(name) or {}).get("traced")
        if not (old_traced and new_entry.get("traced")):
            continue
        parts = []
        for metric, cell in new_entry["traced"]["metrics"].items():
            before = old_traced["metrics"].get(metric, {}).get("value")
            if before:
                parts.append(f"{metric} {cell['value'] / before - 1:+.1%}")
        print(f"{name} per-layer: " + ", ".join(parts))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
