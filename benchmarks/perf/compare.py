"""Compare two benchmark result files row by row against the bounds.

    python3 benchmarks/perf/compare.py BASE.json NEW.json

Each file is what ``run.py --out`` wrote: a whole collection (every
workload, ``--repeat`` sets) or a single workload's record.  For every
pairing of end-to-end metric and workload the medians over each side's
runs are compared against the bound ``BENCHMARK.json`` fixes:

* ``ok`` — NEW is no worse than BASE by more than the bound;
* ``regression`` — it is worse by more than the bound;
* ``unresolved`` — the run-to-run quartile spread of either side is wider
  than the bound and the two sides' runs overlap, so the data cannot tell
  (needs at least two runs a side; with one there is no spread to judge).

Log digests, ``correct`` and the failure count must match exactly.
Every ratio is printed with its base.  Exit status 1 on any regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence

import harness


#: Values that must match exactly between the two sides, per workload.
EXACT = {
    "digest": lambda record: record.get("details", {}).get("digest"),
    "correct": lambda record: record["correct"],
    "failed": lambda record: record["failed"],
}


def load_records(path: str) -> List[Dict[str, Any]]:
    """Flatten a result file into its per-run records."""
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    if "sets" in document:
        return [record for records in document["sets"] for record in records]
    return [document]


def spread(values: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median (None: < 2 runs)."""
    if len(values) < 2:
        return None
    q = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q[2] - q[0]) / median if median else 0.0


def judge(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> Dict[str, Any]:
    """One metric x workload row."""
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    if better == "lower":
        worsening = (new_median - base_median) / base_median
        all_better = max(new) <= min(base)
        all_worse = min(new) > max(base)
    else:
        worsening = (base_median - new_median) / base_median
        all_better = min(new) >= max(base)
        all_worse = max(new) < min(base)
    spreads = [s for s in (spread(base), spread(new)) if s is not None]
    wide = bool(spreads) and max(spreads) > bound
    if worsening > bound:
        verdict = "unresolved" if wide and not all_worse else "regression"
    else:
        verdict = "unresolved" if wide and not all_better else "ok"
    return {
        "base": base_median,
        "new": new_median,
        "ratio": new_median / base_median,
        "worsening": worsening,
        "spread": max(spreads) if spreads else None,
        "verdict": verdict,
    }


def compare(
    manifest: Dict[str, Any],
    base: List[Dict[str, Any]],
    new: List[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Rows for every end-to-end metric x workload, then the exact checks."""
    rows: List[Dict[str, Any]] = []

    def runs(records: List[Dict[str, Any]], workload: str) -> List[Dict[str, Any]]:
        return [r for r in records if r["workload"] == workload and not r["trace"]]

    for workload in (w["name"] for w in manifest["workloads"]):
        base_runs, new_runs = runs(base, workload), runs(new, workload)
        if not base_runs or not new_runs:
            continue
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            row = judge(
                [r["metrics"][name]["value"] for r in base_runs],
                [r["metrics"][name]["value"] for r in new_runs],
                metric["better"],
                metric["bound"],
            )
            row.update(workload=workload, metric=name, unit=metric["unit"],
                       bound=metric["bound"])
            rows.append(row)
        same_seeds = {r["seed"] for r in base_runs} == {r["seed"] for r in new_runs}
        for name, pick in EXACT.items():
            if name == "digest" and not same_seeds:
                continue  # digests are per seed
            base_values = {json.dumps(pick(r)) for r in base_runs}
            new_values = {json.dumps(pick(r)) for r in new_runs}
            rows.append({
                "workload": workload, "metric": name, "unit": "exact",
                "base": None, "new": None, "ratio": None, "bound": 0,
                "spread": None, "worsening": None,
                "verdict": "ok" if base_values == new_values else "regression",
            })
    return rows


def print_rows(rows: List[Dict[str, Any]]) -> None:
    header = (f"{'workload':17s} {'metric':15s} {'base':>13s} {'new':>13s} "
              f"{'new/base':>9s} {'bound':>6s} {'spread':>7s}  verdict")
    print(header)
    for row in rows:
        if row["ratio"] is None:
            print(f"{row['workload']:17s} {row['metric']:15s} {'':>13s} {'':>13s} "
                  f"{'':>9s} {'exact':>6s} {'':>7s}  {row['verdict']}")
            continue
        shown = "n/a" if row["spread"] is None else f"{row['spread']:.3f}"
        print(f"{row['workload']:17s} {row['metric']:15s} {row['base']:13.6g} "
              f"{row['new']:13.6g} {row['ratio']:9.4f} {row['bound']:6.2f} "
              f"{shown:>7s}  {row['verdict']}  [{row['unit']}]")
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print("  ".join(f"{verdict}: {n}" for verdict, n in sorted(counts.items())))


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(harness.load_manifest(), load_records(args[0]),
                   load_records(args[1]))
    print_rows(rows)
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
