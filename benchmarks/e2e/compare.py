"""``python -m benchmarks.e2e compare A.json B.json``: B against baseline A.

Both documents come from ``python -m benchmarks.e2e --out FILE`` with the
same seed and mode, so rep ``i`` of a workload simulated the same input
in both.  Each (metric, workload) is judged on the per-rep ratios B/A,
which cancels the input-to-input spread and leaves host noise.  The
spread is the half-width of the median ratio's notch, 1.57 IQR / √n
(McGill, Tukey and Larsen 1978; non-overlapping notches differ at
roughly 95% confidence):

- ``unresolved``: the spread is wider than the bound, so a change the
  size of the bound could not be told from noise;
- ``regressed``: the median ratio is worse than the bound;
- ``within``: otherwise.

``failed_frac`` regresses on any increase.
"""

from __future__ import annotations

import argparse
import json
import math
from typing import Dict, List, Optional

from benchmarks.e2e.catalog import END_TO_END, quartiles, sample_value


def verdict(metric: str, a: List[float], b: List[float]) -> Dict[str, object]:
    """Compare paired per-rep values of ``metric`` (B over baseline A)."""
    _, better, bound = END_TO_END[metric]
    row: Dict[str, object] = {"a": quartiles(a), "b": quartiles(b), "bound": bound}
    if metric == "failed_frac":
        row["verdict"] = "regressed" if sum(b) > sum(a) else "within"
        return row
    ratios = [y / x for x, y in zip(a, b) if x]
    q1, mid, q3 = quartiles(ratios)
    spread = 1.57 * (q3 - q1) / math.sqrt(len(ratios))
    # Worsening as a positive share of the baseline, whichever the direction.
    worse = mid - 1.0 if better == "lower" else 1.0 - mid
    row["ratio"] = (mid - spread, mid, mid + spread)
    if spread > bound:
        row["verdict"] = "unresolved"
    elif worse > bound:
        row["verdict"] = "regressed"
    else:
        row["verdict"] = "within"
    return row


def compare(a: Dict, b: Dict) -> List[Dict[str, object]]:
    if (a["seed"], a["quick"]) != (b["seed"], b["quick"]):
        raise ValueError("the documents measured different inputs (seed or --quick differ)")
    rows = []
    for metric in END_TO_END:
        for name, entry in a["workloads"].items():
            if name not in b["workloads"]:
                continue
            paired = [
                (sample_value(x, metric), sample_value(y, metric))
                for x, y in zip(entry["samples"], b["workloads"][name]["samples"])
            ]
            paired = [(x, y) for x, y in paired if x is not None and y is not None]
            if paired:
                a_values, b_values = zip(*paired)
                rows.append({"metric": metric, "workload": name, "n": len(paired),
                             **verdict(metric, list(a_values), list(b_values))})
    return rows


def _fmt(q) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="result document A (the baseline)")
    parser.add_argument("candidate", help="result document B")
    args = parser.parse_args(argv)
    with open(args.baseline, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(args.candidate, encoding="utf-8") as fh:
        b = json.load(fh)
    try:
        rows = compare(a, b)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    print(f"{'metric':<13} {'workload':<15} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'B/A median [notch]':<28} {'bound':>5} n verdict")
    for row in rows:
        ratio = _fmt(row["ratio"]) if "ratio" in row else "-"
        print(f"{row['metric']:<13} {row['workload']:<15} {_fmt(row['a']):<34} "
              f"{_fmt(row['b']):<34} {ratio:<28} {row['bound']:>5.2f} {row['n']} {row['verdict']}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0
