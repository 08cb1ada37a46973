"""``python -m benchmarks.ledger.compare A.json B.json`` — the before/after table.

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B / A (A is the base), the metric's bound and a
verdict.  ``worse`` and ``better`` mean B differs from A by more than the
bound and by more than the run-to-run spread; ``unresolved`` means the
spread is wider than the bound, so the row cannot say "unchanged";
``within`` is everything else.  Simulated metrics repeat exactly for a
seed, so their spread is taken as zero and the quartiles shown are those
over the timed children's seeds.  Exit status is 1 when any row is
``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Tuple

from benchmarks.ledger.spec import END_TO_END, Metric

USAGE = "usage: python -m benchmarks.ledger.compare A.json B.json"


def verdict(metric: Metric, base: Dict[str, float], other: Dict[str, float]) -> str:
    """Where ``other`` stands against ``base`` on one metric."""
    worsening = (other["value"] - base["value"]) / base["value"]
    if metric.better == "higher":
        worsening = -worsening
    noise = 0.0
    if metric.clock == "host":
        noise = max((entry["q3"] - entry["q1"]) / entry["value"] for entry in (base, other))
    if worsening > max(metric.bound, noise):
        return "worse"
    if -worsening > max(metric.bound, noise):
        return "better"
    return "unresolved" if noise > metric.bound else "within"


def compare(base: Dict[str, object], other: Dict[str, object]) -> Tuple[List[str], List[str]]:
    """``(table lines, names of the rows that are worse)``."""
    lines: List[str] = []
    worse: List[str] = []
    for name in (base, other):
        if not name.get("comparable", True):
            lines.append("note: a smoke run is being compared; its numbers mean nothing")
    for workload, record in base["workloads"].items():
        if workload not in other["workloads"]:
            lines.append(f"{workload}: missing from B")
            continue
        ours = record["end_to_end"]
        theirs = other["workloads"][workload]["end_to_end"]
        same_inputs = ours["config_seeds"] == theirs["config_seeds"]
        digests = "identical" if ours["digests"] == theirs["digests"] else "DIFFERENT"
        lines.append(
            f"{workload}: inputs {'identical' if same_inputs else 'differ'}, digests {digests}"
        )
        for metric in END_TO_END:
            a = ours["end_to_end"][metric.name]
            b = theirs["end_to_end"][metric.name]
            row = verdict(metric, a, b)
            if row == "worse":
                worse.append(f"{workload}:{metric.name}")
            lines.append(
                f"  {metric.name:18s} {metric.clock:4s} "
                f"A {a['value']:.4f} [{a['q1']:.4f}, {a['q3']:.4f}]  "
                f"B {b['value']:.4f} [{b['q1']:.4f}, {b['q3']:.4f}]  "
                f"B/A {b['value'] / a['value']:.4f} {metric.unit} ({metric.better} is better)  "
                f"bound {metric.bound:.0%}  {row}"
            )
    return lines, worse


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(USAGE, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    lines, worse = compare(*documents)
    print("\n".join(lines))
    if worse:
        print(f"worse: {', '.join(worse)}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
