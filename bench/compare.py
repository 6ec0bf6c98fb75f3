"""Summarize one set of benchmark runs, or compare two, per workload and metric.

    python3 bench/compare.py RUNS_DIR            # spread of each metric
    python3 bench/compare.py BASE_DIR HEAD_DIR   # head against base

A runs directory holds the standard output of `run.py --trace 0`, one file
per run, as `sweep.py` writes it. For every end-to-end metric the report
gives median and quartiles, pair wins (runs paired by seed) and the bound
check with one rule:

- unresolved: either side's spread, (q3 - q1) / median, exceeds the bound,
  unless every head run beats every base run;
- regressed:  the head median is worse than the base median by more than
  the bound;
- improved:   head wins at least 9 of 10 pairs and the medians differ by
  more than the base's own quartile distance;
- same:       anything else.

Metrics in the run records that BENCHMARK.json does not bound (the ladder
rungs) are shown with the same columns and judged without the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load_runs(directory):
    """{workload: [record, ...]} from the untraced run outputs in a directory."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        for line in path.read_text().splitlines():
            if line.startswith("record "):
                rec = json.loads(line[len("record "):])
                if rec["trace"] == 0:
                    runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(base, head, better, bound, pairs):
    """The rule in the module docstring; values are per-run medians."""
    def beats(a, b):
        return a < b if better == "lower" else a > b
    _, base_med, _ = quartiles(base)
    _, head_med, _ = quartiles(head)
    worse = (head_med - base_med) / base_med * (1 if better == "lower" else -1)
    wins = sum(1 for b, h in pairs if beats(h, b))
    all_better = all(beats(h, b) for h in head for b in base)
    if bound is not None and max(spread(base), spread(head)) > bound and not all_better:
        return "unresolved", wins, worse
    if bound is not None and worse > bound:
        return "regressed", wins, worse
    q1, _, q3 = quartiles(base)
    if pairs and wins >= 0.9 * len(pairs) and abs(head_med - base_med) > q3 - q1:
        return "improved", wins, worse
    return "same", wins, worse


def metric_rows(spec, runs):
    declared = {m["name"]: m for m in spec["end_to_end"]}
    names = list(declared)
    for rec in runs:
        names += [n for n in rec["metrics"] if n not in names and n.startswith("rung.")]
    return [(n, declared.get(n, {"better": "lower", "bound": None})) for n in names]


def values(runs, name):
    return {rec["seed"]: rec["metrics"][name]["value"] for rec in runs if name in rec["metrics"]}


def fmt(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    sets = [load_runs(d) for d in argv]
    flagged = 0
    for workload in sorted(set().union(*sets)):
        groups = [s.get(workload, []) for s in sets]
        failed = [sum(len(r["failures"]) for r in g) for g in groups]
        print(f"== {workload}: runs {[len(g) for g in groups]}, failed instances {failed}")
        for name, meta in metric_rows(spec, [r for g in groups for r in g]):
            sides = [values(g, name) for g in groups]
            if not all(sides):
                continue
            bound = meta["bound"]
            cells = [fmt(quartiles(list(s.values()))) for s in sides]
            if len(sides) == 1:
                sp = spread(list(sides[0].values()))
                state = "" if bound is None else ("ok" if sp <= bound else "unresolved")
                flagged += state == "unresolved"
                print(f"  {name:<22} {cells[0]:<40} spread {sp:.3f} bound {bound} {state}")
                continue
            base, head = sides
            pairs = [(base[s], head[s]) for s in base if s in head]
            state, wins, worse = verdict(list(base.values()), list(head.values()),
                                         meta["better"], bound, pairs)
            flagged += state in ("unresolved", "regressed")
            print(f"  {name:<22} base {cells[0]:<36} head {cells[1]:<36} "
                  f"wins {wins}/{len(pairs)} worse {worse:+.3f} bound {bound} {state}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
