"""Compare two sets of benchmark runs; report only, never fail.

Each input is a results file written by ``apbench/run.py`` (one JSON record
per run, e.g. ``.apbench_out/results.jsonl`` of two checkouts).  For every
workload and metric the script prints the median and quartiles of the
per-run values on each side and their spread (quartile distance over the
median).  A metric with a bound in ``BENCHMARK.json`` is flagged WORSE when
the second median is worse than the first by more than the bound, and
UNRESOLVED when either side's spread exceeds the bound, unless every run of
the second side beats every run of the first.

Usage: python3 apbench/compare.py BASE.jsonl CHANGE.jsonl [--spec BENCHMARK.json]
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

DEFAULT_SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path):
    """{(workload, metric): [value per run]} and {metric: unit}."""
    values = defaultdict(list)
    units = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, entry in rec["metrics"].items():
                values[(rec["workload"], name)].append(float(entry["value"]))
                units[name] = entry["unit"]
    return values, units


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def spread(vals):
    q1, q2, q3 = quartiles(vals)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(base, change, rule):
    """WORSE / UNRESOLVED / ok for one metric with a bound, else ''."""
    if rule is None:
        return ""
    lower = rule["better"] == "lower"
    bound = rule["bound"]
    b_med, c_med = statistics.median(base), statistics.median(change)
    if b_med == 0:
        return ""
    worse = (c_med - b_med) / abs(b_med)
    if not lower:
        worse = -worse
    all_better = (max(change) < min(base)) if lower \
        else (min(change) > max(base))
    if max(spread(base), spread(change)) > bound and not all_better:
        return "UNRESOLVED"
    return "WORSE" if worse > bound else "ok"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--spec", default=str(DEFAULT_SPEC),
                        help="BENCHMARK.json with the bounds")
    args = parser.parse_args(argv)

    rules = {}
    if Path(args.spec).is_file():
        spec = json.loads(Path(args.spec).read_text())
        rules = {m["name"]: m for m in spec.get("end_to_end", [])}
    base, units = load_runs(args.base)
    change, change_units = load_runs(args.change)
    units.update(change_units)

    print(f"{'workload':<11}{'metric':<40}{'unit':<7}"
          f"{'base q1/med/q3 (n)':<34}{'change q1/med/q3 (n)':<34}"
          f"{'spread b/c':<14}verdict")
    flagged = 0
    for key in sorted(set(base) | set(change)):
        workload, metric = key
        b, c = base.get(key), change.get(key)
        cells = []
        for vals in (b, c):
            if vals:
                q1, q2, q3 = quartiles(vals)
                cells.append(f"{q1:.4g}/{q2:.4g}/{q3:.4g} ({len(vals)})")
            else:
                cells.append("-")
        spreads = "/".join(f"{spread(v):.3f}" if v else "-" for v in (b, c))
        mark = verdict(b, c, rules.get(metric)) if b and c else ""
        flagged += mark in ("WORSE", "UNRESOLVED")
        print(f"{workload:<11}{metric:<40}{units.get(metric, ''):<7}"
              f"{cells[0]:<34}{cells[1]:<34}{spreads:<14}{mark}")
    print(f"# {flagged} metric(s) flagged; this report does not gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
