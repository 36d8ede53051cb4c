#!/usr/bin/env python3
"""Summarise and compare saved benchmark runs (`run.py --save FILE`).

    python3 perfbench/compare.py spread RUNS_DIR
        Per workload and metric: median, quartiles, and the quartile
        spread as a share of the median, set against the metric's bound
        in BENCHMARK.json (a spread above a third of the bound is flagged).

    python3 perfbench/compare.py diff BASE_DIR NEW_DIR
        Per workload and metric: both medians and the change as a share
        of the base median. A change worse than the metric's bound is a
        regression; the exit status is 1 if any metric regressed.

Both commands refuse (exit 2) to pool or pair runs whose host blocks
differ -- cores, kernel tier, compiler, build type -- because numbers
from unlike hosts do not compare.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_runs(directory):
    runs = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as handle:
                record = json.load(handle)
            if isinstance(record, dict) and {"host", "result"} <= record.keys():
                runs.append(record)
    if not runs:
        sys.exit(f"compare: no run records in {directory}")
    return runs


def one_host(runs, label):
    hosts = {json.dumps(run["host"], sort_keys=True) for run in runs}
    if len(hosts) != 1:
        print(f"compare: {label} mixes hosts, refusing: {sorted(hosts)}", file=sys.stderr)
        sys.exit(2)
    return hosts.pop()


def specs():
    with open(BENCHMARK) as handle:
        bench = json.load(handle)
    return {metric["name"]: metric for metric in bench["end_to_end"] + bench["per_layer"]}


def values_by_key(runs):
    """(workload, metric) -> values, over every run."""
    table = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            table.setdefault((run["workload"], name), []).append(metric["value"])
    return table


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(directory):
    runs = load_runs(directory)
    one_host(runs, directory)
    metric_specs = specs()
    flagged = 0
    print(f"{'workload':16} {'metric':28} {'runs':>4} {'median':>12} {'spread':>8} {'bound':>6}")
    for (workload, name), values in sorted(values_by_key(runs).items()):
        q1, median, q3 = quartiles(values)
        share = (q3 - q1) / abs(median) if median else 0.0
        bound = metric_specs.get(name, {}).get("bound")
        mark = ""
        if bound is not None and name != "setup_s" and share > bound / 3:
            mark = "  <-- above a third of the bound"
            flagged += 1
        print(f"{workload:16} {name:28} {len(values):4} {median:12.6g} {share:8.4f} "
              f"{bound if bound is not None else '-':>6}{mark}")
    return 1 if flagged else 0


def diff(base_dir, new_dir):
    base_runs, new_runs = load_runs(base_dir), load_runs(new_dir)
    if one_host(base_runs, base_dir) != one_host(new_runs, new_dir):
        print("compare: base and new runs come from unlike hosts, refusing", file=sys.stderr)
        return 2
    metric_specs = specs()
    base, new = values_by_key(base_runs), values_by_key(new_runs)
    regressed = 0
    print(f"{'workload':16} {'metric':28} {'base':>12} {'new':>12} {'change':>8}")
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        before, after = statistics.median(base[key]), statistics.median(new[key])
        change = (after - before) / abs(before) if before else 0.0
        spec = metric_specs.get(name, {})
        worse = -change if spec.get("better") == "higher" else change
        mark = ""
        if "bound" in spec and worse > spec["bound"]:
            mark = "  <-- regression"
            regressed += 1
        print(f"{workload:16} {name:28} {before:12.6g} {after:12.6g} {change:+8.3f}{mark}")
    return 1 if regressed else 0


def main(argv):
    if len(argv) == 3 and argv[1] == "spread":
        return spread(argv[2])
    if len(argv) == 4 and argv[1] == "diff":
        return diff(argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
