#!/usr/bin/env python3
"""Compare two sets of c2bench runs: the parent commit against a change.

    python3 bench/c2bench/compare.py PARENT.jsonl CHANGE.jsonl [--bench BENCHMARK.json]

Each file holds run.py --record lines, in the order the runs were made. Run
the two sides in alternating order (parent, change, change, parent, ...) so
the i-th run of each side, per workload, forms a pair.

One `correctness` row per workload: worse when any change run failed its
correctness check (or left no result), or when the change failed a larger
share of its calls than the parent.

One row per (end-to-end metric, workload) over the runs that passed their
check: each side's median and quartiles, the change's win share over the
pairs in which both runs passed (ties count for neither side), and a verdict
against the metric's bound in BENCHMARK.json:

  unresolved  a side's IQR/median exceeds the bound, unless every change run
              beats every parent run
  improved    the change wins at least 9 pairs in 10 and the medians differ,
              in its favour, by more than the parent's IQR
  worse       the change's median is worse than the parent's by more than the
              bound
  unchanged   otherwise

Traced runs (--trace 1) add one row per per-layer metric with the relative
change of the medians and no verdict. Exits 1 when any row is worse.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCH = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """IQR as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def better(a, b, direction):
    """True when value a is better than value b."""
    return a > b if direction == "higher" else a < b


def win_share(pairs, direction):
    """Share of (parent, change) pairs the change wins; ties count for neither."""
    if not pairs:
        return 0.0
    return sum(1 for p, c in pairs if better(c, p, direction)) / len(pairs)


def verdict(parent, change, direction, bound, wins):
    """Verdict of one (metric, workload) row from each side's values and the
    change's win share over the aligned pairs."""
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if (spread(parent) > bound or spread(change) > bound) and not all_better:
        return "unresolved"
    gain = (cmed - pmed) if direction == "higher" else (pmed - cmed)
    if wins >= 0.9 and gain > (p3 - p1):
        return "improved"
    if -gain > bound * abs(pmed):
        return "worse"
    return "unchanged"


def passed(record):
    return record["result"]["correct"]


def failed_share(records):
    attempted = sum(r["result"]["attempted"] for r in records)
    return sum(r["result"]["failed"] for r in records) / attempted if attempted else 0.0


def correctness_row(workload, parent, change):
    p_bad = sum(1 for r in parent if not passed(r))
    c_bad = sum(1 for r in change if not passed(r))
    p_fail, c_fail = failed_share(parent), failed_share(change)
    worse = c_bad > 0 or c_fail > p_fail
    return {"workload": workload, "metric": "correctness",
            "incorrect": (p_bad, c_bad), "runs": (len(parent), len(change)),
            "failed_share": (p_fail, c_fail),
            "verdict": "worse" if worse else "unchanged"}


def runs_of(records, trace, workload):
    """The workload's runs of one kind, in the order they were made."""
    return [r for r in records
            if r.get("trace", 0) == trace and r["workload"] == workload]


def compare(parent_records, change_records, bench):
    """Rows of the comparison: a correctness row per workload, then dicts
    with workload, metric, both sides' quartiles, win share and verdict (None
    for per-layer rows)."""
    rows = []
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    for trace in (0, 1):
        names = list(e2e) if trace == 0 else [m["name"] for m in bench["per_layer"]]
        for w in workloads:
            pr, cr = runs_of(parent_records, trace, w), runs_of(change_records, trace, w)
            if not pr or (not cr and trace == 1):
                continue
            if trace == 0:
                rows.append(correctness_row(w, pr, cr))
            for name in names:
                p = [r["result"]["metrics"][name]["value"] for r in pr
                     if passed(r) and name in r["result"]["metrics"]]
                c = [r["result"]["metrics"][name]["value"] for r in cr
                     if passed(r) and name in r["result"]["metrics"]]
                if not p or not c:
                    continue
                row = {"workload": w, "metric": name, "parent": quartiles(p),
                       "change": quartiles(c), "runs": (len(p), len(c))}
                if trace == 0:
                    m = e2e[name]
                    pairs = [(a["result"]["metrics"][name]["value"],
                              b["result"]["metrics"][name]["value"])
                             for a, b in zip(pr, cr) if passed(a) and passed(b)]
                    row["wins"] = win_share(pairs, m["better"])
                    row["verdict"] = verdict(p, c, m["better"], m["bound"], row["wins"])
                else:
                    pmed = row["parent"][1]
                    row["delta"] = (row["change"][1] - pmed) / abs(pmed) if pmed else None
                    row["verdict"] = None
                rows.append(row)
    return rows


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def fmt(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--bench", default=DEFAULT_BENCH)
    args = ap.parse_args(argv)
    with open(args.bench) as f:
        bench = json.load(f)
    rows = compare(load(args.parent), load(args.change), bench)
    if not rows:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    for r in rows:
        if r["metric"] == "correctness":
            (pb, cb), (pn, cn), (pf, cf) = r["incorrect"], r["runs"], r["failed_share"]
            print(f"{'correctness':<44} {r['workload']:<8} incorrect {pb}/{pn} -> {cb}/{cn}, "
                  f"failed share {pf:.3g} -> {cf:.3g}  {r['verdict']}")
        elif r["verdict"] is None:
            d = "n/a" if r["delta"] is None else f"{r['delta']:+.2%}"
            print(f"{r['metric']:<44} {r['workload']:<8} {fmt(r['parent']):>36} "
                  f"{fmt(r['change']):>36}  delta {d}")
        else:
            print(f"{r['metric']:<44} {r['workload']:<8} {fmt(r['parent']):>36} "
                  f"{fmt(r['change']):>36}  wins {r['wins']:.0%}  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
