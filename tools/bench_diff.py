#!/usr/bin/env python3
"""Compare two c2sl-bench-v1 artifacts and fail on regressions.

    tools/bench_diff.py BASELINE.json CURRENT.json [--threshold 0.15]
                        [--metrics throughput_ops_per_s,latency_ns.p50,...]
                        [--bench-filter REGEX | --bench-include NAMES
                         | --bench-exclude NAMES]

Trajectory mode — persist an artifact's gated metrics as one JSONL row per
bench entry, so the per-PR history spans more than one baseline snapshot
(ROADMAP "bench trajectory tracking" stretch):

    tools/bench_diff.py ARTIFACT.json --append-trajectory TRAJ.jsonl
                        [--label NAME] [--bench-filter REGEX]

Each appended line is {"label", "suite", "bench", "throughput_ops_per_s",
"latency_ns.p50", "latency_ns.p99"}. The checked-in history lives at
bench/baselines/trajectory/trajectory.jsonl; CI appends the current run's
artifacts to a copy and uploads it as a build artifact, so every PR's numbers
are durably retrievable even though absolute values only compare within one
host.

Entries are matched by their "bench" name; --bench-filter restricts the
comparison to entries whose name matches the (re.search) regex, so one
artifact pair can be gated at different thresholds per entry family (CI's
telemetry and trace overhead gates compare only '^mix/mixed$' of two full
suite runs). A filter that matches no common entry is an error (exit 2), not
a silent pass.

For exact-name selection prefer --bench-include / --bench-exclude: each takes
a comma-separated list of exact bench names (no regex), includes keeping only
the listed entries and excludes dropping them. They exist because "everything
except mix/session_churn and mix/resize_storm" as a regex needs a negative
lookahead — write `--bench-exclude mix/session_churn,mix/resize_storm`
instead. The three selectors are mutually exclusive. An include list naming
no common entry is an error (exit 2); an exclude list may legitimately drop
nothing (the names need not be present), but dropping EVERY common entry is
the same exit-2 error as a filter that matches nothing.

For every matched entry the tool compares (by default):
  * metrics.throughput_ops_per_s  — regression if current < baseline*(1-t)
  * metrics.latency_ns.p50 / p99  — regression if current > baseline*(1+t)

--metrics restricts which of those gate the exit code (the others are still
printed). On oversubscribed machines p99 of high-contention entries measures
preemption quanta, not code — gate on throughput_ops_per_s,latency_ns.p50
there.

A NEGATIVE --threshold flips the gate into an IMPROVEMENT requirement: with
--threshold=-0.5, current must beat baseline by at least 50% on every gated
metric or the diff fails. That is how a one-time A/B claim is checked, e.g.
"the new path at least 1.5x the old one, same run, same host"; the claims
already settled this way are listed in README "Historical gates".

Exit status: 0 when no matched metric regresses beyond the threshold, 1
otherwise (2 on malformed input). Entries present in only one artifact are
reported but do not fail the comparison (thread sweeps legitimately differ
across hosts with different core counts).

This is the ROADMAP "bench trajectory tracking" comparator; CI uses it to
gate that the capture layer (metrics + witness trace) costs at most 8%
against a -DC2SL_CAPTURE=OFF build, e.g.

    tools/bench_diff.py BENCH_capture_off.json BENCH_capture_on.json
        --bench-filter '^mix/mixed$' --threshold 0.08
        --metrics throughput_ops_per_s

and to diff against a checked-in baseline informationally (cross-machine
variance makes that advisory).

No dependencies beyond the standard library.
"""

import argparse
import json
import re
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "c2sl-bench-v1":
        raise ValueError(f"{path}: schema is {doc.get('schema')!r}, want 'c2sl-bench-v1'")
    entries = {}
    for entry in doc.get("results", []):
        entries[entry["bench"]] = entry.get("metrics", {})
    if not entries:
        raise ValueError(f"{path}: no results")
    return entries


def metric(metrics, dotted):
    node = metrics
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node if isinstance(node, (int, float)) else None


# (dotted path, direction): +1 means higher-is-better, -1 lower-is-better.
CHECKS = [
    ("throughput_ops_per_s", +1),
    ("latency_ns.p50", -1),
    ("latency_ns.p99", -1),
]


def make_selector(args):
    """Build a name -> bool predicate from the (exclusive) selection flags.

    Returns (selector, error): exactly one is None. Exact names are
    deliberately NOT regexes — they come from CI lines where an accidental
    metacharacter ('.', '+') silently widens a regex match.
    """
    chosen = [name for name, value in
              [("--bench-filter", args.bench_filter),
               ("--bench-include", args.bench_include),
               ("--bench-exclude", args.bench_exclude)] if value is not None]
    if len(chosen) > 1:
        return None, f"{' and '.join(chosen)} are mutually exclusive"
    if args.bench_filter is not None:
        try:
            pattern = re.compile(args.bench_filter)
        except re.error as e:
            return None, f"bad --bench-filter: {e}"
        return (lambda name: pattern.search(name) is not None), None
    if args.bench_include is not None:
        names = {n.strip() for n in args.bench_include.split(",") if n.strip()}
        if not names:
            return None, "--bench-include names no benches"
        return (lambda name: name in names), None
    if args.bench_exclude is not None:
        names = {n.strip() for n in args.bench_exclude.split(",") if n.strip()}
        if not names:
            return None, "--bench-exclude names no benches"
        return (lambda name: name not in names), None
    return (lambda name: True), None


def selection_note(args):
    for flag, value in [("--bench-filter", args.bench_filter),
                        ("--bench-include", args.bench_include),
                        ("--bench-exclude", args.bench_exclude)]:
        if value is not None:
            return f" ({flag} {value!r})"
    return ""


def append_trajectory(args, selector):
    """Append one JSONL row per (selected) bench entry of `args.baseline`."""
    try:
        with open(args.baseline) as f:
            doc = json.load(f)
        if doc.get("schema") != "c2sl-bench-v1":
            raise ValueError(f"{args.baseline}: schema is "
                             f"{doc.get('schema')!r}, want 'c2sl-bench-v1'")
        entries = doc.get("results", [])
        if not entries:
            raise ValueError(f"{args.baseline}: no results")
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2
    rows = []
    for entry in entries:
        if not selector(entry["bench"]):
            continue
        metrics = entry.get("metrics", {})
        row = {"label": args.label, "suite": doc.get("suite", ""),
               "bench": entry["bench"]}
        for path, _ in CHECKS:
            value = metric(metrics, path)
            if value is not None:
                row[path] = value
        rows.append(row)
    if not rows:
        print("bench_diff: no entries matched for the trajectory"
              + selection_note(args), file=sys.stderr)
        return 2
    with open(args.append_trajectory, "a") as out:
        for row in rows:
            out.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"bench_diff: appended {len(rows)} trajectory row(s) "
          f"[label {args.label!r}] to {args.append_trajectory}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current", nargs="?", default=None)
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed relative regression (default 0.15 = 15%%)")
    ap.add_argument("--metrics", default=None,
                    help="comma-separated subset of metrics that gate the exit "
                         "code (default: all known metrics)")
    ap.add_argument("--bench-filter", default=None, metavar="REGEX",
                    help="only compare entries whose bench name matches this "
                         "regex (re.search); no match is an error")
    ap.add_argument("--bench-include", default=None, metavar="NAMES",
                    help="comma-separated EXACT bench names to compare; "
                         "mutually exclusive with the other selectors")
    ap.add_argument("--bench-exclude", default=None, metavar="NAMES",
                    help="comma-separated EXACT bench names to drop; "
                         "mutually exclusive with the other selectors")
    ap.add_argument("--append-trajectory", default=None, metavar="JSONL",
                    help="append the (single) artifact's gated metrics to this "
                         "JSONL history instead of comparing two artifacts")
    ap.add_argument("--label", default="unlabelled",
                    help="row label for --append-trajectory (e.g. a PR or SHA)")
    args = ap.parse_args()
    selector, err = make_selector(args)
    if err is not None:
        print(f"bench_diff: {err}", file=sys.stderr)
        return 2
    if args.append_trajectory is not None:
        if args.current is not None:
            print("bench_diff: --append-trajectory takes exactly one artifact",
                  file=sys.stderr)
            return 2
        return append_trajectory(args, selector)
    if args.current is None:
        print("bench_diff: comparison mode needs BASELINE and CURRENT",
              file=sys.stderr)
        return 2
    gating = (set(m.strip() for m in args.metrics.split(","))
              if args.metrics else {path for path, _ in CHECKS})
    unknown = gating - {path for path, _ in CHECKS}
    if unknown:
        print(f"bench_diff: unknown --metrics {sorted(unknown)}; "
              f"known: {[p for p, _ in CHECKS]}", file=sys.stderr)
        return 2

    try:
        base = load(args.baseline)
        curr = load(args.current)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2

    base = {k: v for k, v in base.items() if selector(k)}
    curr = {k: v for k, v in curr.items() if selector(k)}

    only_base = sorted(set(base) - set(curr))
    only_curr = sorted(set(curr) - set(base))
    matched = sorted(set(base) & set(curr))
    if not matched:
        print("bench_diff: no common bench entries to compare"
              + selection_note(args), file=sys.stderr)
        return 2

    regressions = []
    print(f"{'bench':<34} {'metric':<22} {'baseline':>12} {'current':>12} {'delta':>8}")
    for name in matched:
        for path, direction in CHECKS:
            b = metric(base[name], path)
            c = metric(curr[name], path)
            if b is None or c is None:
                continue
            if b <= 0:
                continue  # can't compute a ratio; zero latencies happen on coarse clocks
            delta = (c - b) / b
            # A regression is slower throughput or higher latency.
            regressed = path in gating and (
                (direction > 0 and delta < -args.threshold) or
                (direction < 0 and delta > args.threshold))
            flag = "  REGRESSION" if regressed else ""
            print(f"{name:<34} {path:<22} {b:>12.0f} {c:>12.0f} {delta:>+7.1%}{flag}")
            if regressed:
                regressions.append((name, path, delta))

    for name in only_base:
        print(f"note: '{name}' only in baseline (skipped)")
    for name in only_curr:
        print(f"note: '{name}' only in current (skipped)")

    if regressions:
        print(f"\nbench_diff: {len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%} threshold", file=sys.stderr)
        return 1
    print(f"\nbench_diff: ok ({len(matched)} entries within {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
