"""Compare BENCH_*.json perf artifacts against a previous run.

CI calls this after the benchmark steps with the previous successful
run's artifacts downloaded into a directory::

    python benchmarks/diff_bench.py previous-bench/ . --threshold 0.2

Every known artifact present on both sides is diffed metric by metric:

* a change worse than the threshold (default 20%) prints a warning
  (and a ``::warning`` annotation under GitHub Actions);
* a change *better* than the threshold prints a ``good`` line (and a
  ``::notice`` annotation) — improvements are reported, not just
  regressions;
* schema drift degrades gracefully: metrics present on only one side
  (new metric, or dropped metric) print a ``note`` instead of
  crashing or silently vanishing, and when an artifact's *scale
  context* changed (node count, epoch count, epoch length), its raw
  wall-clock metrics are skipped with an explicit note — comparing
  epochs/sec across different workload sizes would warn in both
  directions for no reason.

``--summary FILE`` appends a GitHub-flavored markdown digest (pass
``"$GITHUB_STEP_SUMMARY"`` in CI). The exit code is 0 unless
``--strict`` is given — perf numbers from shared CI runners are too
noisy to gate merges on, so regressions warn rather than fail.

Stdlib-only on purpose: runnable before the package is installed, or
against artifact directories on a laptop.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterator, List, Tuple

#: Artifact file -> comparison plan. ``metrics`` maps dotted paths to a
#: direction (``*`` in a path fans out over dict keys; direction says
#: which way is better, so "regression" always means "worse").
#: ``context`` lists scale keys: when any differs between the two
#: artifacts, the workload changed shape and raw rates are skipped.
ARTIFACTS = {
    "BENCH_cluster.json": {
        "metrics": [
            ("schemes.*.epochs_per_s", "higher"),
            ("schemes.*.decide_ms.mean", "lower"),
            ("schemes.*.decide_ms.max", "lower"),
            ("pooled.pooled_wall_s.median", "lower"),
            ("pooled.serial_wall_s.median", "lower"),
            ("pooled.speedup.median", "higher"),
        ],
        "context": ["n_nodes", "n_epochs", "epoch_seconds", "pooled.workers"],
    },
    "BENCH_chaos.json": {
        "metrics": [
            ("epochs_per_s", "higher"),
        ],
        "context": ["n_nodes", "n_epochs", "epoch_seconds"],
    },
    "BENCH_serve.json": {
        "metrics": [
            ("sessions_per_sec", "higher"),
            ("steps_per_sec", "higher"),
            ("decision_latency_p50_ms", "lower"),
            ("decision_latency_p99_ms", "lower"),
        ],
        "context": ["sessions", "n_epochs"],
    },
    # SLO attainment is one-sided: losing attainment is a regression,
    # gaining it is an improvement. Fairness likewise. First runs (no
    # previous BENCH_qos.json) skip gracefully like any absent artifact.
    "BENCH_qos.json": {
        "metrics": [
            ("shapes.*.*.attainment", "higher"),
            ("shapes.*.*.fairness", "higher"),
            ("epochs_per_s", "higher"),
        ],
        "context": ["n_nodes", "n_epochs", "epoch_seconds",
                    "slo.min_speedup"],
    },
}


def extract(data, path: str) -> Iterator[Tuple[str, float]]:
    """Yield ``(label, value)`` for a dotted path; ``*`` fans out.

    Tolerant of schema drift by construction: missing keys, non-dict
    intermediates, and non-numeric leaves yield nothing rather than
    raising, so a renamed or removed metric can never crash the diff.
    """
    head, _, rest = path.partition(".")
    if head == "*":
        if isinstance(data, dict):
            for key in sorted(data):
                for label, value in extract(data[key], rest):
                    yield (f"{key}.{label}" if label else key), value
        return
    if isinstance(data, dict) and head in data:
        if rest:
            for label, value in extract(data[head], rest):
                yield (f"{head}.{label}" if label else head), value
        elif isinstance(data[head], (int, float)) and not isinstance(data[head], bool):
            yield head, float(data[head])


def lookup(data, path: str):
    """Value at a dotted path (no wildcards), or None when absent."""
    for part in path.split("."):
        if not isinstance(data, dict) or part not in data:
            return None
        data = data[part]
    return data


def regression(previous: float, current: float, direction: str) -> float:
    """Fractional change in the *worse* direction (negative = improved)."""
    if previous == 0:
        return 0.0
    delta = (current - previous) / abs(previous)
    return -delta if direction == "higher" else delta


def context_changes(name: str, previous: dict, current: dict) -> List[str]:
    """Scale-context keys whose values differ between the two sides."""
    changes = []
    for key in ARTIFACTS[name].get("context", []):
        prev, cur = lookup(previous, key), lookup(current, key)
        if prev != cur:
            changes.append(f"{key} {prev} -> {cur}")
    return changes


def diff_artifact(name: str, previous: dict, current: dict,
                  threshold: float) -> Tuple[List[str], List[str], List[str]]:
    """Diff one artifact; returns (warnings, improvements, notes)."""
    warnings: List[str] = []
    improvements: List[str] = []
    notes: List[str] = []

    changed = context_changes(name, previous, current)
    if changed:
        notes.append(
            f"{name}: benchmark scale changed ({'; '.join(changed)}); "
            "raw metric comparisons skipped"
        )
        return warnings, improvements, notes

    for path, direction in ARTIFACTS[name]["metrics"]:
        prev_values = dict(extract(previous, path))
        cur_values = dict(extract(current, path))
        if not prev_values and not cur_values:
            continue
        for label in sorted(set(prev_values) - set(cur_values)):
            notes.append(f"{name}: {label} dropped (was {prev_values[label]:.4g})")
        for label in sorted(set(cur_values) - set(prev_values)):
            notes.append(
                f"{name}: {label} is new (no previous value; now "
                f"{cur_values[label]:.4g})"
            )
        for label in sorted(set(cur_values) & set(prev_values)):
            prev, cur = prev_values[label], cur_values[label]
            worse = regression(prev, cur, direction)
            arrow = "worse" if worse > 0 else "better"
            line = (f"{name}: {label} {prev:.4g} -> {cur:.4g} "
                    f"({abs(worse):.1%} {arrow})")
            if worse > threshold:
                warnings.append(line)
            elif -worse > threshold:
                improvements.append(line)
                print(f"  good  {line}")
            else:
                print(f"  ok    {line}")
    return warnings, improvements, notes


def load(path: str):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def write_summary(path: str, compared: int, warnings: List[str],
                  improvements: List[str], notes: List[str],
                  threshold: float) -> None:
    """Append a markdown digest (``$GITHUB_STEP_SUMMARY`` format)."""
    lines = ["## Bench diff", ""]
    lines.append(
        f"Compared {compared} artifact(s) at a ±{threshold:.0%} threshold: "
        f"{len(warnings)} regression(s), {len(improvements)} improvement(s)."
    )
    for title, rows, mark in (
        ("Regressions", warnings, "⚠️"),
        ("Improvements", improvements, "✅"),
        ("Notes", notes, "ℹ️"),
    ):
        if rows:
            lines += ["", f"### {title}", ""]
            lines += [f"- {mark} {row}" for row in rows]
    lines.append("")
    with open(path, "a") as handle:
        handle.write("\n".join(lines))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="diff BENCH_*.json artifacts against a previous run")
    parser.add_argument("previous", help="directory with the previous run's artifacts")
    parser.add_argument("current", nargs="?", default=".",
                        help="directory with this run's artifacts (default: .)")
    parser.add_argument("--threshold", type=float, default=0.2,
                        help="report when a metric moves this fraction (default 0.2)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when any metric regresses")
    parser.add_argument("--summary", metavar="FILE", default=None,
                        help="append a markdown digest to FILE "
                             "(e.g. \"$GITHUB_STEP_SUMMARY\")")
    args = parser.parse_args(argv)

    warnings: List[str] = []
    improvements: List[str] = []
    notes: List[str] = []
    compared = 0
    for name in ARTIFACTS:
        previous = load(os.path.join(args.previous, name))
        current = load(os.path.join(args.current, name))
        if previous is None or current is None:
            side = "previous" if previous is None else "current"
            print(f"  skip  {name}: no {side} artifact")
            continue
        compared += 1
        warned, improved, noted = diff_artifact(
            name, previous, current, args.threshold)
        warnings.extend(warned)
        improvements.extend(improved)
        notes.extend(noted)

    for line in notes:
        print(f"  note  {line}")
    for line in warnings:
        message = f"perf regression >{args.threshold:.0%}: {line}"
        print(f"  WARN  {message}")
        if os.environ.get("GITHUB_ACTIONS"):
            print(f"::warning title=bench regression::{message}")
    if os.environ.get("GITHUB_ACTIONS"):
        for line in improvements:
            print(f"::notice title=bench improvement::{line}")

    print(f"compared {compared} artifact(s), {len(warnings)} regression(s), "
          f"{len(improvements)} improvement(s)")
    if args.summary:
        write_summary(args.summary, compared, warnings, improvements, notes,
                      args.threshold)
    return 1 if (args.strict and warnings) else 0


if __name__ == "__main__":
    sys.exit(main())
