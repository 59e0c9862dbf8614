"""Benchmark entry point: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_fig7 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
makes a separate traced run and reports the per-layer metrics (see
``perfbench/README.md``). The last line of stdout is the JSON result; the line
before it is the environment stamp. Progress goes to stderr. Copies of both,
and the traced run's spans, are written under ``perfbench/out/``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_fig7", "fleet12", "serve_10hz")

#: Unit of a metric, read off its name's suffix.
_UNITS = (("_count", "count"), ("_ms", "ms"), ("_s", "s"), ("_pct", "%"), ("_ratio", "ratio"))


def unit_for(name: str) -> str:
    for suffix, unit in _UNITS:
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit rule for metric {name!r}")


def _spec_names(kind: str):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [entry["name"] for entry in spec[kind]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import common

    ctx = common.Context(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace), started=STARTED
    )
    if args.workload == "paper_fig7":
        import fig7 as workload
    elif args.workload == "fleet12":
        import fleet as workload
    else:
        import serve as workload
    outcome = workload.run(ctx)

    expected = _spec_names("per_layer" if ctx.trace else "end_to_end")
    metrics = {}
    for name in expected:
        if name not in outcome.metrics:
            # A layer this workload bypasses: zero is its measurement.
            if not ctx.trace:
                raise KeyError(f"{args.workload} did not report {name}")
            outcome.extra.setdefault("bypassed", []).append(name)
            value = 0.0
        else:
            value = outcome.metrics[name]
        metrics[name] = value if isinstance(value, tuple) else (value, unit_for(name))
    unexpected = sorted(set(outcome.metrics) - set(expected))
    if unexpected:
        raise KeyError(f"{args.workload} reported undeclared metrics {unexpected}")
    outcome.metrics = metrics
    common.emit(args.workload, ctx, outcome)
    if not outcome.correct:
        failed = [name for name, ok in outcome.checks.items() if not ok]
        print(f"failed checks: {failed}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
