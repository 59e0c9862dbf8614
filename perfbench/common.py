"""Helpers shared by the benchmark workloads: statistics, env stamp, output.

Every workload module exposes ``run(ctx) -> Outcome``; ``run.py`` turns the
outcome into the one-line JSON result the benchmark contract asks for.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Sequence, Tuple

#: Repository root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
#: Where runs leave their env stamps, span files and result copies.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: A timing percentile needs at least this many samples beyond it
#: (choosing-metrics guide: "the highest percentile that has at least ten
#: samples beyond it"). Each workload fixes its tail percentile so that its
#: runs have that many; ``tail`` records whether one did.
MIN_SAMPLES_BEYOND = 10


@dataclass
class Context:
    """What every workload receives from the command line."""

    seed: int
    seconds: float
    trace: bool
    started: float  # perf_counter() at process start, before importing repro


@dataclass
class Outcome:
    """One workload run, before it is printed.

    ``metrics`` maps a metric name to ``(value, unit)``, or to a bare value
    whose unit ``run.py`` reads off the name's suffix; ``checks`` maps a
    check name to whether it passed, and ``correct`` is their conjunction.
    ``params`` and ``extra`` go to the env line and the result file only.
    """

    attempted: int
    failed: int
    metrics: Dict[str, tuple]
    checks: Dict[str, bool]
    params: Dict[str, object]
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default rule), pure Python."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: Sequence[float], q: float) -> Tuple[float, dict]:
    """The ``q`` quantile plus how many samples lie beyond it."""
    beyond = int(len(values) * (1.0 - q))
    return quantile(values, q), {
        "quantile": q, "samples": len(values), "beyond": beyond,
        "enough": beyond >= MIN_SAMPLES_BEYOND,
    }


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size of this process (plus its largest reaped child)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def source_digest() -> str:
    """SHA-256 over ``src/**/*.py`` — identifies the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def env_stamp(workload: str, ctx: Context, params: Dict[str, object]) -> dict:
    """The context a number must never be read without."""
    import numpy

    return {
        "workload": workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "params": params,
    }


def emit(workload: str, ctx: Context, outcome: Outcome) -> None:
    """Print the env line and the result line; keep a copy under ``out/``."""
    stamp = env_stamp(workload, ctx, outcome.params)
    result = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(env=stamp, checks=outcome.checks, extra=outcome.extra, result=result)
    tag = f"{workload}-seed{ctx.seed}-trace{int(ctx.trace)}"
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    print(json.dumps({"env": stamp, "checks": outcome.checks}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)


def now() -> float:
    return time.perf_counter()


def ok_pct(attempted: int, failed: int) -> float:
    return 100.0 * (attempted - failed) / attempted if attempted else 0.0
