"""``paper_fig7``: the Fig. 7 PARSEC comparison as a pure compute batch.

All 21 five-job PARSEC mixes x (Balanced Oracle + Random, dCAT, CoPart,
PARTIES, SATORI), 20 simulated seconds each, through a serial
``ExecutionEngine()`` with no ``RunCache``: 126 policy runs of 200 control
intervals per pass. The seed is the comparison seed (it drives every run's
noise and policy streams).

Why: this is the paper's headline experiment. Its time is in ``policies``
and ``system`` (the interval loop outside SATORI's ``decide``), plus
``engine`` codec and final-snapshot costs once per run; it bypasses
``cluster``, ``broker`` and ``serve``, so it is the workload on which a
change to those layers must show no change.

One op is one spec through ``engine.run([spec])``. A run makes
``round(seconds / PASS_NOMINAL_S)`` passes (at least one), so its work is
fixed by ``--seconds``; every pass must reproduce the first one's Fig. 7
aggregate exactly.
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Tuple

from repro.engine import ExecutionEngine, RunError
from repro.experiments import STANDARD_POLICY_ORDER, RunConfig, comparison_specs
from repro.experiments.runner import experiment_catalog
from repro.obs import TraceCollector, use_collector
from repro.workloads.mixes import suite_mixes

import common
import layers

RUN_SECONDS = 20.0  # simulated seconds per policy run (the Fig. 7 setting)
SUITE = "parsec"
SETUP_REPEATS = 5
#: Host seconds one pass takes on a 2-CPU reference machine (~29 s).
PASS_NOMINAL_S = 29.0
#: Mixes run untraced first in a traced run, as the overhead reference.
OVERHEAD_REF_MIXES = 7


def build_specs(seed: int):
    """Per mix: the Balanced Oracle spec, then one spec per policy."""
    catalog = experiment_catalog()
    config = RunConfig(duration_s=RUN_SECONDS)
    return [
        comparison_specs(mix, catalog, config, seed=seed)
        for mix in suite_mixes(SUITE)
    ]


def run_pass(per_mix, durations: List[float], op_span=contextlib.nullcontext):
    """One full pass on a fresh serial engine; returns results and the engine."""
    engine = ExecutionEngine()
    results = []
    for oracle_spec, policy_specs in per_mix:
        row = []
        for spec in (oracle_spec, *policy_specs.values()):
            started = common.now()
            with op_span():
                outcome = engine.run([spec], on_error="record")[0]
            durations.append(common.now() - started)
            row.append(outcome)
        results.append(row)
    return results, engine


def aggregate(results) -> Dict[str, Tuple[float, float]]:
    """Fig. 7: mean % of the Balanced Oracle per policy (both goals)."""
    sums = {name: [0.0, 0.0] for name in STANDARD_POLICY_ORDER}
    for oracle, *runs in results:
        for name, run in zip(STANDARD_POLICY_ORDER, runs):
            sums[name][0] += 100.0 * run.throughput / max(oracle.throughput, 1e-12)
            sums[name][1] += 100.0 * run.fairness / max(oracle.fairness, 1e-12)
    return {name: (t / len(results), f / len(results)) for name, (t, f) in sums.items()}


def fig7_checks(agg) -> Dict[str, bool]:
    """The contract ``benchmarks/test_fig07_parsec_aggregate.py`` pins."""
    satori_t, satori_f = agg["SATORI"]
    t = {name: value[0] for name, value in agg.items()}
    return {
        "fig7.satori_throughput_ge_85pct": satori_t >= 85.0,
        "fig7.satori_fairness_ge_85pct": satori_f >= 85.0,
        "fig7.satori_beats_parties_by_5": satori_t > t["PARTIES"] + 5.0,
        "fig7.throughput_ordering": t["Random"] < t["CoPart"] < t["PARTIES"] < satori_t,
        "fig7.dcat_below_parties": t["dCAT"] < t["PARTIES"],
        "fig7.fairness_above_random": all(
            agg[name][1] > agg["Random"][1]
            for name in ("dCAT", "CoPart", "PARTIES", "SATORI")
        ),
    }


def _setup(ctx) -> Tuple[list, float]:
    times = []
    for _ in range(SETUP_REPEATS):
        started = common.now()
        per_mix = build_specs(ctx.seed)
        times.append(common.now() - started)
    return per_mix, common.median(times)


def _n_specs(per_mix) -> int:
    return sum(1 + len(policy_specs) for _, policy_specs in per_mix)


def _intervals(results) -> int:
    return sum(
        len(run.telemetry) for row in results for run in row if not isinstance(run, RunError)
    )


def run(ctx) -> common.Outcome:
    import_s = common.now() - ctx.started
    per_mix, build_s = _setup(ctx)
    setup_s = import_s + build_s
    params = {
        "suite": SUITE, "mixes": len(per_mix), "policies": ["Oracle", *STANDARD_POLICY_ORDER],
        "run_seconds_simulated": RUN_SECONDS, "engine": "ExecutionEngine() serial, no RunCache",
        "specs_per_pass": _n_specs(per_mix),
    }
    if ctx.trace:
        return _traced(ctx, per_mix, params)

    durations: List[float] = []
    passes = []
    engines = []
    started = common.now()
    for _ in range(max(1, round(ctx.seconds / PASS_NOMINAL_S))):
        results, engine = run_pass(per_mix, durations)
        passes.append(results)
        engines.append(engine)
    wall = common.now() - started

    attempted = len(durations)
    failed = sum(isinstance(r, RunError) for p in passes for row in p for r in row)
    checks = {"no_failed_runs": failed == 0}
    agg = aggregate(passes[0]) if failed == 0 else None
    if agg is not None:
        checks.update(fig7_checks(agg))
        checks["passes_identical"] = all(aggregate(p) == agg for p in passes[1:])
    checks["engine.cache_hit_count_is_0"] = all(e.stats.cache_hits == 0 for e in engines)
    params.update(passes=len(passes), op="one spec through engine.run")
    satori = agg["SATORI"] if agg else (0.0, 0.0)
    return common.Outcome(
        attempted=attempted,
        failed=failed,
        metrics={
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (common.peak_rss_mb(), "MB"),
            "intervals_per_s": (sum(_intervals(p) for p in passes) / wall, "1/s"),
            "op_p50_ms": (1e3 * common.median(durations), "ms"),
            "ok_pct": (common.ok_pct(attempted, failed), "%"),
            "sim_throughput_pct": (satori[0], "%"),
            "sim_fairness_pct": (satori[1], "%"),
        },
        checks=checks,
        params=params,
        extra={"fig7_aggregate": agg, "setup": {"import_s": import_s, "build_s": build_s}},
    )


def _traced(ctx, per_mix, params) -> common.Outcome:
    """An untraced reference on the first mixes, then one traced full pass.

    The overhead compares the same specs' op times with tracing off and on.
    """
    plain: List[float] = []
    plain_results, _ = run_pass(per_mix[:OVERHEAD_REF_MIXES], plain)

    collector = TraceCollector()
    inst = layers.install()
    traced: List[float] = []
    try:
        with use_collector(collector):
            results, engine = run_pass(
                per_mix, traced, lambda: collector.span(layers.OP_SPAN, "bench")
            )
    finally:
        inst.remove()

    failed = sum(isinstance(r, RunError) for row in results for r in row)
    agg = aggregate(results) if failed == 0 else None
    checks = {
        "no_failed_runs": failed == 0,
        "traced_equals_untraced": [
            [run.to_dict() for run in row] for row in results[:OVERHEAD_REF_MIXES]
        ] == [[run.to_dict() for run in row] for row in plain_results],
        "engine.cache_hit_count_is_0": engine.stats.cache_hits == 0,
    }
    if agg is not None:
        checks.update(fig7_checks(agg))
    stats = layers.SpanStats(collector.events)
    n_spans = layers.write_spans(
        collector.events, common.OUT_DIR / f"spans-paper_fig7-seed{ctx.seed}.jsonl.gz"
    )
    metrics = layers.program_layer_metrics(stats, collector.metrics.counters())
    metrics.update({
        "tail.op_p90_ms": 1e3 * common.quantile(traced, 0.90),
        "trace.coverage_pct": stats.coverage_pct(),
        "trace.overhead_pct": 100.0 * (sum(traced[: len(plain)]) / sum(plain) - 1.0),
    })
    params.update(passes=1, spans_written=n_spans)
    return common.Outcome(
        attempted=len(traced), failed=failed, metrics=metrics, checks=checks, params=params,
        extra={"fig7_aggregate": agg},
    )
