"""Cluster scale-out: placement x partitioning-policy sweep.

Fleet-level extension of the paper's evaluation: N SATORI nodes share
one Poisson job stream, and placement policies compete over the same
paired environment (shared trace, node-keyed fault plans, node/epoch
seeds). Reports cluster-wide throughput/fairness per cell — the
"what happens when 32 SATORI nodes share a job stream?" experiment at
benchmark scale.

Also home of the ``BENCH_cluster.json`` perf artifact: a fast,
non-slow-marked run measuring cluster epochs/sec and per-scheme broker
decide latency, written on every tier-1 CI run so the perf trajectory
is visible across PRs (override the path with ``BENCH_CLUSTER_JSON``).
"""

import json
import os
import time

import numpy as np
import pytest

from repro.cluster.simulator import ClusterSimulator
from repro.engine import ExecutionEngine
from repro.experiments import format_table
from repro.experiments.cluster import cluster_sweep, default_trace
from repro.experiments.runner import RunConfig, experiment_catalog
from repro.obs import TraceCollector, use_collector

from common import run_once

N_NODES = 4
N_EPOCHS = 6
EPOCH_SECONDS = 8.0

#: Scale of the fast BENCH_cluster run — small enough for tier-1 CI.
#: Epochs are long enough (simulated seconds -> control intervals) that
#: per-node-epoch compute dominates the pool's per-spec IPC, so the
#: pool's parallel speedup is visible rather than drowned in dispatch
#: overhead.
BENCH_NODES = 3
BENCH_EPOCHS = 4
BENCH_EPOCH_SECONDS = 6.0
BENCH_BROKERS = ("static", "harvest", "trade", "bo")
#: Worker processes in the warm pool, and serial/pooled sample pairs.
POOL_WORKERS = 2
POOLED_SAMPLES = 5


def _bench_path():
    return os.environ.get("BENCH_CLUSTER_JSON", "BENCH_cluster.json")


def _timed_cluster_run(trace, catalog, epoch_config, broker=None, engine=None):
    """One measured cluster run; returns (result, wall_s, collector)."""
    collector = TraceCollector()
    simulator = ClusterSimulator(
        trace, n_nodes=BENCH_NODES, catalog=catalog,
        epoch_config=epoch_config, policy="SATORI", seed=0,
        broker=broker, engine=engine,
    )
    started = time.perf_counter()
    with use_collector(collector):
        result = simulator.run()
    elapsed = time.perf_counter() - started
    assert elapsed > 0.0
    return result, elapsed, collector


def _spread(values):
    """Median and interquartile range of a sample, rounded for the artifact."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "iqr": round(float(q3 - q1), 4)}


def test_bench_cluster_artifact():
    """Measure cluster epochs/sec + broker decide latency, emit JSON.

    Deliberately not ``slow``-marked: tier-1 CI invokes this by path
    after the main suite and uploads the artifact. Wall-clock numbers
    are environment-dependent; the assertions only gate sanity (ran,
    positive rates, latencies recorded), never absolute speed.

    The broker schemes run on a warm worker pool. The ``pooled``
    section times one configuration on the serial in-process engine
    and on that warm pool, alternating the two over
    ``POOLED_SAMPLES`` pairs (the leg that goes first swaps each
    pair), and reports the median and IQR of each side's wall time and
    of the per-pair speedup — the numbers CI surfaces in the job
    summary and ``diff_bench.py`` tracks across runs.
    """
    catalog = experiment_catalog()
    trace = default_trace(
        n_epochs=BENCH_EPOCHS, n_nodes=BENCH_NODES, arrival_rate=1.5,
        seed=0, catalog=catalog,
    )
    epoch_config = RunConfig(duration_s=BENCH_EPOCH_SECONDS)

    schemes = {}
    serial_s, pooled_s = [], []
    # trace_workers=False: the bench only reads parent-side decide
    # spans; shipping every worker-interior span across the pool pipe
    # would swamp the measurement.
    with ExecutionEngine(workers=POOL_WORKERS, trace_workers=False) as engine:
        for broker in BENCH_BROKERS:
            result, elapsed, collector = _timed_cluster_run(
                trace, catalog, epoch_config, broker=broker, engine=engine,
            )
            decides = collector.spans_named("broker.decide")
            latencies_ms = sorted(e.duration_ns / 1e6 for e in decides)
            assert len(decides) == BENCH_EPOCHS
            schemes[broker] = {
                "wall_s": round(elapsed, 4),
                "epochs_per_s": round(BENCH_EPOCHS / elapsed, 3),
                "node_epochs_per_s": round(BENCH_NODES * BENCH_EPOCHS / elapsed, 3),
                "budget_transfers": result.budget_transfers,
                "decide_ms": {
                    "mean": round(sum(latencies_ms) / len(latencies_ms), 4),
                    "max": round(latencies_ms[-1], 4),
                    "total": round(sum(latencies_ms), 4),
                },
            }
            assert schemes[broker]["epochs_per_s"] > 0.0

        # Serial vs warm pool on one configuration. Results are
        # bit-identical (tests/test_batched_eval pins that); only the
        # wall clock differs.
        for sample in range(POOLED_SAMPLES):
            legs = [(None, serial_s), (engine, pooled_s)]
            if sample % 2:
                legs.reverse()
            outcomes = []
            for leg_engine, times in legs:
                result, elapsed, _ = _timed_cluster_run(
                    trace, catalog, epoch_config, engine=leg_engine,
                )
                times.append(elapsed)
                outcomes.append(result)
            assert outcomes[0].mean_speedup == outcomes[1].mean_speedup
            assert outcomes[0].fairness == outcomes[1].fairness
    pooled = {
        "workers": POOL_WORKERS,
        "samples": POOLED_SAMPLES,
        "serial_wall_s": _spread(serial_s),
        "pooled_wall_s": _spread(pooled_s),
        "speedup": _spread([s / p for s, p in zip(serial_s, pooled_s)]),
    }

    report = {
        "benchmark": "cluster_broker",
        "n_nodes": BENCH_NODES,
        "n_epochs": BENCH_EPOCHS,
        "epoch_seconds": BENCH_EPOCH_SECONDS,
        "policy": "SATORI",
        "n_jobs": len(trace),
        "schemes": schemes,
        "pooled": pooled,
    }
    with open(_bench_path(), "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {_bench_path()}")
    print(format_table(
        ["broker", "epochs/s", "decide mean ms", "decide max ms", "transfers"],
        [
            [name, s["epochs_per_s"], s["decide_ms"]["mean"],
             s["decide_ms"]["max"], s["budget_transfers"]]
            for name, s in schemes.items()
        ],
        precision=3,
    ))
    print(
        f"pooled vs serial wall s (median, IQR over {POOLED_SAMPLES} pairs): "
        f"{pooled['pooled_wall_s']} vs {pooled['serial_wall_s']}; "
        f"speedup {pooled['speedup']} ({POOL_WORKERS} workers)"
    )


@pytest.mark.slow
def test_cluster_placement_sweep(benchmark):
    catalog = experiment_catalog()
    trace = default_trace(
        n_epochs=N_EPOCHS, n_nodes=N_NODES, arrival_rate=2.0, seed=0, catalog=catalog
    )
    sweep = run_once(
        benchmark,
        lambda: cluster_sweep(
            trace,
            n_nodes=N_NODES,
            placements=("round_robin", "least_loaded", "contention_aware"),
            policies=("SATORI", "EqualPartition"),
            catalog=catalog,
            epoch_config=RunConfig(duration_s=EPOCH_SECONDS),
            seed=0,
            fault_intensity=0.5,
        ),
    )

    rows = [
        [
            cell.placement,
            cell.policy,
            cell.result.mean_speedup,
            cell.result.fairness,
            cell.result.p10_speedup,
        ]
        for cell in sweep.cells
    ]
    print(
        f"\nCluster sweep — {N_NODES} nodes, {sweep.n_jobs} jobs over "
        f"{N_EPOCHS} epochs (faults on even nodes)"
    )
    print(
        format_table(
            ["placement", "policy", "mean speedup", "fairness", "p10"],
            rows,
            precision=3,
        )
    )

    for cell in sweep.cells:
        assert 0.0 < cell.result.fairness <= 1.0
        assert cell.result.mean_speedup > 0.0
    # SATORI should beat static partitioning on throughput under at
    # least one placement (the single-server result, surviving scale-out).
    satori = max(
        c.result.mean_speedup for c in sweep.cells if c.policy == "SATORI"
    )
    static = max(
        c.result.mean_speedup for c in sweep.cells if c.policy == "EqualPartition"
    )
    assert satori > 0.8 * static
