"""Paired bit-identity tests for the batched evaluation core.

The batched data path (DESIGN.md "Batched evaluation core") promises
that every vectorized entry point — :class:`PhaseVector`,
:func:`evaluate_system_batch`, :meth:`CoLocationSimulator.true_ips_batch`,
:meth:`OracleSearch.evaluate_batch` — is *bit-identical* to a loop of
the scalar calls it replaced, and that a worker-pool engine returns the
same results as a serial one. These tests pin each pairing with exact
(``==`` / ``np.array_equal``) comparisons, not tolerances.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSimulator, RecoveryConfig
from repro.engine import ExecutionEngine
from repro.faults import NodeFaultPlan
from repro.faults.plan import FaultPlan
from repro.faults.schedule import FaultSchedule
from repro.experiments.comparison import comparison_specs
from repro.experiments.runner import RunConfig, experiment_catalog
from repro.policies.oracle import OracleSearch
from repro.resources.space import ConfigurationSpace
from repro.resources.types import CORES, LLC_WAYS, MEMORY_BANDWIDTH
from repro.system.contention import evaluate_system, evaluate_system_batch
from repro.system.simulation import CoLocationSimulator
from repro.workloads.arrivals import poisson_trace
from repro.workloads.mixes import mix_from_names, suite_mixes
from repro.workloads.model import Phase, PhaseVector

#: Fast methodology for engine-level paired runs.
FAST = RunConfig(duration_s=2.0, interval_s=0.1, baseline_reset_s=1.0)

#: Tiny methodology for cluster-level paired runs.
TINY = RunConfig(duration_s=1.0, baseline_reset_s=0.5)

MIX = mix_from_names(["canneal", "fluidanimate", "streamcluster"])
CATALOG = experiment_catalog(units=6)
SPACE = ConfigurationSpace(CATALOG, len(MIX))

#: A plan that keeps faults firing throughout the short test runs.
BUSY_FAULTS = FaultPlan(
    actuation_fail_rate=0.5,
    sample_drop_rate=0.3,
    sample_outlier_rate=0.3,
    crash_rate=0.2,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
times = st.floats(min_value=0.0, max_value=40.0, allow_nan=False)


def sample_configs(seed: int, n: int, with_none: bool = True):
    """A mixed batch: sampled configs plus the unmanaged (None) server."""
    rng = np.random.default_rng(seed)
    configs = list(SPACE.sample_batch(n, rng))
    if with_none:
        configs.insert(len(configs) // 2, None)
    return configs


# -- configuration space --------------------------------------------------


class TestSpacePairing:
    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_sample_loop_matches_batch(self, seed):
        """n scalar sample() calls == one sample_batch(n), same stream.

        The vectorized sampler draws its uniform keys row-major, so a
        loop of scalar draws consumes the identical RNG stream — the
        configurations must match exactly, not just in distribution.
        """
        n = 1 + seed % 12
        batch = SPACE.sample_batch(n, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        looped = [SPACE.sample(rng) for _ in range(n)]
        assert looped == batch
        for config in batch:
            assert SPACE.contains(config)

    def test_single_job_space(self):
        space = ConfigurationSpace(CATALOG, 1)
        batch = space.sample_batch(3, np.random.default_rng(0))
        for config in batch:
            assert space.contains(config)
            for resource in CATALOG:
                assert config.units(resource.name) == (resource.units,)

    def test_empty_batch(self):
        assert SPACE.sample_batch(0, np.random.default_rng(0)) == []

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_encode_loop_matches_encode_batch(self, seed):
        configs = sample_configs(seed, 1 + seed % 8, with_none=False)
        batch = SPACE.encode_batch(configs)
        assert batch.shape == (len(configs), SPACE.dimensions)
        for row, config in zip(batch, configs):
            assert np.array_equal(row, SPACE.encode(config))

    def test_encode_batch_empty(self):
        empty = SPACE.encode_batch([])
        assert empty.shape == (0, SPACE.dimensions)

    def test_encode_batch_rejects_foreign_config(self):
        from repro.errors import SpaceError

        other = ConfigurationSpace(experiment_catalog(units=8), len(MIX))
        configs = sample_configs(0, 2, with_none=False)
        bad = other.sample_batch(1, np.random.default_rng(1))[0]
        with pytest.raises(SpaceError):
            SPACE.encode_batch(configs + [bad])


# -- workload models ------------------------------------------------------


class TestPhaseVectorPairing:
    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_ips_matches_scalar_loop(self, seed):
        """PhaseVector.ips row j == Phase.ips of job j, bit for bit."""
        rng = np.random.default_rng(seed)
        n_jobs = int(rng.integers(1, 6))
        phases = [
            Phase(
                ips_per_core=float(rng.uniform(0.5e9, 4e9)),
                parallel_fraction=float(rng.uniform(0.0, 1.0)),
                working_set_bytes=float(rng.uniform(1e6, 64e6)),
                miss_peak=float(rng.uniform(0.02, 0.2)),
                miss_floor=float(rng.uniform(0.0, 0.02)),
                stream_bytes_per_instr=float(rng.uniform(0.0, 4.0)),
                latency_sensitivity=float(rng.uniform(0.0, 1.0)),
            )
            for _ in range(n_jobs)
        ]
        cores = rng.uniform(1.0, 8.0, size=n_jobs)
        cache = rng.uniform(1e6, 32e6, size=n_jobs)
        bandwidth = rng.uniform(1e9, 30e9, size=n_jobs)

        vector = PhaseVector.from_phases(phases)
        batched = vector.ips(cores, cache, bandwidth)
        scalar = np.array(
            [p.ips(c, k, b) for p, c, k, b in zip(phases, cores, cache, bandwidth)]
        )
        assert np.array_equal(batched, scalar)

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_miss_rate_matches_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        phases = [w.phase_at(0.0) for w in MIX]
        cache = rng.uniform(1e6, 32e6, size=len(MIX))
        vector = PhaseVector.from_phases(phases)
        batched = vector.miss_rate(cache)
        scalar = np.array([p.miss_rate(k) for p, k in zip(phases, cache)])
        assert np.array_equal(batched, scalar)


# -- contention model -----------------------------------------------------


class TestSystemBatchPairing:
    @given(seed=seeds, t=times)
    @settings(max_examples=20, deadline=None)
    def test_mixed_batch_matches_scalar_loop(self, seed, t):
        """Grouped-by-signature batch == per-config evaluate_system."""
        configs = sample_configs(seed, n=5)
        batch = evaluate_system_batch(MIX, CATALOG, configs, t)
        for i, config in enumerate(configs):
            scalar = evaluate_system(MIX, CATALOG, config, t)
            assert np.array_equal(batch.ips[i], scalar.ips)
            assert np.array_equal(
                batch.llc_occupancy_bytes[i], scalar.llc_occupancy_bytes
            )
            assert np.array_equal(
                batch.memory_bandwidth_bytes_s[i], scalar.memory_bandwidth_bytes_s
            )

    def test_empty_batch(self):
        batch = evaluate_system_batch(MIX, CATALOG, [], 0.0)
        assert batch.ips.shape == (0, len(MIX))


# -- simulator ------------------------------------------------------------


class TestSimulatorBatchPairing:
    def simulator(self, fault_schedule=None):
        return CoLocationSimulator(
            MIX,
            catalog=CATALOG,
            control_interval_s=0.1,
            noise_sigma=0.02,
            seed=11,
            fault_schedule=fault_schedule,
        )

    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_true_ips_batch_matches_loop(self, seed):
        sim = self.simulator()
        configs = sample_configs(seed, n=4)
        batched = sim.true_ips_batch(configs)
        scalar = np.stack([sim.true_ips(config) for config in configs])
        assert np.array_equal(batched, scalar)

    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_batch_matches_loop_under_active_faults(self, seed):
        """Stepping under a busy fault schedule must not skew the pairing."""
        schedule = FaultSchedule.generate(
            BUSY_FAULTS, n_jobs=len(MIX), duration_s=2.0, interval_s=0.1, seed=3
        )
        sim = self.simulator(fault_schedule=schedule)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            sim.apply(SPACE.sample(rng))
            sim.step()
        configs = sample_configs(seed, n=4)
        batched = sim.true_ips_batch(configs)
        scalar = np.stack([sim.true_ips(config) for config in configs])
        assert np.array_equal(batched, scalar)


# -- oracle ---------------------------------------------------------------


class TestOracleBatchPairing:
    @given(seed=seeds, t=times)
    @settings(max_examples=15, deadline=None)
    def test_evaluate_batch_matches_scalar_loop(self, seed, t):
        search = OracleSearch(MIX, CATALOG)
        rng = np.random.default_rng(seed)
        configs = list(search.space.sample_batch(6, rng))
        throughput, fairness = search.evaluate_batch(configs, t)
        for i, config in enumerate(configs):
            t_i, f_i = search.evaluate(config, t)
            assert throughput[i] == t_i
            assert fairness[i] == f_i

    def test_empty_batch(self):
        search = OracleSearch(MIX, CATALOG)
        throughput, fairness = search.evaluate_batch([], 0.0)
        assert throughput.shape == (0,) and fairness.shape == (0,)


# -- worker pool vs serial -----------------------------------------------


def tiny_trace(n_epochs=3, seed=7, initial_jobs=4, rate=1.5, residency=2.0):
    return poisson_trace(
        n_epochs=n_epochs,
        arrival_rate=rate,
        mean_residency=residency,
        suites=("ecp",),
        seed=seed,
        initial_jobs=initial_jobs,
    )


def run_cluster(**kwargs):
    defaults = dict(
        trace=tiny_trace(),
        n_nodes=2,
        placement="round_robin",
        policy="EqualPartition",
        catalog=experiment_catalog(4),
        epoch_config=TINY,
        seed=1,
    )
    defaults.update(kwargs)
    return ClusterSimulator(**defaults).run()


class TestPoolMatchesSerial:
    """A 2-worker pool returns exactly what a serial engine returns."""

    def test_fig7_mix_comparison_specs(self):
        oracle, specs = comparison_specs(
            suite_mixes("parsec")[0], CATALOG, FAST, seed=3
        )
        batch = [oracle, *specs.values()]
        serial = ExecutionEngine(workers=1).run(batch)
        with ExecutionEngine(workers=2) as engine:
            pooled = engine.run(batch)
        assert [r.to_dict() for r in pooled] == [r.to_dict() for r in serial]

    def test_cluster_run_with_recovery(self):
        kwargs = dict(
            trace=tiny_trace(n_epochs=4),
            fleet_plans={
                0: NodeFaultPlan(crash_epoch=2, crash_rejoin_epochs=1),
                1: NodeFaultPlan(straggler_rate=0.4, flaky_rate=0.4),
            },
            recovery=RecoveryConfig(),
        )
        serial = run_cluster(**kwargs)
        with ExecutionEngine(workers=2) as engine:
            pooled = run_cluster(engine=engine, **kwargs)
        assert dataclasses.asdict(pooled) == dataclasses.asdict(serial)
