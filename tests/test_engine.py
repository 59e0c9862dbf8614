"""Execution-engine tests: spec identity, determinism, cache, drivers.

The engine's contract (DESIGN.md "Execution engine"):

* a :class:`RunSpec` fully determines its :class:`RunResult` — equal
  content means equal digest means bit-identical results;
* worker count, submission order, and completion order never change
  the results;
* the on-disk cache serves prior results without re-executing anything
  and invalidates itself when the code-version salt changes.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.engine.engine as engine_module
from repro.engine import (
    CACHE_SCHEMA_VERSION,
    ExecutionEngine,
    RunCache,
    RunSpec,
    default_cache_salt,
    derive_seed,
    execute_run,
)
from repro.errors import EngineError, ExperimentError, PolicyError
from repro.experiments.comparison import compare_on_mix, compare_on_mixes, seed_to_int
from repro.experiments.runner import RunConfig, experiment_catalog
from repro.workloads.mixes import suite_mixes

FAST = RunConfig(duration_s=2.0, interval_s=0.1, baseline_reset_s=1.0)


@pytest.fixture(scope="module")
def catalog():
    return experiment_catalog(units=6)


@pytest.fixture(scope="module")
def mixes():
    return suite_mixes("parsec", mix_size=2)[:4]


def spec(mix, catalog, policy="Random", **overrides):
    fields = dict(mix=mix, policy=policy, catalog=catalog, run_config=FAST, seed=3)
    fields.update(overrides)
    return RunSpec(**fields)


# -- RunSpec identity ----------------------------------------------------


class TestRunSpec:
    def test_equal_content_equal_digest(self, mixes, catalog):
        assert spec(mixes[0], catalog) == spec(mixes[0], catalog)
        assert spec(mixes[0], catalog).digest == spec(mixes[0], catalog).digest
        assert hash(spec(mixes[0], catalog)) == hash(spec(mixes[0], catalog))

    def test_any_field_changes_digest(self, mixes, catalog):
        base = spec(mixes[0], catalog)
        variants = [
            spec(mixes[1], catalog),
            spec(mixes[0], catalog, policy="PARTIES"),
            spec(mixes[0], catalog, seed=4),
            spec(mixes[0], catalog, goals=("hmean_speedup", "jain")),
            spec(mixes[0], catalog, run_config=dataclasses.replace(FAST, duration_s=3.0)),
            spec(mixes[0], catalog, policy_kwargs={"mode": "throughput"}),
            spec(mixes[0], experiment_catalog(units=4)),
        ]
        digests = {base.digest} | {v.digest for v in variants}
        assert len(digests) == len(variants) + 1

    def test_kwargs_order_is_canonical(self, mixes, catalog):
        a = spec(mixes[0], catalog, policy_kwargs={"a": 1, "b": 2})
        b = spec(mixes[0], catalog, policy_kwargs={"b": 2, "a": 1})
        assert a == b and a.digest == b.digest

    def test_kwargs_reject_non_plain_data(self, mixes, catalog):
        with pytest.raises(EngineError):
            spec(mixes[0], catalog, policy_kwargs={"kernel": object()})

    def test_spec_dict_is_json_round_trippable(self, mixes, catalog):
        d = spec(mixes[0], catalog, policy_kwargs={"resources": ("llc_ways",)}).to_dict()
        assert json.loads(json.dumps(d)) == d
        rebuilt = RunSpec.catalog_from_dict(d["catalog"])
        assert rebuilt == catalog

    def test_seed_for_streams_differ(self, mixes, catalog):
        s = spec(mixes[0], catalog)
        assert s.seed_for("policy") != s.seed_for("noise")
        assert s.seed_for("policy") == derive_seed(s.digest, "policy")

    def test_workers_validated(self):
        with pytest.raises(EngineError):
            ExecutionEngine(workers=0)


# -- determinism ---------------------------------------------------------


class TestDeterminism:
    @pytest.fixture(scope="class")
    def batch(self, mixes, catalog):
        specs = [
            spec(mix, catalog, policy=policy)
            for mix in mixes
            for policy in ("Random", "SATORI")
        ]
        serial = ExecutionEngine(workers=1).run(specs)
        return specs, serial

    def test_workers_do_not_change_results(self, batch):
        specs, serial = batch
        parallel = ExecutionEngine(workers=4).run(specs)
        assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]

    def test_submission_order_does_not_change_results(self, batch):
        specs, serial = batch
        shuffled = list(reversed(specs))
        results = ExecutionEngine(workers=4).run(shuffled)
        expected = list(reversed([r.to_dict() for r in serial]))
        assert [r.to_dict() for r in results] == expected

    def test_single_spec_matches_batch(self, batch):
        specs, serial = batch
        assert execute_run(specs[0]).to_dict() == serial[0].to_dict()

    def test_duplicates_coalesce(self, mixes, catalog):
        engine = ExecutionEngine()
        one = spec(mixes[0], catalog)
        a, b = engine.run([one, spec(mixes[0], catalog)])
        assert a.to_dict() == b.to_dict()
        assert engine.stats.submitted == 2
        assert engine.stats.executed == 1
        assert engine.stats.deduplicated == 1


# -- cache ---------------------------------------------------------------


class TestRunCache:
    def test_hit_after_put(self, mixes, catalog, tmp_path):
        cache = RunCache(tmp_path)
        s = spec(mixes[0], catalog)
        assert cache.get(s) is None and cache.misses == 1
        result = execute_run(s)
        cache.put(s, result)
        assert cache.get(s).to_dict() == result.to_dict()
        assert cache.hits == 1

    def test_warm_engine_executes_nothing(self, mixes, catalog, tmp_path, monkeypatch):
        specs = [spec(mix, catalog) for mix in mixes]
        cold = ExecutionEngine(cache=RunCache(tmp_path))
        cold_results = cold.run(specs)
        assert cold.stats.cache_misses == len(specs)
        assert cold.stats.executed == len(specs)

        def boom(*args, **kwargs):
            raise AssertionError("run_policy called on a warm cache")

        monkeypatch.setattr(engine_module, "run_policy", boom)
        warm = ExecutionEngine(cache=RunCache(tmp_path))
        warm_results = warm.run(specs)
        assert warm.stats.cache_hits == len(specs)
        assert warm.stats.executed == 0
        assert [r.to_dict() for r in warm_results] == [r.to_dict() for r in cold_results]

    def test_salt_change_invalidates(self, mixes, catalog, tmp_path):
        s = spec(mixes[0], catalog)
        RunCache(tmp_path, salt="v1").put(s, execute_run(s))
        assert RunCache(tmp_path, salt="v1").get(s) is not None
        assert RunCache(tmp_path, salt="v2").get(s) is None
        assert f"schema{CACHE_SCHEMA_VERSION}" in default_cache_salt()

    def test_invalidate_and_clear(self, mixes, catalog, tmp_path):
        cache = RunCache(tmp_path)
        s0, s1 = spec(mixes[0], catalog), spec(mixes[1], catalog)
        cache.put(s0, execute_run(s0))
        cache.put(s1, execute_run(s1))
        assert cache.invalidate(s0) is True
        assert cache.invalidate(s0) is False
        assert cache.get(s0) is None
        assert cache.clear() == 1
        assert cache.get(s1) is None

    def test_corrupt_artifact_is_a_miss(self, mixes, catalog, tmp_path):
        cache = RunCache(tmp_path)
        s = spec(mixes[0], catalog)
        cache.put(s, execute_run(s))
        cache.path_for(s).write_text("{not json")
        assert cache.get(s) is None
        assert cache.misses == 1


# -- driver acceptance ---------------------------------------------------


class TestComparisonAcceptance:
    def test_parallel_comparison_is_byte_identical_to_serial(self, mixes, catalog):
        """ISSUE acceptance: >=4 PARSEC mixes, workers=4 vs serial."""
        kwargs = dict(catalog=catalog, run_config=FAST, seed=11)
        serial = compare_on_mixes(mixes, engine=ExecutionEngine(workers=1), **kwargs)
        parallel = compare_on_mixes(mixes, engine=ExecutionEngine(workers=4), **kwargs)
        assert len(serial) == len(mixes) == 4
        for s, p in zip(serial, parallel):
            assert s.scores == p.scores
            assert s.oracle.to_dict() == p.oracle.to_dict()

    def test_warm_cache_reruns_whole_comparison(self, mixes, catalog, tmp_path, monkeypatch):
        """ISSUE acceptance: warm rerun with zero run_policy invocations."""
        kwargs = dict(catalog=catalog, run_config=FAST, seed=11)
        cold_engine = ExecutionEngine(cache=RunCache(tmp_path))
        cold = compare_on_mixes(mixes, engine=cold_engine, **kwargs)

        monkeypatch.setattr(
            engine_module,
            "run_policy",
            lambda *a, **k: pytest.fail("run_policy called on a warm cache"),
        )
        warm_engine = ExecutionEngine(cache=RunCache(tmp_path))
        warm = compare_on_mixes(mixes, engine=warm_engine, **kwargs)
        assert warm_engine.stats.executed == 0
        assert warm_engine.stats.cache_hits == warm_engine.stats.submitted
        assert [c.scores for c in warm] == [c.scores for c in cold]

    def test_compare_on_mix_matches_compare_on_mixes(self, mixes, catalog):
        single = compare_on_mix(mixes[0], catalog=catalog, run_config=FAST, seed=11)
        batched = compare_on_mixes([mixes[0]], catalog=catalog, run_config=FAST, seed=11)
        assert single.scores == batched[0].scores

    def test_unknown_policy_name_raises(self, mixes, catalog):
        with pytest.raises(ExperimentError):
            compare_on_mix(mixes[0], catalog=catalog, run_config=FAST, include=("Nope",))

    def test_unknown_factory_raises_policy_error(self, mixes, catalog):
        with pytest.raises(PolicyError):
            execute_run(spec(mixes[0], catalog, policy="Nope"))

    def test_engine_stats_surface_in_analysis(self, mixes, catalog, tmp_path):
        from repro.analysis import engine_summary, engine_summary_json

        engine = ExecutionEngine(cache=RunCache(tmp_path))
        engine.run([spec(mixes[0], catalog)])
        summary = engine_summary(engine)
        assert summary["executed"] == 1
        assert summary["cache"]["misses"] == 1
        assert json.loads(engine_summary_json(engine)) == summary
