"""Unified parallel execution engine for experiment campaigns.

Every figure and table in the reproduction boils down to the same unit
of work: *run one policy on one mix under one configuration and seed*.
This package turns that unit into a declarative, content-addressed job:

* :class:`~repro.engine.spec.RunSpec` — a frozen, hashable description
  that fully determines a :class:`~repro.experiments.runner.RunResult`;
* :class:`~repro.engine.engine.ExecutionEngine` — fans batches of
  specs out over worker processes (or runs them serially) with results
  guaranteed bit-identical regardless of worker count, submission
  order, or completion order;
* :class:`~repro.engine.cache.RunCache` — an on-disk JSON artifact
  store keyed by spec digest + code-version salt, so shared reference
  runs (the Balanced Oracle behind Figs. 7-15) are computed once.

See DESIGN.md ("Execution engine") for the determinism and cache
layout contracts.
"""

from repro.engine.cache import CACHE_SCHEMA_VERSION, RunCache, default_cache_salt
from repro.engine.engine import (
    EngineStats,
    ExecutionEngine,
    RunError,
    execute_run,
)
from repro.engine.spec import RunSpec, derive_seed

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "EngineStats",
    "ExecutionEngine",
    "RunCache",
    "RunError",
    "RunSpec",
    "default_cache_salt",
    "derive_seed",
    "execute_run",
]
