"""The execution engine: batch fan-out with deterministic results.

:meth:`ExecutionEngine.run` takes a batch of :class:`RunSpec` jobs and
returns their :class:`RunResult` objects in submission order, executing
them in-process or on a worker-process pool. The pool is persistent —
created lazily on first parallel work and reused across batches.
:meth:`ExecutionEngine.close` (or the context manager form) releases
it; an abandoned straggler retires the pool so a stuck worker cannot
poison later batches.

Results are *bit-identical* regardless of worker count, submission
order, or completion order, because

* every RNG stream a run consumes is derived from the spec's content
  digest (:meth:`RunSpec.seed_for`), never from shared generators or
  submission sequence;
* every result — computed serially, computed in a worker, or loaded
  from cache — passes through the same lossless JSON representation
  (:meth:`RunResult.to_dict` / ``from_dict``), so all three paths
  yield structurally equal objects.

Duplicate specs inside a batch execute once (the 21-mix PARSEC grid
shares one Balanced Oracle run per mix across all drivers that ask for
it), and an attached :class:`~repro.engine.cache.RunCache` extends the
dedup across engine instances, processes, and sessions.
"""

from __future__ import annotations

import concurrent.futures
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.cache import RunCache
from repro.engine.spec import RunSpec, derive_seed
from repro.errors import EngineError
from repro.experiments.runner import RunResult, run_policy
from repro.obs import TraceCollector, TraceEvent, active_collector, use_collector
from repro.policies.registry import make_policy


def execute_run(spec: RunSpec) -> RunResult:
    """Execute one spec from scratch (no cache, current process).

    This is the single choke point every run goes through — the
    warm-cache tests monkeypatch :func:`repro.experiments.runner.run_policy`
    via this module to prove cached batches trigger zero executions.
    """
    goals = spec.goal_set()
    policy = make_policy(
        spec.policy,
        spec.mix,
        spec.catalog,
        goals,
        rng=spec.seed_for("policy"),
        initial_state=spec.initial_state,
        **spec.kwargs_dict(),
    )
    # Noise derives from the cold digest — the spec with any warm-start
    # state stripped — so a warm continuation and its cold twin measure
    # the same perturbed hardware (their delta is the carried state),
    # while cold specs keep their historical noise streams.
    return run_policy(
        policy,
        spec.mix,
        spec.catalog,
        spec.run_config,
        goals,
        seed=derive_seed(spec.cold_digest, "noise"),
        faults=spec.fault_plan,
        fault_seed=derive_seed(spec.environment_digest, "faults"),
    )


def _execute_run_payload(spec: RunSpec) -> dict:
    """Worker entry point: run a spec, ship the result as plain data."""
    return execute_run(spec).to_dict()


def _execute_run_traced(
    spec: RunSpec, collect: bool = False
) -> Tuple[dict, float, Optional[List[dict]]]:
    """Worker entry point reporting wall time and (optionally) spans.

    Worker processes have their own memory, so spans recorded inside
    them never reach the parent's collector directly. With ``collect``
    set, the worker records its spans into a local collector and ships
    them back serialized alongside the payload; the parent adopts them
    onto its own timeline (:meth:`TraceCollector.adopt`) under a
    per-worker lane. Without it, only the measured duration crosses
    the pipe — enough for run timing and worker-utilization metrics.
    """
    started = time.perf_counter()
    if not collect:
        return _execute_run_payload(spec), time.perf_counter() - started, None
    local = TraceCollector()
    with use_collector(local):
        with local.span("run_spec", "engine"):
            payload = _execute_run_payload(spec)
    events = [event.to_dict() for event in local.events]
    return payload, time.perf_counter() - started, events


@dataclass(frozen=True)
class RunError:
    """A spec that could not be executed (partial-batch bookkeeping).

    Produced by :meth:`ExecutionEngine.run` with ``on_error="record"``
    in place of the failed spec's :class:`RunResult`, so one crashed or
    hung run does not discard the rest of the batch.

    Attributes:
        spec: the failed spec.
        error: ``"ExceptionType: message"`` of the last failure, or the
            straggler-timeout description.
        attempts: how many times the spec was tried (1 + retries used).
    """

    spec: RunSpec
    error: str
    attempts: int


@dataclass
class EngineStats:
    """Counters for one engine's lifetime (all ``run`` calls summed).

    Attributes:
        submitted: specs passed to ``run`` (including duplicates).
        executed: specs actually run via :func:`execute_run`.
        deduplicated: duplicate specs coalesced onto a twin in the same
            batch.
        cache_hits / cache_misses: disk-cache lookups (zero without a
            cache attached).
        batches: number of ``run`` calls.
        retried: failed executions that were re-attempted.
        failed: specs that still had no result after all retries.
        cache_errors: cache writes that failed (the cache disables
            itself after the first, so this is at most 1 per cache).
    """

    submitted: int = 0
    executed: int = 0
    deduplicated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    batches: int = 0
    retried: int = 0
    failed: int = 0
    cache_errors: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "executed": self.executed,
            "deduplicated": self.deduplicated,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "batches": self.batches,
            "retried": self.retried,
            "failed": self.failed,
            "cache_errors": self.cache_errors,
        }

    def summary(self) -> str:
        """One-line human-readable form for CLI/report output."""
        text = (
            f"{self.submitted} submitted, {self.executed} executed, "
            f"{self.deduplicated} deduplicated, "
            f"{self.cache_hits} cache hits, {self.cache_misses} cache misses"
        )
        if self.retried or self.failed:
            text += f", {self.retried} retried, {self.failed} failed"
        if self.cache_errors:
            text += f", {self.cache_errors} cache errors"
        return text


class _Slot:
    """One unique spec of a batch: shared by every position that maps to it.

    ``outcome`` stays ``None`` while the spec still has an execution
    round ahead of it (queued or awaiting retry).
    """

    __slots__ = ("spec", "outcome", "attempts")

    def __init__(self, spec: RunSpec):
        self.spec = spec
        self.outcome: Optional[Union[RunResult, RunError]] = None
        self.attempts = 0


class ExecutionEngine:
    """Runs specs serially or across a persistent worker-process pool.

    Args:
        workers: process count; ``1`` (the default) executes in-process
            with no multiprocessing dependency, which is also the
            deterministic fallback on single-core machines.
        cache: optional :class:`RunCache`; hits skip execution
            entirely and misses are stored after execution.
        retries: extra execution rounds for specs that failed — a
            worker crash or transient exception is re-attempted up to
            this many times before the spec counts as failed.
        timeout_s: batch deadline in seconds for the worker-pool path
            of :meth:`run`, applied per retry round; specs still
            running when it expires are recorded as straggler failures
            (and retried if ``retries`` allows). ``None`` waits
            indefinitely; the serial path ignores it.
        spec_timeout_s: per-spec deadline in seconds for the
            worker-pool path of :meth:`run`, measured from when the
            spec is first observed *running* (queue time doesn't
            count). A spec past its deadline is abandoned as a
            straggler without waiting for the rest of the batch.
            ``None`` disables it; the serial path ignores it (a serial
            run can't be abandoned).
        backoff_base_s: base delay for exponential backoff between
            retry rounds; round *r* waits ``backoff_base_s * 2**(r-1)``
            seconds. ``0`` (the default) retries immediately.
        backoff_jitter: fractional jitter added to each backoff delay,
            drawn deterministically from the retried spec's digest so
            reruns sleep identically (``0.25`` stretches delays by up
            to 25%).
        trace_workers: when the active collector is enabled, workers
            normally record their spans locally and ship them back for
            replay into the parent's collector. Set ``False`` to skip
            that — parent-side spans (engine rounds, broker decides)
            are still recorded, but worker-interior traces are
            dropped at the source. Long runs emit thousands of events
            per spec, and pickling them across the pool boundary can
            dominate a benchmark that only reads parent-side spans.

    The worker pool is created lazily on first parallel work and then
    reused for the engine's lifetime (no per-batch spin-up); call
    :meth:`close` — or use the engine as a context manager — to
    release it. Abandoning a straggler retires the pool (its stuck
    process must not serve later work); a fresh pool replaces it on
    the next parallel round.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[RunCache] = None,
        retries: int = 0,
        timeout_s: Optional[float] = None,
        spec_timeout_s: Optional[float] = None,
        backoff_base_s: float = 0.0,
        backoff_jitter: float = 0.0,
        trace_workers: bool = True,
    ):
        if workers < 1:
            raise EngineError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise EngineError(f"retries must be >= 0, got {retries}")
        if timeout_s is not None and timeout_s <= 0:
            raise EngineError(f"timeout_s must be positive, got {timeout_s}")
        if spec_timeout_s is not None and spec_timeout_s <= 0:
            raise EngineError(
                f"spec_timeout_s must be positive, got {spec_timeout_s}"
            )
        if backoff_base_s < 0:
            raise EngineError(f"backoff_base_s must be >= 0, got {backoff_base_s}")
        if backoff_jitter < 0:
            raise EngineError(f"backoff_jitter must be >= 0, got {backoff_jitter}")
        self._workers = int(workers)
        self._cache = cache
        self._retries = int(retries)
        self._timeout_s = timeout_s
        self._spec_timeout_s = spec_timeout_s
        self._backoff_base_s = float(backoff_base_s)
        self._backoff_jitter = float(backoff_jitter)
        self._stats = EngineStats()
        self._trace_workers = bool(trace_workers)
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def cache(self) -> Optional[RunCache]:
        return self._cache

    @property
    def retries(self) -> int:
        return self._retries

    @property
    def timeout_s(self) -> Optional[float]:
        return self._timeout_s

    @property
    def spec_timeout_s(self) -> Optional[float]:
        return self._spec_timeout_s

    @property
    def stats(self) -> EngineStats:
        return self._stats

    # -- lifecycle --------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Release the persistent worker pool (idempotent).

        The engine stays usable afterwards — the next parallel round
        simply creates a fresh pool.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close(wait=False)
        except Exception:
            pass

    # -- batch execution --------------------------------------------------

    def run_one(self, spec: RunSpec) -> RunResult:
        """Convenience wrapper: run a single spec."""
        return self.run([spec])[0]

    def run(
        self, specs: Sequence[RunSpec], on_error: str = "raise"
    ) -> List[Union[RunResult, RunError]]:
        """Execute a batch; results align with ``specs`` by position.

        Identical specs (equal content, hence equal digest) execute at
        most once per batch; with a cache attached, at most once ever
        per code version. Failed specs are retried in synchronized
        rounds (see :meth:`_drive`).

        Args:
            specs: the batch.
            on_error: ``"raise"`` (default) raises
                :class:`~repro.errors.EngineError` on the first spec
                that still fails after all retries; ``"record"``
                returns a :class:`RunError` in that spec's position and
                keeps the rest of the batch (partial results).
        """
        if on_error not in ("raise", "record"):
            raise EngineError(f"on_error must be 'raise' or 'record', got {on_error!r}")
        specs = list(specs)
        self._stats.batches += 1
        obs = active_collector()

        with obs.span("engine_batch", "engine"):
            # First-seen order of unique specs keeps scheduling
            # deterministic (dict preserves insertion order).
            slots: Dict[RunSpec, _Slot] = {}
            for spec in specs:
                self._stats.submitted += 1
                if spec in slots:
                    self._stats.deduplicated += 1
                    obs.metrics.counter("engine.deduplicated").inc()
                    continue
                slots[spec] = self._new_slot(spec, obs)
            self._drive(list(slots.values()), obs)
            results: List[Union[RunResult, RunError]] = []
            for spec in specs:
                value = slots[spec].outcome
                if isinstance(value, RunError) and on_error == "raise":
                    raise EngineError(
                        f"{value.spec!r} failed after {value.attempts} "
                        f"attempt(s): {value.error}"
                    )
                results.append(value)
        return results

    # -- internals -------------------------------------------------------

    def _new_slot(self, spec: RunSpec, obs) -> _Slot:
        """A slot for one unique spec, resolved on the spot by a cache hit."""
        slot = _Slot(spec)
        if self._cache is None:
            return slot
        cached = self._cache.get(spec)
        if cached is not None:
            self._stats.cache_hits += 1
            obs.metrics.counter("engine.cache_hits").inc()
            obs.event("cache_hit", "engine")
            slot.outcome = cached
        else:
            self._stats.cache_misses += 1
            obs.metrics.counter("engine.cache_misses").inc()
        return slot

    def _store(self, spec: RunSpec, result: RunResult) -> None:
        """Cache a fresh result; count the write that disables the cache."""
        if self._cache is None:
            return
        was_disabled = self._cache.disabled
        self._cache.put(spec, result)
        if self._cache.disabled and not was_disabled:
            self._stats.cache_errors += 1

    def _note_success(self, slot: _Slot, payload: dict, obs) -> None:
        slot.attempts += 1
        result = RunResult.from_dict(payload)
        self._stats.executed += 1
        obs.metrics.counter("engine.executed").inc()
        self._store(slot.spec, result)
        slot.outcome = result

    def _note_failure(self, slot: _Slot, error: str, obs) -> None:
        """Record a failed attempt; resolve to a RunError once retries run out."""
        slot.attempts += 1
        if slot.attempts <= self._retries:
            return
        self._stats.failed += 1
        obs.metrics.counter("engine.failed").inc()
        slot.outcome = RunError(spec=slot.spec, error=str(error), attempts=slot.attempts)

    def _retry_delay(self, spec: RunSpec, round_number: int) -> float:
        """Backoff before retry round ``round_number`` (exponential + jitter).

        The jitter fraction derives from the spec's digest and the
        round number, so identical reruns back off identically —
        determinism extends to the retry schedule.
        """
        if self._backoff_base_s <= 0:
            return 0.0
        delay = self._backoff_base_s * 2 ** (round_number - 1)
        if self._backoff_jitter > 0:
            unit = derive_seed(spec.digest, "backoff", round_number) % 10**6 / 10**6
            delay *= 1.0 + self._backoff_jitter * unit
        return delay

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self._workers
            )
        return self._pool

    def _retire_pool(self) -> None:
        """Abandon the pool without waiting (a straggler may be stuck)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _harvest(self, future: concurrent.futures.Future, slot: _Slot,
                 lane: int, obs) -> Optional[float]:
        """Fold one finished worker future back into its slot.

        Returns the worker-measured duration on success (for the
        utilization gauge), ``None`` on failure.
        """
        try:
            payload, duration_s, events = future.result()
        except Exception as error:  # noqa: BLE001 - reported per spec
            self._note_failure(slot, f"{type(error).__name__}: {error}", obs)
            return None
        obs.metrics.histogram("engine.run_seconds").observe(duration_s)
        obs.event("run_spec", "engine", duration_s=duration_s)
        if events:
            # Rebase the worker's spans so they end now (completion
            # instant parent-side) and keep their internal
            # nesting/parenting intact.
            obs.adopt(
                [TraceEvent.from_dict(d) for d in events],
                at_ns=obs.now_ns() - int(duration_s * 1e9),
                lane=f"worker:{lane}",
            )
        self._note_success(slot, payload, obs)
        return duration_s

    def _execute_serial(self, slot: _Slot, obs) -> None:
        """Run one spec in-process."""
        started = time.perf_counter()
        try:
            with obs.span("run_spec", "engine"):
                payload = _execute_run_payload(slot.spec)
        except Exception as error:  # noqa: BLE001 - reported per spec
            self._note_failure(slot, f"{type(error).__name__}: {error}", obs)
        else:
            self._note_success(slot, payload, obs)
        obs.metrics.histogram("engine.run_seconds").observe(
            time.perf_counter() - started
        )

    def _drive(self, slots: List[_Slot], obs) -> None:
        """Drive ``slots`` to resolution with round-synchronized retries.

        Each round executes every unresolved slot (serially or on the
        pool); failures eligible for retry wait for the *whole* round,
        then back off once — via ``time.sleep``, announced as a
        ``retry_backoff`` event — and run again together.
        """
        pending = [slot for slot in slots if slot.outcome is None]
        while pending:
            if self._workers == 1 or len(pending) == 1:
                for slot in pending:
                    self._execute_serial(slot, obs)
            else:
                self._pool_round(pending, obs)
            pending = [slot for slot in pending if slot.outcome is None]
            if not pending:
                return
            self._stats.retried += len(pending)
            round_number = pending[0].attempts
            delay = self._retry_delay(pending[0].spec, round_number)
            if delay > 0:
                obs.event(
                    "retry_backoff", "engine",
                    round=round_number, delay_s=delay, specs=len(pending),
                )
                time.sleep(delay)

    def _pool_round(self, round_slots: List[_Slot], obs) -> None:
        """One parallel round on the persistent pool, with deadlines."""
        max_workers = min(self._workers, len(round_slots))
        round_started = time.perf_counter()
        busy_seconds = 0.0
        pool = self._ensure_pool()
        collect = obs.enabled and self._trace_workers
        abandoned = False
        futures: Dict[concurrent.futures.Future, Tuple[int, _Slot]] = {}
        for index, slot in enumerate(round_slots):
            future = pool.submit(_execute_run_traced, slot.spec, collect)
            futures[future] = (index, slot)
        remaining = set(futures)
        batch_deadline = (
            None if self._timeout_s is None else round_started + self._timeout_s
        )
        # When any spec was first seen *running* (queue time does not
        # count against its deadline).
        first_running: Dict[concurrent.futures.Future, float] = {}
        try:
            while remaining:
                if self._spec_timeout_s is not None:
                    # Poll often enough that an overdue spec is caught
                    # within a quarter of its deadline.
                    poll: Optional[float] = min(0.05, self._spec_timeout_s / 4)
                elif batch_deadline is not None:
                    poll = max(0.0, batch_deadline - time.perf_counter())
                else:
                    poll = None
                done, _ = concurrent.futures.wait(remaining, timeout=poll)
                now = time.perf_counter()
                for future in done:
                    remaining.discard(future)
                    index, slot = futures[future]
                    duration_s = self._harvest(future, slot, index, obs)
                    if duration_s is not None:
                        busy_seconds += duration_s
                for future in list(remaining):
                    if future not in first_running and future.running():
                        first_running[future] = now
                if self._spec_timeout_s is not None:
                    for future in list(remaining):
                        started = first_running.get(future)
                        if started is None or now - started < self._spec_timeout_s:
                            continue
                        remaining.discard(future)
                        future.cancel()  # running futures won't cancel; abandon
                        abandoned = True
                        _, slot = futures[future]
                        self._note_failure(
                            slot,
                            f"straggler: no result within the "
                            f"{self._spec_timeout_s}s per-spec deadline",
                            obs,
                        )
                if batch_deadline is not None and time.perf_counter() >= batch_deadline:
                    for future in remaining:
                        future.cancel()
                        _, slot = futures[future]
                        self._note_failure(
                            slot,
                            f"straggler: no result within the "
                            f"{self._timeout_s}s batch deadline",
                            obs,
                        )
                    abandoned = abandoned or bool(remaining)
                    remaining = set()
        except BaseException:
            self._retire_pool()
            raise
        if abandoned:
            # A stuck worker must not serve later rounds: retire the
            # pool; the next parallel round starts a fresh one.
            self._retire_pool()
        wall = time.perf_counter() - round_started
        if wall > 0:
            obs.metrics.gauge("engine.worker_utilization").set(
                busy_seconds / (max_workers * wall)
            )
