"""Per-layer attribution for traced runs.

A traced run installs a :class:`repro.obs.TraceCollector` as the ambient
collector, so the spans and counters the program already records
(``interval``, ``decide``, ``suggest``, ``gp_fit``, ``acquisition``,
``actuation``, ``run_spec``, ``engine_batch``, ``epoch``,
``broker.decide``, the ``gp.*`` / ``engine.*`` counters) land in it. The
layers that record no span of their own are timed from here: :func:`install`
wraps their public functions (``make_policy``, ``CoLocationSimulator.step``,
``TelemetryLog.record``, ``RunResult.to_dict``/``from_dict``, each policy's
``decide``/``snapshot``/``restore``, ``ClusterSimulator.step_epoch``, the
``SessionManager`` operations) in spans on the same collector. The program
itself is not edited.

:class:`SpanStats` then splits time by layer. A span's *self* time is its
duration minus the part its direct child spans cover; spans nest within one
thread, so the split runs per thread id where spans carry one (the server's
executor threads do; see :class:`ThreadCollector`).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.obs import SPAN, TraceCollector, TraceEvent, active_collector

#: The span the benchmark opens around each timed operation.
OP_SPAN = "bench.op"

#: Span name -> layer. Names from the program's own spans come first.
SPAN_LAYERS = {
    "decide": "core",
    "suggest": "core",
    "gp_fit": "core",
    "acquisition": "core",
    "interval": "system",
    "baseline_refresh": "system",
    "actuation": "system",
    "run_spec": "engine",
    "engine_batch": "engine",
    "epoch": "cluster",
    "broker.decide": "broker",
    # Spans this module adds around public functions.
    "policy_build": "policies",
    "policy_decide": "policies",
    "sim_build": "system",
    "sim_step": "system",
    "telemetry_record": "system",
    "policy_snapshot": "state",
    "policy_restore": "state",
    "result_codec": "engine",
    "step_epoch": "cluster",
    "serve.create": "serve",
    "serve.step": "serve",
    "serve.snapshot": "serve",
    "serve.resume": "serve",
    "serve.kill": "serve",
    OP_SPAN: "bench",
}


class ThreadCollector(TraceCollector):
    """A collector whose spans carry the recording thread's id.

    The control-plane server steps sessions on executor threads, so its
    spans interleave in time; the thread id lets :class:`SpanStats` nest
    them per thread.
    """

    def span(self, name: str, category: str = "", **args: Any):
        return super().span(name, category, tid=threading.get_ident(), **args)


def _spanned(fn: Callable, name: str) -> Callable:
    """``fn`` wrapped in a span; re-entrant calls (``super()`` chains) add none."""
    local = threading.local()

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if getattr(local, "inside", False):
            return fn(*args, **kwargs)
        local.inside = True
        try:
            with active_collector().span(name, SPAN_LAYERS[name]):
                return fn(*args, **kwargs)
        finally:
            local.inside = False

    return wrapper


class Instrumentation:
    """Installs span wrappers on public functions and removes them again."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, cls: type, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(_spanned(raw.__func__, name)))
        else:
            self._set(cls, attr, _spanned(raw, name))

    def function(self, module: str, attr: str, name: str) -> None:
        """Wrap a module function and every ``repro`` module's alias of it."""
        original = getattr(sys.modules[module], attr)
        wrapped = _spanned(original, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapped)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install() -> Instrumentation:
    """Wrap every layer's public entry points; returns the undo handle."""
    import repro.cluster.simulator as cluster_simulator
    import repro.engine.engine  # noqa: F401 - binds make_policy
    import repro.experiments.comparison  # noqa: F401 - binds make_policy
    import repro.serve.manager as serve_manager
    from repro.core.controller import SatoriController
    from repro.experiments.runner import RunResult
    from repro.policies.base import PartitioningPolicy
    from repro.system.simulation import CoLocationSimulator
    from repro.system.telemetry import TelemetryLog

    inst = Instrumentation()
    inst.function("repro.policies.registry", "make_policy", "policy_build")
    inst.method(CoLocationSimulator, "__init__", "sim_build")
    inst.method(CoLocationSimulator, "step", "sim_step")
    inst.method(TelemetryLog, "record", "telemetry_record")
    inst.method(RunResult, "to_dict", "result_codec")
    inst.method(RunResult, "from_dict", "result_codec")
    inst.method(cluster_simulator.ClusterSimulator, "step_epoch", "step_epoch")
    for op in ("create", "step", "snapshot", "resume", "kill"):
        inst.method(serve_manager.SessionManager, op, f"serve.{op}")
    for cls in (PartitioningPolicy, *_subclasses(PartitioningPolicy)):
        # SATORI's decide already records the program's own "decide" span.
        if (
            "decide" in cls.__dict__
            and cls is not PartitioningPolicy
            and not issubclass(cls, SatoriController)
        ):
            inst.method(cls, "decide", "policy_decide")
        if "snapshot" in cls.__dict__:
            inst.method(cls, "snapshot", "policy_snapshot")
        if "restore" in cls.__dict__:
            inst.method(cls, "restore", "policy_restore")
    return inst


# -- attribution ------------------------------------------------------------


class SpanStats:
    """Count, total and self time per span name."""

    def __init__(self, events: Iterable[TraceEvent]) -> None:
        self.count: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        by_thread: Dict[Any, List[TraceEvent]] = defaultdict(list)
        for event in events:
            if event.kind == SPAN:
                by_thread[dict(event.args).get("tid", 0)].append(event)
        for spans in by_thread.values():
            self._nest(spans)

    def _nest(self, spans: List[TraceEvent]) -> None:
        spans.sort(key=lambda e: (e.start_ns, -e.duration_ns))
        stack: List[list] = []  # [end_ns, name, child_ns, duration_ns]
        for span in spans:
            end = span.start_ns + span.duration_ns
            while stack and stack[-1][0] <= span.start_ns:
                self._close(stack.pop())
            if stack:
                stack[-1][2] += span.duration_ns
            self.count[span.name] += 1
            self.total_s[span.name] += span.duration_ns / 1e9
            stack.append([end, span.name, 0, span.duration_ns])
        while stack:
            self._close(stack.pop())

    def _close(self, frame: list) -> None:
        _end, name, child_ns, duration_ns = frame
        self.self_s[name] += max(0, duration_ns - child_ns) / 1e9

    def coverage_pct(self, ops: Iterable[str] = (OP_SPAN,)) -> float:
        """Share of the time inside ``ops`` spans that named spans below them
        account for (the rest is the op spans' own self time)."""
        ops = tuple(ops)
        op_s = sum(self.total_s.get(name, 0.0) for name in ops)
        if not op_s:
            return 0.0
        return 100.0 * (op_s - sum(self.self_s.get(name, 0.0) for name in ops)) / op_s


def program_layer_metrics(stats: SpanStats, counters: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics every workload derives from its spans and counters.

    Layers a workload bypasses report 0: that is the measurement.
    """
    c = lambda name: int(counters.get(name, 0))  # noqa: E731
    return {
        "core.decide_count": stats.count["decide"],
        "core.decide_s": stats.total_s["decide"],
        "core.suggest_count": stats.count["suggest"],
        "core.gp_fit_s": stats.total_s["gp_fit"],
        "core.acquisition_s": stats.total_s["acquisition"],
        "core.gp_chol_full_count": c("gp.chol_full"),
        "core.gp_chol_extended_count": c("gp.chol_extended"),
        "core.gp_lengthscale_search_count": c("gp.lengthscale_searches"),
        "core.gp_lengthscale_reuse_count": c("gp.lengthscale_reuses"),
        "policies.build_count": stats.count["policy_build"],
        "policies.build_s": stats.total_s["policy_build"],
        "policies.decide_s": stats.total_s["policy_decide"],
        "system.step_count": stats.count["sim_step"],
        "system.step_s": stats.total_s["sim_step"],
        "system.telemetry_s": stats.total_s["telemetry_record"],
        "system.session_self_s": stats.self_s["interval"] + stats.self_s["baseline_refresh"],
        "state.snapshot_count": stats.count["policy_snapshot"],
        "state.snapshot_s": stats.total_s["policy_snapshot"],
        "state.restore_count": stats.count["policy_restore"],
        "state.restore_s": stats.total_s["policy_restore"],
        "engine.spec_count": stats.count["run_spec"],
        "engine.failed_count": c("engine.failed"),
        "engine.cache_hit_count": c("engine.cache_hits"),
        "engine.codec_s": stats.total_s["result_codec"],
        "engine.run_spec_self_s": stats.self_s["run_spec"],
        "engine.dispatch_s": stats.self_s["engine_batch"],
        "cluster.epoch_count": stats.count["step_epoch"],
        "cluster.epoch_self_s": stats.self_s["step_epoch"] + stats.self_s["epoch"],
        "broker.decide_count": stats.count["broker.decide"],
        "broker.decide_s": stats.total_s["broker.decide"],
    }


def write_spans(events: Iterable[TraceEvent], path: Path) -> int:
    """Write spans as gzipped JSON lines; returns how many were written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for event in events:
            out.write(json.dumps(event.to_dict(), default=str))
            out.write("\n")
            n += 1
    return n
