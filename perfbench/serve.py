"""``serve_10hz``: an open-loop control plane at the paper's 10 Hz.

``python -m repro serve --port 0`` runs as a child process. This process is
the only client: one asyncio loop drives it over ``N_CONNECTIONS``
JSON-lines connections, one request in flight per connection. ``N_SESSIONS``
session slots are always occupied; each slot steps at 10 Hz on its own phase
within the 100-ms period, so the offered load is about 120 requests/s. The
load is open-loop: every op has a due time fixed by the schedule, and its
latency runs from when it was due, so a stall also counts against the ops
queued behind it. A session's ops always use the same connection, which
keeps them in order.

Each session lives ``LIFETIME_S`` (the first session of slot ``k`` lives
``(k + 1) / N_SESSIONS`` of that, so that endings are staggered) and then
its slot creates the next one. One lifetime is: ``create``; a ``step`` every
0.1 s; a checkpoint ``snapshot`` every ``CHECKPOINT_S`` of session life;
one migration (``resume`` of the latest checkpoint, then ``kill`` of the
original) at a checkpoint picked from the seed; ``kill`` at end of life.
Policies rotate SATORI/PARTIES/CoPart/dCAT across slots and lifetimes; mix
and session seed come from ``--seed``. The schedule, not timing, decides
which ops are sent, so a seed fixes every reply.

Why: it is the only workload that exercises ``serve``. Snapshot and resume
writes sit beside step reads, and snapshot size grows with session age
(SATORI: ~15 KB at 5 steps, ~380 KB at 300), so a gain for steps that costs
checkpoints, or the reverse, shows. It bypasses ``engine`` and ``cluster``.
``N_SESSIONS`` is 12, not the 40 first planned. On a 2-CPU machine where a
``paper_fig7`` pass takes ~29 s, 40 sessions (~400 requests/s) saturated the
server: two identical runs gave a p50 of 20 ms and of 2.7 s. At 20 sessions
the p50 ranged 2.6-29 ms over ten seeds of 25 s, as SATORI sessions aged; at
12 it stayed within 3.1-3.5 ms over five. Capacity at saturation is not
measured here.

Known defects, counted and not routed around. (1) The JSON-lines ``resume`` of a
snapshot larger than 64 KiB resets the connection (``asyncio.start_server``'s
default stream limit, although ``MAX_FRAME_BYTES`` is 64 MiB). Such a resume
counts as a failed op, the client reconnects, and the original session
carries on (its ``kill`` is then not sent). (2) dCAT, CoPart and PARTIES
keep no snapshot state, so a resumed session of theirs restarts its policy
mid-stream: its later steps fail with an ``AttributeError`` (counted as
failed ops), or its telemetry silently diverges from the unmigrated run
(the replay's ``migration_changed`` list names such sampled sessions).

Correctness: a sample of sessions is replayed in-process through
``SessionManager``, op for op; each replay's telemetry means and step
failures must equal the server's bit for bit.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.engine import derive_seed
from repro.serve.manager import SessionManager, SessionSpec
from repro.workloads.mixes import suite_mixes

import common

POLICIES = ("SATORI", "PARTIES", "CoPart", "dCAT")
SUITE = "parsec"
N_SESSIONS = 12
N_CONNECTIONS = 2
INTERVAL_S = 0.1
LIFETIME_S = 25.0
CHECKPOINT_S = 10.0
SERVER_SPAWNS = 3
#: Client stream limit: a snapshot reply must fit in one line.
CLIENT_LIMIT = 1 << 26
LOST = "connection lost"

LIFETIME_STEPS = round(LIFETIME_S / INTERVAL_S)
CHECKPOINT_STEPS = round(CHECKPOINT_S / INTERVAL_S)


@dataclass(eq=False)
class Session:
    """The client's view of one session lifetime."""

    slot: int
    index: int
    spec: dict
    lifetime: int  # steps
    checkpoints: Tuple[int, ...]  # step counts after which to snapshot
    migrate_at: int
    sid: Optional[str] = None
    original: Optional[str] = None
    steps: int = 0
    last: Optional[dict] = None
    snapshot: Optional[bytes] = None  # the latest checkpoint, raw JSON
    migration_failed: bool = False
    #: ``(op, ok)`` for every op the server saw, in order (for the replay).
    history: List[Tuple[str, bool]] = field(default_factory=list)


def make_session(seed: int, slot: int, index: int) -> Session:
    rng = np.random.default_rng(derive_seed("serve_10hz", seed, slot, index))
    lifetime = LIFETIME_STEPS
    if index == 0:
        lifetime = max(2, round(LIFETIME_STEPS * (slot + 1) / N_SESSIONS))
    checkpoints = tuple(range(CHECKPOINT_STEPS, lifetime, CHECKPOINT_STEPS)) or (lifetime // 2,)
    spec = SessionSpec(
        policy=POLICIES[(slot + index) % len(POLICIES)],
        suite=SUITE,
        mix=int(rng.integers(len(suite_mixes(SUITE)))),
        seed=int(rng.integers(2**31)),
    )
    return Session(
        slot=slot, index=index, spec=spec.to_dict(), lifetime=lifetime,
        checkpoints=checkpoints, migrate_at=checkpoints[int(rng.integers(len(checkpoints)))],
    )


def slot_ops(seed: int, first: Session) -> Iterator[Tuple[int, str, Session]]:
    """``(tick, op, session)`` for ``first``'s slot, forever, in send order.

    ``first`` was created during set-up; later lifetimes start with a create.
    """
    tick = 0
    index = 0
    while True:
        session = first if index == 0 else make_session(seed, first.slot, index)
        if index > 0:
            yield tick, "create", session
        for step in range(1, session.lifetime + 1):
            yield tick, "step", session
            if step in session.checkpoints:
                yield tick, "snapshot", session
                if step == session.migrate_at:
                    yield tick, "resume", session
                    yield tick, "kill_original", session
            tick += 1
        yield tick - 1, "kill", session
        index += 1


@dataclass
class Phase:
    """What one timed window measured."""

    latencies: Dict[str, List[float]] = field(default_factory=dict)  # op -> ms from due
    sent_latency_ms: List[float] = field(default_factory=list)  # steps, from send
    lag_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)  # op -> first error seen
    steps_ok: int = 0
    window_s: float = 0.0
    sessions: Dict[Tuple[int, int], Session] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    setup: Dict[str, float] = field(default_factory=dict)

    def all_latencies(self) -> List[float]:
        return [v for values in self.latencies.values() for v in values]


#: A snapshot reply is ``SNAPSHOT_HEAD + <snapshot JSON> + SNAPSHOT_TAIL``.
#: The client keeps the snapshot as those raw bytes and splices them into
#: the resume request, so the generator's loop never parses or re-encodes
#: a snapshot of up to a few hundred KB.
SNAPSHOT_HEAD = b'{"snapshot": '
SNAPSHOT_TAIL = b', "ok": true}\n'


def _request(op: str, session: Session) -> Optional[bytes]:
    """The request line for ``op``, or ``None`` when it is not to be sent."""
    if op == "create":
        payload = {"op": "create", "spec": session.spec}
    elif session.sid is None:
        return None
    elif op == "step":
        payload = {"op": "step", "session": session.sid, "n": 1}
    elif op == "snapshot":
        payload = {"op": "snapshot", "session": session.sid}
    elif op == "resume":
        if session.snapshot is None:
            return None
        return b'{"op": "resume", "snapshot": ' + session.snapshot + b"}\n"
    elif op == "kill_original":
        if session.migration_failed:
            return None  # the original still serves the session
        payload = {"op": "kill", "session": session.original}
    else:
        payload = {"op": "kill", "session": session.sid}
    return json.dumps(payload).encode() + b"\n"


def _parse(op: str, session: Session, line: bytes) -> dict:
    """Decode a reply; a snapshot reply is kept raw on the session."""
    if op == "snapshot" and line.startswith(SNAPSHOT_HEAD) and line.endswith(SNAPSHOT_TAIL):
        session.snapshot = line[len(SNAPSHOT_HEAD):-len(SNAPSHOT_TAIL)]
        return {"ok": True}
    return json.loads(line)


def _apply(op: str, session: Session, reply: dict) -> None:
    if op == "create":
        session.sid = reply["session"]
    elif op == "step":
        session.steps = reply["steps"]
        session.last = reply
    elif op == "resume":
        session.original, session.sid = session.sid, reply["session"]
        session.snapshot = None


class Client:
    """The open-loop generator and its connections."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.phase = Phase()

    async def _connect(self):
        return await asyncio.open_connection("127.0.0.1", self.port, limit=CLIENT_LIMIT)

    async def call(self, conn, request: bytes) -> bytes:
        reader, writer = conn
        writer.write(request)
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        return line

    async def call_json(self, conn, payload: dict) -> dict:
        return json.loads(await self.call(conn, json.dumps(payload).encode() + b"\n"))

    async def create_cohort(self, sessions: List[Session]) -> None:
        conn = await self._connect()
        try:
            for session in sessions:
                reply = await self.call_json(conn, {"op": "create", "spec": session.spec})
                if not reply.get("ok"):
                    raise RuntimeError(f"set-up create failed: {reply}")
                session.sid = reply["session"]
                session.history.append(("create", True))
        finally:
            conn[1].close()

    async def stats(self) -> dict:
        conn = await self._connect()
        try:
            return (await self.call_json(conn, {"op": "stats"}))["stats"]
        finally:
            conn[1].close()

    async def _worker(self, queue: asyncio.Queue) -> None:
        loop = asyncio.get_running_loop()
        phase = self.phase
        conn = await self._connect()
        try:
            while True:
                item = await queue.get()
                if item is None:
                    return
                due, op, session = item
                request = _request(op, session)
                if request is None:
                    continue
                phase.attempted += 1
                sent = loop.time()
                try:
                    reply = _parse(op, session, await self.call(conn, request))
                except (ConnectionError, OSError, asyncio.IncompleteReadError):
                    reply = {"ok": False, "error": LOST}
                    conn[1].close()
                    conn = await self._connect()
                done = loop.time()
                if not reply.get("ok"):
                    phase.failed += 1
                    phase.failures[op] = phase.failures.get(op, 0) + 1
                    phase.errors.setdefault(op, reply.get("error", ""))
                    if op == "resume":
                        session.migration_failed = True
                    if reply.get("error") != LOST:
                        session.history.append((op, False))
                    continue
                session.history.append((op, True))
                _apply(op, session, reply)
                phase.latencies.setdefault(op, []).append(1e3 * (done - due))
                if op == "step":
                    phase.steps_ok += 1
                    phase.sent_latency_ms.append(1e3 * (done - sent))
        finally:
            conn[1].close()

    async def run_window(self, seed: int, first: List[Session], seconds: float) -> None:
        """Send every op due in ``[t0, t0 + seconds)`` and wait for replies."""
        loop = asyncio.get_running_loop()
        queues = [asyncio.Queue() for _ in range(N_CONNECTIONS)]
        workers = [asyncio.ensure_future(self._worker(q)) for q in queues]
        t0 = loop.time() + 0.05
        end = t0 + seconds
        order = itertools.count()
        heap = []

        def push(gen) -> None:
            tick, op, session = next(gen)
            due = t0 + (tick + session.slot / N_SESSIONS) * INTERVAL_S
            heapq.heappush(heap, (due, next(order), op, session, gen))

        for session in first:
            push(slot_ops(seed, session))
        try:
            while heap and heap[0][0] < end:
                due, _, op, session, gen = heapq.heappop(heap)
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                self.phase.lag_ms.append(1e3 * max(0.0, loop.time() - due))
                queues[session.slot % N_CONNECTIONS].put_nowait((due, op, session))
                self.phase.sessions[(session.slot, session.index)] = session
                push(gen)
            for queue in queues:
                queue.put_nowait(None)
            await asyncio.gather(*workers)
        finally:
            for worker in workers:
                worker.cancel()
        self.phase.window_s = max(end, loop.time()) - t0


# -- the server child --------------------------------------------------------


def spawn_server(traced_out: Optional[str], log_path) -> Tuple[subprocess.Popen, int, float]:
    """Start the server; returns the process, its port and seconds to ready."""
    env = dict(os.environ, PYTHONPATH=str(common.ROOT / "src"))
    if traced_out is None:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
    else:
        cmd = [sys.executable, str(common.ROOT / "perfbench" / "serve_child.py"), traced_out]
    started = common.now()
    log = open(log_path, "ab")
    try:
        proc = subprocess.Popen(
            cmd, cwd=common.ROOT, env=env, stdout=subprocess.PIPE, stderr=log,
            stdin=subprocess.DEVNULL,
        )
    finally:
        log.close()
    line = proc.stdout.readline().decode()
    if "listening on" not in line:
        stop_server(proc)
        raise RuntimeError(f"server did not start: {line!r}")
    port = int(line.rsplit(":", 1)[1])
    return proc, port, common.now() - started


def stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def run_phase(seed: int, seconds: float, traced_out: Optional[str], spawns: int) -> Phase:
    """Spawn the server (``spawns`` times, keeping the last), create the
    first cohort, drive one window, read the server's stats, stop it."""
    common.OUT_DIR.mkdir(exist_ok=True)
    log_path = common.OUT_DIR / f"server-serve_10hz-seed{seed}.log"
    spawn_times = []
    for attempt in range(spawns):
        proc, port, ready_s = spawn_server(traced_out, log_path)
        spawn_times.append(ready_s)
        if attempt < spawns - 1:
            stop_server(proc)
    try:
        client = Client(port)
        first = [make_session(seed, slot, 0) for slot in range(N_SESSIONS)]
        started = common.now()
        asyncio.run(client.create_cohort(first))
        create_s = common.now() - started
        asyncio.run(client.run_window(seed, first, seconds))
        client.phase.stats = asyncio.run(client.stats())
    finally:
        stop_server(proc)
    phase = client.phase
    phase.setup = {"spawn_s": common.median(spawn_times), "create_s": create_s}
    return phase


# -- results -----------------------------------------------------------------


def sim_scores(phase: Phase) -> Tuple[float, float]:
    stepped = [s for s in phase.sessions.values() if s.last is not None]
    n = len(stepped)
    return (
        100.0 * sum(s.last["mean_throughput"] for s in stepped) / n,
        100.0 * sum(s.last["mean_fairness"] for s in stepped) / n,
    )


def _replay(session: Session, manager: SessionManager, follow_migration: bool):
    """Re-run a session's server history in-process; returns the last step
    reply and the number of steps that failed."""
    sid = original = snapshot = last = None
    failed_steps = 0
    for op, ok in session.history:
        if op == "create":
            sid = manager.create(SessionSpec.from_dict(session.spec))
        elif op == "step":
            try:
                last = manager.step(sid)
            except Exception:  # noqa: BLE001 - the server reports these as ok: false
                failed_steps += 1
        elif op == "snapshot" and follow_migration:
            snapshot = json.loads(json.dumps(manager.snapshot(sid)))
        elif op == "resume" and ok and follow_migration:
            original, sid = sid, manager.resume(snapshot)
        elif op == "kill_original" and follow_migration:
            manager.kill(original)
    return last, failed_steps


def replay_check(phase: Phase) -> Dict[str, object]:
    """Replay the longest-lived session of each policy in-process.

    The replay repeats the session's ops through ``SessionManager`` (a
    resume the server never received is left out) and must reproduce the
    server's telemetry means and step failures exactly. A second replay
    without the migration shows whether the migration changed the session:
    the program promises that it does not, and ``migration_changed`` lists
    the sessions where it did (reported, not a check).
    """
    chosen = []
    for policy in POLICIES:
        candidates = [
            s for s in phase.sessions.values()
            if s.last is not None and s.spec["policy"] == policy
        ]
        candidates.sort(key=lambda s: (-s.steps, s.slot, s.index))
        chosen.extend(candidates[:1])
    manager = SessionManager()
    mismatches, changed = [], []
    for session in chosen:
        server_failed = sum(1 for op, ok in session.history if op == "step" and not ok)
        last, failed_steps = _replay(session, manager, follow_migration=True)
        if failed_steps != server_failed or any(
            last[key] != session.last[key] for key in ("mean_throughput", "mean_fairness")
        ):
            mismatches.append((session.slot, session.index))
        if session.original is not None:
            plain, _ = _replay(session, manager, follow_migration=False)
            if plain is None or plain["mean_throughput"] != session.last["mean_throughput"]:
                changed.append((session.spec["policy"], session.slot, session.index))
    return {
        "replayed": [(s.spec["policy"], s.steps, s.original is not None) for s in chosen],
        "mismatches": mismatches,
        "migration_changed": changed,
        "ok": bool(chosen) and not mismatches,
    }


def _defect_note(phase: Phase) -> Dict[str, int]:
    return {
        "resume_failed": phase.failures.get("resume", 0),
        "other_failed": phase.failed - phase.failures.get("resume", 0),
    }


def run(ctx) -> common.Outcome:
    import_s = common.now() - ctx.started
    params = {
        "policies": list(POLICIES), "suite": SUITE, "sessions": N_SESSIONS,
        "connections": N_CONNECTIONS, "rate_hz": 1 / INTERVAL_S, "lifetime_s": LIFETIME_S,
        "checkpoint_s": CHECKPOINT_S, "loop": "open", "server": "python -m repro serve --port 0",
        "op": "one request, timed from its due time",
    }
    if ctx.trace:
        return _traced(ctx, params)
    phase = run_phase(ctx.seed, ctx.seconds, None, SERVER_SPAWNS)
    replay = replay_check(phase)
    setup_s = import_s + phase.setup["spawn_s"] + phase.setup["create_s"]
    ops = phase.all_latencies()
    throughput, fairness = sim_scores(phase)
    return common.Outcome(
        attempted=phase.attempted,
        failed=phase.failed,
        metrics={
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (common.peak_rss_mb(include_children=True), "MB"),
            "intervals_per_s": (phase.steps_ok / phase.window_s, "1/s"),
            "op_p50_ms": (common.median(ops), "ms"),
            "ok_pct": (common.ok_pct(phase.attempted, phase.failed), "%"),
            "sim_throughput_pct": (throughput, "%"),
            "sim_fairness_pct": (fairness, "%"),
        },
        checks={"replay_matches_server": replay["ok"]},
        params=params,
        extra={
            "replay": replay, "failures": phase.failures, "errors": phase.errors,
            "defects": _defect_note(phase),
            "server_stats": phase.stats, "setup": dict(phase.setup, import_s=import_s),
            "lag_p99_ms": common.quantile(phase.lag_ms, 0.99),
            "op_p90": common.tail(ops, 0.90),
            "op_p99": common.tail(ops, 0.99),
        },
    )


def _traced(ctx, params) -> common.Outcome:
    """Half the time against the plain server, half against a traced one."""
    half = ctx.seconds / 2
    plain = run_phase(ctx.seed, half, None, 1)
    summary_path = common.OUT_DIR / f"server-layers-serve_10hz-seed{ctx.seed}.json"
    traced = run_phase(ctx.seed, half, str(summary_path), 1)
    server = json.loads(summary_path.read_text())
    metrics = dict(server["metrics"])
    step_p50 = traced.stats["decision_latency_p50_ms"]

    def p50(op: str) -> float:
        values = traced.latencies.get(op)
        return common.median(values) if values else 0.0

    resume_failed = traced.failures.get("resume", 0)
    metrics.update({
        "serve.server_step_p50_ms": step_p50,
        "serve.server_step_p99_ms": traced.stats["decision_latency_p99_ms"],
        "serve.wire_p50_ms": common.median(traced.sent_latency_ms) - step_p50,
        "serve.snapshot_p50_ms": p50("snapshot"),
        "serve.create_p50_ms": p50("create"),
        "serve.resume_count": len(traced.latencies.get("resume", ())) + resume_failed,
        "serve.resume_failed_count": resume_failed,
        "serve.op_p99_ms": common.quantile(traced.all_latencies(), 0.99),
        "tail.op_p90_ms": common.quantile(traced.all_latencies(), 0.90),
        "loadgen.lag_p99_ms": common.quantile(traced.lag_ms, 0.99),
        "trace.overhead_pct": 100.0 * (
            common.median(traced.all_latencies()) / common.median(plain.all_latencies()) - 1.0
        ),
    })
    checks = {
        "traced_equals_untraced": sim_scores(traced) == sim_scores(plain)
        and traced.failures == plain.failures,
    }
    params["phase_seconds"] = half
    return common.Outcome(
        attempted=traced.attempted, failed=traced.failed, metrics=metrics, checks=checks,
        params=params, extra={"failures": traced.failures, "defects": _defect_note(traced)},
    )
