"""The traced control-plane server used by ``serve_10hz --trace 1``.

Usage: ``python3 perfbench/serve_child.py SUMMARY_JSON`` with ``src`` on
``PYTHONPATH``. It serves like ``python -m repro serve --port 0`` (same
ready line on stdout) with every layer's public functions wrapped in spans
(see ``layers.py``). On SIGTERM it stops, writes its per-layer metrics to
``SUMMARY_JSON`` and its spans beside it, and exits.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from repro.serve import ControlPlaneServer  # noqa: E402

#: The server's own ops: coverage is the share of their time that the
#: layers below the session manager account for.
SERVE_OPS = ("serve.create", "serve.step", "serve.snapshot", "serve.resume", "serve.kill")


async def serve(server: ControlPlaneServer) -> None:
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    await server.start()
    host, port = server.address
    print(f"control plane listening on {host}:{port}", flush=True)
    try:
        await stop.wait()
    finally:
        await server.stop()


def main() -> int:
    summary_path = Path(sys.argv[1])
    collector = layers.ThreadCollector()
    inst = layers.install()
    try:
        asyncio.run(serve(ControlPlaneServer(collector=collector)))
    finally:
        inst.remove()
    stats = layers.SpanStats(collector.events)
    metrics = layers.program_layer_metrics(stats, collector.metrics.counters())
    metrics["trace.coverage_pct"] = stats.coverage_pct(SERVE_OPS)
    n_spans = layers.write_spans(
        collector.events, summary_path.with_name(summary_path.stem + "-spans.jsonl.gz")
    )
    summary_path.write_text(json.dumps({"metrics": metrics, "spans_written": n_spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
