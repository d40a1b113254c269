"""The ``serve-stream`` workload: a durable server driven by a closed loop.

A real ``repro serve --demo --checkpoint`` process (default durability:
fsync on, a checkpoint every 8 batches) starts on the base graphs of
``build_stream_workload``.  The client rebuilds the same held-back edge
stream and sends its first :data:`WRITES` deltas over one keep-alive
connection, one request at a time.  After each write the client takes
an untimed ``GET /links`` snapshot, then makes :data:`READS_PER_WRITE`
point reads ``GET /links/<node>`` of distinct g1 nodes, as
``benchmarks/bench_serving.py`` does: the nodes are walked in an order
shuffled by the seed, so reads meet seeds, reconciled nodes and unlinked
nodes (which answer 404), and each answer must equal the snapshot.
After every :data:`KILL_EVERY` batches the client kills the server with
SIGKILL and restarts it with ``--resume``.  A server
checkpoints at boot, after every 8th batch and after a resume, so each
kill comes 4 batches after the last checkpoint and every restart
replays a 4-batch log tail.

Client and server are pinned to one CPU: the closed loop never runs
both at once, and pinning removes cross-CPU wake-ups from the latencies.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import quote

from perfbench.common import (
    BUILD,
    ROOT,
    OperationFailed,
    PeakMemoryProbe,
    Tally,
    median,
    percentile,
    pin_to_one_cpu,
)
from perfbench.trace import Patches, children_of, self_time_ns

N_USERS = 6000
ATTACHMENT = 8
#: The held-back stream is cut into STREAM_BATCHES deltas of ~58 edges
#: each; the run sends the first WRITES of them.
STREAM_BATCHES = 200
WRITES = 108
READS_PER_WRITE = 60
KILL_EVERY = 36
SETUPS = 5
TRACE_BLOCK = 8
BOOT_TIMEOUT_S = 120.0
#: The served graphs and their edge stream are a fixed data set (the
#: ``--seed`` of ``repro serve --demo``); the benchmark's seed orders the
#: reads.  Drawing the graphs per seed swings recall by 12%.
DATASET_SEED = 0
#: Checkpoint cadence and flush policy: the ``repro serve`` defaults.
SERVE_FLAGS = ["--demo", "--n", str(N_USERS), "--m", str(ATTACHMENT)]

LAYER_METRICS = {
    "server.parse.ms": "ms",
    "delta.validate.ms": "ms",
    "links_io.append.ms": "ms",
    "links_io.append.bytes": "bytes",
    "links_io.append.calls": "count",
    "engine.apply.ms": "ms",
    "engine.apply.dirty_links": "count",
    "engine.apply.rescored_rounds": "count",
    "engine.apply.full_rounds": "count",
    "delta_index.compact.ms": "ms",
    "delta_index.compact.count": "count",
    "engine.checkpoint.ms": "ms",
    "engine.checkpoint.bytes": "bytes",
    "service.resume.s": "s",
    "service.resume.replayed": "count",
    "process.start.s": "s",
    "service.render.ms": "ms",
    "service.render.hit_ratio": "ratio",
    "engine.start.s": "s",
    "serve.write_p90_ms": "ms",
    "serve.read_p50_ms": "ms",
    "serve.read_p99_ms": "ms",
    "serve.recover_s": "s",
    "trace.overhead_ratio": "ratio",
}


# ----------------------------------------------------------------------
# Server-side wrappers (installed by perfbench/launch_server.py)
# ----------------------------------------------------------------------
def _file_size(path: "str | Path") -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _append_before(attrs: dict, args: tuple, kwargs: dict) -> None:
    attrs["bytes"] = -_file_size(args[0].path)


def _append_after(attrs: dict, args: tuple, kwargs: dict, result: object) -> None:
    attrs["bytes"] += _file_size(args[0].path)
    attrs["calls"] = 1


def _apply_after(attrs: dict, args: tuple, kwargs: dict, outcome: object) -> None:
    attrs["dirty_links"] = outcome.dirty_links or 0
    attrs["rescored_rounds"] = outcome.rescored_rounds
    attrs["full_rounds"] = outcome.full_rounds


def _compact_after(attrs: dict, args: tuple, kwargs: dict, ran: object) -> None:
    attrs["count"] = int(bool(ran))


def _checkpoint_after(attrs: dict, args: tuple, kwargs: dict, result: object) -> None:
    attrs["bytes"] = _file_size(args[1])


def _render_before(attrs: dict, args: tuple, kwargs: dict) -> None:
    service, token = args[0], args[1]
    cached = service._link_cache.get(token)
    attrs["hits"] = int(cached is not None and cached[0] == service.version)
    attrs["calls"] = 1


def install_server_wrappers(patches: Patches) -> None:
    """Wrap the layers of one served write, read and restart."""
    from repro.core.links_io import LinkStore
    from repro.incremental.delta_index import DeltaIndex
    from repro.incremental.engine import IncrementalReconciler
    from repro.serving import server, service

    patches.wrap(server, "parse_json_delta", "server.parse")
    patches.wrap(service, "validate_delta", "delta.validate")
    patches.wrap(LinkStore, "append", "links_io.append", _append_after, _append_before)
    patches.wrap(IncrementalReconciler, "apply", "engine.apply", _apply_after)
    patches.wrap(IncrementalReconciler, "start", "engine.start")
    patches.wrap(
        IncrementalReconciler, "save_checkpoint", "engine.checkpoint", _checkpoint_after
    )
    patches.wrap(DeltaIndex, "maybe_compact", "delta_index.compact", _compact_after)
    patches.wrap(service.ReconciliationService, "resume", "service.resume")
    patches.wrap(
        service.ReconciliationService, "link_body", "service.render", before=_render_before
    )


def _layer_metrics(dumps: "list[dict]") -> dict[str, float]:
    """Aggregate the span dumps of every server process of the run."""
    durations: dict[str, list[float]] = {}
    sums: dict[str, int] = {}
    replayed: list[int] = []
    for dump in dumps:
        spans = dump["spans"]
        kids = children_of(spans)
        for i, (name, start, end, _parent, attrs) in enumerate(spans):
            self_time_ns(spans, kids, i)  # raises unless children add up
            durations.setdefault(name, []).append((end - start) / 1e6)
            for key, value in attrs.items():
                sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + value
            if name == "service.resume":
                replayed.append(
                    sum(1 for k in kids.get(i, ()) if spans[k][0] == "engine.apply")
                )

    def med(name: str, scale: float = 1.0) -> float:
        values = durations.get(name)
        return median(values) * scale if values else 0.0

    renders = sums.get("service.render.calls", 0)
    checkpoint_bytes = [
        s[4]["bytes"] for d in dumps for s in d["spans"] if s[0] == "engine.checkpoint"
    ]
    return {
        "server.parse.ms": med("server.parse"),
        "delta.validate.ms": med("delta.validate"),
        "links_io.append.ms": med("links_io.append"),
        "links_io.append.bytes": sums.get("links_io.append.bytes", 0),
        "links_io.append.calls": sums.get("links_io.append.calls", 0),
        "engine.apply.ms": med("engine.apply"),
        "engine.apply.dirty_links": sums.get("engine.apply.dirty_links", 0),
        "engine.apply.rescored_rounds": sums.get("engine.apply.rescored_rounds", 0),
        "engine.apply.full_rounds": sums.get("engine.apply.full_rounds", 0),
        "delta_index.compact.ms": med("delta_index.compact"),
        "delta_index.compact.count": sums.get("delta_index.compact.count", 0),
        "engine.checkpoint.ms": med("engine.checkpoint"),
        "engine.checkpoint.bytes": median(checkpoint_bytes) if checkpoint_bytes else 0,
        "service.resume.s": med("service.resume", 1e-3),
        "service.resume.replayed": median(replayed) if replayed else 0,
        "process.start.s": median(
            [(d["entered_ns"] - d["spawned_ns"]) / 1e9 for d in dumps]
        ),
        "service.render.ms": med("service.render"),
        "service.render.hit_ratio": (
            sums.get("service.render.hits", 0) / renders if renders else 0.0
        ),
        "engine.start.s": med("engine.start", 1e-3),
    }


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class _Server:
    """One ``repro serve`` child process and a keep-alive connection."""

    def __init__(self, argv: "list[str]", env: dict[str, str], stderr: Path) -> None:
        env = dict(env, PYTHONUNBUFFERED="1", PERFBENCH_SPAWNED_NS=str(time.monotonic_ns()))
        self.stderr = stderr
        with open(stderr, "w") as err:
            self.proc = subprocess.Popen(
                argv,
                cwd=ROOT,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=err,
                text=True,
            )
        self.tracing = True  # the launcher starts with spans on
        self.conn = None
        try:
            port = self._read_port()
            self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=BOOT_TIMEOUT_S)
            status, _ = self.request("GET", "/health")
            if status != 200:
                raise OperationFailed(f"/health answered {status}")
        except BaseException:
            self.kill()
            raise

    def _read_port(self) -> int:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            if "listening on http://" in line:
                return int(line.rsplit(":", 1)[1])
        self.proc.wait()
        err = self.stderr.read_text().strip()[-500:]
        raise OperationFailed(f"server exited before listening: {err}")

    def request(self, method: str, path: str, body: "bytes | None" = None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def links(self) -> tuple[int, dict]:
        """``(version, links)`` of ``GET /links``."""
        status, body = self.request("GET", "/links")
        if status != 200:
            raise OperationFailed(f"GET /links answered {status}")
        document = json.loads(body)
        return document["version"], dict(document["links"])

    def dump_trace(self, trace_dir: Path) -> None:
        """Ask the launcher to write its spans, and wait until it has."""
        target = trace_dir / f"{self.proc.pid}.json"
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not target.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise OperationFailed("server did not write its trace")
            time.sleep(0.005)

    def set_tracing(self, on: bool, trace_dir: Path) -> None:
        """Switch the launcher's span recording, and wait until it has."""
        if on == self.tracing:
            return
        state = trace_dir / f"{self.proc.pid}.state"
        self.proc.send_signal(signal.SIGUSR2)
        deadline = time.monotonic() + 30
        while not (state.exists() and state.read_text() == ("1" if on else "0")):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise OperationFailed("server did not switch tracing")
            time.sleep(0.005)
        self.tracing = on

    def kill(self) -> None:
        if self.conn is not None:
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()

    def stop(self) -> None:
        """Graceful stop (drain, flush, checkpoint) as Ctrl-C does."""
        self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        if self.proc.returncode != 0:
            raise OperationFailed(
                f"server exited with {self.proc.returncode} on SIGINT"
            )


def run(
    seed: int, seconds: float, traced: bool, env: dict[str, str], tally: Tally
) -> dict:
    """Run ``serve-stream``, counting operations in *tally*.

    Returns the metrics and counters of the result document.  The stream
    has a fixed length, :data:`WRITES` writes, so that the write p90 (the
    checkpoint-bearing writes) always has enough samples above it;
    *seconds* is not used.

    End-to-end metrics: ``reconcile_s`` is the p50 of a ``POST /delta``
    (one incremental reconciliation, logged and fsynced);
    ``reconcile_peak_mb`` the server's peak resident memory over the
    stream; ``precision`` and ``recall`` those of the final served links.
    The traced run takes its write and read percentiles from the blocks
    with spans off; its restarts run with spans on.
    """
    from repro.core.config import MatcherConfig
    from repro.core.links_io import format_node_token
    from repro.core.matcher import UserMatching
    from repro.core.ordering import node_sort_key
    from repro.evaluation.metrics import evaluate
    from repro.incremental.delta import apply_delta_to_graphs, delta_to_payload
    from repro.incremental.stream import build_stream_workload
    from repro.sampling.pair import GraphPair

    pin_to_one_cpu()
    work = BUILD / f"serve-{os.getpid()}"
    trace_dir = work / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    checkpoint = work / "serve.npz"
    base = [sys.executable]
    base += [str(ROOT / "perfbench" / "launch_server.py")] if traced else ["-m", "repro"]
    base += ["serve", *SERVE_FLAGS, "--seed", str(DATASET_SEED)]
    base += ["--port", "0", "--checkpoint", str(checkpoint)]
    if traced:
        env = dict(env, PERFBENCH_TRACE_DIR=str(trace_dir))

    server: "_Server | None" = None
    try:
        setup_times: list[float] = []
        for i in range(SETUPS):
            gc.unfreeze()
            began = time.perf_counter()
            pair, seeds, deltas = build_stream_workload(
                n=N_USERS, m=ATTACHMENT, seed=DATASET_SEED, batches=STREAM_BATCHES
            )
            deltas = deltas[:WRITES]
            gc.freeze()
            tally.attempted += 1
            server = _Server(base, env, work / "boot.err")
            setup_times.append(time.perf_counter() - began)
            if i < SETUPS - 1:
                if traced:
                    server.dump_trace(trace_dir)
                server.kill()
                server = None

        order = sorted(pair.g1.nodes(), key=node_sort_key)
        random.Random(seed).shuffle(order)
        to_read = itertools.cycle(
            [(v1, "/links/" + quote(format_node_token(v1), safe="")) for v1 in order]
        )
        # Latencies of the blocks with spans off (all of an untraced run)
        # and with spans on.
        writes: list[float] = []
        traced_writes: list[float] = []
        reads: list[float] = []
        traced_reads: list[float] = []
        recovers: list[float] = []
        peaks: list[float] = []
        probe = PeakMemoryProbe(server.proc.pid)
        probe.reset()
        dirty_links = 0
        for batch, delta in enumerate(deltas, start=1):
            body = json.dumps(delta_to_payload(delta)).encode()
            # A traced run alternates blocks of TRACE_BLOCK writes with
            # and without spans, which gives the tracing overhead.
            spans_on = traced and (batch - 1) // TRACE_BLOCK % 2 == 0
            if traced:
                server.set_tracing(spans_on, trace_dir)
            tally.attempted += 1
            began = time.perf_counter()
            status, reply = server.request("POST", "/delta", body)
            (traced_writes if spans_on else writes).append(time.perf_counter() - began)
            summary = json.loads(reply) if status == 200 else {}
            tally.check(summary.get("batch") == batch and summary.get("mode") == "warm")
            dirty_links += summary.get("dirty_links") or 0
            tally.attempted += 1
            version, snapshot = server.links()
            tally.check(version == batch)
            for v1, path in itertools.islice(to_read, READS_PER_WRITE):
                tally.attempted += 1
                began = time.perf_counter()
                status, reply = server.request("GET", path)
                elapsed = time.perf_counter() - began
                (traced_reads if spans_on else reads).append(elapsed)
                link = snapshot.get(v1)
                answer = json.loads(reply) if status in (200, 404) else {}
                tally.check(
                    status == (404 if link is None else 200)
                    and answer.get("link") == link
                    and answer.get("version") == batch
                )
            if batch % KILL_EVERY == 0:
                if traced:
                    server.dump_trace(trace_dir)
                peaks.append(probe.peak_mb())
                server.kill()
                server = None
                tally.attempted += 1
                began = time.perf_counter()
                server = _Server(base + ["--resume"], env, work / f"resume-{batch}.err")
                elapsed = time.perf_counter() - began
                probe = PeakMemoryProbe(server.proc.pid)
                probe.reset()
                if tally.check(server.links() == (batch, snapshot)):
                    recovers.append(elapsed)
        peaks.append(probe.peak_mb())
        if traced:
            server.dump_trace(trace_dir)
        tally.attempted += 1
        server.stop()
        server = None

        gc.unfreeze()
        for delta in deltas:
            apply_delta_to_graphs(pair.g1, pair.g2, delta)
            seeds.update(delta.added_seeds)
        tally.attempted += 1
        reference = UserMatching(
            MatcherConfig(threshold=2, iterations=1, backend="csr")
        ).run(pair.g1, pair.g2, seeds)
        tally.check(reference.links == snapshot)
        report = evaluate(reference, GraphPair(pair.g1, pair.g2, pair.identity))
        log_bytes = _file_size(str(checkpoint) + ".jsonl")
        checkpoint_bytes = _file_size(checkpoint)
        dumps = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
    finally:
        if server is not None:
            server.kill()
        shutil.rmtree(work, ignore_errors=True)

    latency = {
        "write_p50_ms": median(writes) * 1e3,
        "write_p90_ms": percentile(writes, 90) * 1e3,
        "read_p50_ms": median(reads) * 1e3,
        "read_p99_ms": percentile(reads, 99) * 1e3,
        "recover_s": median(recovers) if recovers else 0.0,
    }
    if not traced:
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "reconcile_s": (latency["write_p50_ms"] / 1e3, "s"),
            "reconcile_peak_mb": (max(peaks), "MB"),
            "precision": (report.precision, "ratio"),
            "recall": (report.recall, "ratio"),
        }
    else:
        layers = _layer_metrics(dumps)
        layers["serve.write_p90_ms"] = latency["write_p90_ms"]
        layers["serve.read_p50_ms"] = latency["read_p50_ms"]
        layers["serve.read_p99_ms"] = latency["read_p99_ms"]
        layers["serve.recover_s"] = latency["recover_s"]
        layers["trace.overhead_ratio"] = median(traced_writes) / median(writes)
        metrics = {k: (layers[k], unit) for k, unit in LAYER_METRICS.items()}
    return {
        "metrics": metrics,
        "counters": {
            "writes": len(writes) + len(traced_writes),
            "reads": len(reads) + len(traced_reads),
            "recoveries": len(recovers),
            "peaks_mb": [round(p, 1) for p in peaks],
            "links": len(snapshot),
            "dirty_links": dirty_links,
            "log_bytes": log_bytes,
            "checkpoint_bytes": checkpoint_bytes,
            **latency,
        },
    }
