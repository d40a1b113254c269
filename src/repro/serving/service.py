"""Reconciliation-as-a-service: the engine wrapped for live traffic.

:class:`ReconciliationService` is the transport-independent half of the
serving layer.  It owns one
:class:`~repro.incremental.engine.IncrementalReconciler` and turns it
into a long-running, crash-safe component:

- **Single-writer coalescing.**  All writes flow through one asyncio
  queue consumed by one writer task.  Each wakeup drains the queue and
  merges adjacent, non-overlapping deltas into one batched
  :meth:`~repro.incremental.engine.IncrementalReconciler.apply` — so a
  burst of concurrent POSTs pays one warm apply, not one per request.
  Every delta is pre-validated with
  :func:`~repro.incremental.delta.validate_delta` (graphs and seed set)
  before it is logged, so a rejected request never reaches the log —
  and the engine's ``apply`` runs the same check first, so it never
  leaves the graphs partially mutated either.
- **Admission control.**  The write queue is bounded; past
  ``max_pending`` the submit raises :class:`AdmissionError` (the HTTP
  layer maps it to 429 with a ``Retry-After`` derived from observed
  apply latency), and a closing service raises :class:`ServiceClosing`
  (503).  Reads are never queued.
- **Read cache.**  Link and score reads are served from cached JSON
  bodies keyed on the engine's current state version — the packed-key
  score tables and link mapping change only inside the writer task, so
  the cache is invalidated exactly once per applied batch.
- **Durability.**  With a checkpoint path, the service keeps the
  existing :class:`~repro.core.links_io.LinkStore` JSONL event log
  (every batch's *full* delta payload, fsynced before the apply) plus
  periodic npz checkpoints.  :meth:`resume` rebuilds the engine from
  the checkpoint and replays the logged tail, so a hard kill loses at
  most the event being written — served links after resume are
  bit-identical to a cold batch run on the final graphs.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable

import numpy as np

from repro.core.links_io import (
    LinkStore,
    format_node_token,
    parse_node_token,
)
from repro.core.ordering import node_sort_key
from repro.errors import ReproError
from repro.incremental.delta import (
    DeltaError,
    GraphDelta,
    delta_from_payload,
    delta_to_payload,
    validate_delta,
)
from repro.incremental.engine import DeltaOutcome, IncrementalReconciler
from repro.serving.http import json_body

Node = Hashable


class AdmissionError(ReproError):
    """The write queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServiceClosing(ReproError):
    """The service is shutting down and admits no new writes."""


@dataclass
class _WriteItem:
    """One queued delta plus the future its submitter awaits."""

    delta: GraphDelta
    future: "asyncio.Future[dict]"


def _percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def _edge_keys(delta: GraphDelta, side: int) -> "set[frozenset[Node]]":
    added = delta.added_edges1 if side == 1 else delta.added_edges2
    removed = delta.removed_edges1 if side == 1 else delta.removed_edges2
    return {frozenset(edge) for edge in added} | {
        frozenset(edge) for edge in removed
    }


def _can_merge(
    keys1: "set[frozenset[Node]]",
    keys2: "set[frozenset[Node]]",
    seed_sources: "set[Node]",
    delta: GraphDelta,
) -> bool:
    """Whether *delta* commutes with the accumulated batch.

    Disjoint edge keys per side and disjoint seed sources make the
    merged batch (all additions, then all removals) equivalent to the
    sequential applies — overlap of any kind starts a new batch
    instead of reasoning about ordering.
    """
    if not keys1.isdisjoint(_edge_keys(delta, 1)):
        return False
    if not keys2.isdisjoint(_edge_keys(delta, 2)):
        return False
    return seed_sources.isdisjoint(v1 for v1, _v2 in delta.added_seeds)


class ReconciliationService:
    """A long-running, crash-safe facade over one warm engine.

    Parameters
    ----------
    engine : IncrementalReconciler
        A **started** engine (``start()`` already ran, or built via
        :meth:`IncrementalReconciler.resume`).  The service becomes
        its sole owner: all further ``apply`` calls go through the
        writer task.
    checkpoint_path : str or Path, optional
        Enables durability: periodic npz checkpoints here, plus the
        JSONL event log.  Requires the warm engine (black-box matchers
        cannot checkpoint).
    log_path : str or Path, optional
        Event-log location; defaults to ``<checkpoint_path>.jsonl``.
    checkpoint_every : int
        Save a checkpoint every this many applied batches (the log
        tail replayed on resume is at most this long).
    max_pending : int
        Admission-control bound on queued write requests.
    fsync : bool
        Passed to :class:`~repro.core.links_io.LinkStore`; leave on
        for crash safety, off for throughput-only benchmarks.
    history : int
        How many recent apply/request timings feed the stats and the
        ``Retry-After`` estimate.
    """

    def __init__(
        self,
        engine: IncrementalReconciler,
        *,
        checkpoint_path: "str | Path | None" = None,
        log_path: "str | Path | None" = None,
        checkpoint_every: int = 8,
        max_pending: int = 64,
        fsync: bool = True,
        history: int = 512,
        resumed_batches: int = 0,
    ) -> None:
        if engine.result is None:
            raise ReproError(
                "serve requires a started engine: call start() or "
                "resume() first"
            )
        if checkpoint_path is not None and engine.mode != "warm":
            raise ReproError(
                "durability requires the warm engine (UserMatching); "
                "black-box matchers cannot checkpoint"
            )
        if checkpoint_every < 1:
            raise ReproError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if max_pending < 1:
            raise ReproError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        self.engine = engine
        self.checkpoint_path = (
            None if checkpoint_path is None else Path(checkpoint_path)
        )
        if log_path is None and self.checkpoint_path is not None:
            log_path = str(self.checkpoint_path) + ".jsonl"
        self.store = (
            None if log_path is None else LinkStore(log_path, fsync=fsync)
        )
        self.checkpoint_every = checkpoint_every
        self.max_pending = max_pending
        self.batches_done = resumed_batches
        self._resumed = resumed_batches > 0
        self._batches_at_checkpoint = resumed_batches
        self._bootstrapped = False
        self._closing = False
        self._queue: "asyncio.Queue[_WriteItem | None]" = asyncio.Queue()
        self._writer_task: "asyncio.Task[None] | None" = None
        # Test hook: when set, the writer waits here before each drain,
        # which lets admission-control tests fill the queue
        # deterministically.
        self.writer_gate: "asyncio.Event | None" = None
        # Read cache: one version per applied batch; every cached body
        # embeds the version it was rendered at.  The version IS the
        # applied batch sequence number (kept equal to
        # ``batches_done`` by ``_invalidate_caches``), so it survives
        # restarts and is comparable across the primary and every
        # replica tailing its log — which is what lets the HTTP layer
        # use it as an ETag.
        self.version = resumed_batches
        self._links_body: "bytes | None" = None
        self._link_cache: dict[str, tuple[int, bytes]] = {}
        self._score_cache: dict[str, tuple[int, bytes]] = {}
        self._cache_cap = 4096
        # Telemetry.
        self._apply_ms: "deque[float]" = deque(maxlen=history)
        self._batch_sizes: "deque[int]" = deque(maxlen=history)
        self._request_ms: "deque[float]" = deque(maxlen=history)
        self.requests_total = 0
        self.requests_by_status: dict[int, int] = {}
        self.rejected_full = 0
        self.rejected_closing = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bootstrap durability and launch the single writer task."""
        if self._writer_task is not None:
            raise ReproError("service already started")
        if self.checkpoint_path is not None and not self._resumed:
            # A fresh service supersedes whatever lived at this path:
            # restart the event log so its replay is exactly this
            # engine's history, then checkpoint the initial state.  The
            # old log goes first, so the new checkpoint never gets the
            # old service's deltas replayed on it.  A crash before the
            # new checkpoint lands resumes the old checkpoint without
            # its log tail: the old service's state at its last
            # checkpoint, not its last acknowledged batch.  The fresh
            # start discards that state anyway; start fresh again.
            assert self.store is not None
            self.store.path.unlink(missing_ok=True)
            self._save_checkpoint()
            self.store.append_seeds(self.engine.seeds)
            self.store.append_links(self.engine.result.new_links, round=0)
        self._bootstrapped = True
        self._writer_task = asyncio.get_running_loop().create_task(
            self._writer_loop()
        )

    async def close(self) -> None:
        """Graceful shutdown: drain queued writes, flush, checkpoint.

        Every write already admitted is applied and its submitter
        answered before this returns; new submissions raise
        :class:`ServiceClosing` from the moment it is called.
        """
        self._closing = True
        if self._writer_task is not None:
            await self._queue.put(None)
            await self._writer_task
            self._writer_task = None
        if (
            self.checkpoint_path is not None
            and self.batches_done != self._batches_at_checkpoint
        ):
            self._save_checkpoint()

    def abort(self) -> None:
        """Simulate a crash: stop immediately, flush nothing.

        Queued-but-unapplied writes get :class:`ServiceClosing`; the
        checkpoint and log stay exactly as the last completed batch
        left them — which is what :meth:`resume` is tested against.
        """
        self._closing = True
        if self._writer_task is not None:
            self._writer_task.cancel()
            self._writer_task = None
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not None and not item.future.done():
                item.future.set_exception(
                    ServiceClosing("service aborted")
                )

    @classmethod
    def resume(
        cls,
        checkpoint_path: "str | Path",
        *,
        log_path: "str | Path | None" = None,
        checkpoint_every: int = 8,
        max_pending: int = 64,
        fsync: bool = True,
        history: int = 512,
    ) -> "ReconciliationService":
        """Rebuild a service from its checkpoint plus the log tail.

        The engine resumes from the npz checkpoint; every ``delta``
        event logged *after* the checkpointed batch count is replayed
        through :meth:`~IncrementalReconciler.apply` (the log records
        full delta payloads and is written before each apply, so a
        kill at any instant loses nothing already acknowledged).  The
        log then gets a reconciliation event so its fold matches the
        replayed links, and a fresh checkpoint absorbs the tail.

        Raises
        ------
        ReproError
            If the checkpoint is missing or was not written by the
            serving layer, or the log tail is unreplayable.
        """
        checkpoint_path = Path(checkpoint_path)
        if not checkpoint_path.exists():
            raise ReproError(
                f"--resume: checkpoint {checkpoint_path} does not "
                "exist; start once without --resume to create it"
            )
        engine = IncrementalReconciler.resume(checkpoint_path)
        extra = engine.checkpoint_extra or {}
        serving_meta = extra.get("serving")
        if not isinstance(serving_meta, dict):
            raise ReproError(
                f"checkpoint {checkpoint_path} was not written by the "
                "serving layer (no 'serving' metadata)"
            )
        batches_done = int(serving_meta.get("batches_done", 0))
        if log_path is None:
            log_path = str(checkpoint_path) + ".jsonl"
        store = LinkStore(log_path, fsync=fsync)
        replayed = cls._replay_log_tail(engine, store, batches_done)
        service = cls(
            engine,
            checkpoint_path=checkpoint_path,
            log_path=log_path,
            checkpoint_every=checkpoint_every,
            max_pending=max_pending,
            fsync=fsync,
            history=history,
            resumed_batches=batches_done + replayed,
        )
        if replayed:
            # Absorb the tail: reconcile the log's fold with the
            # replayed links, then re-checkpoint so the next resume
            # starts from here.
            folded = store.links()
            current = engine.result.links if engine.result else {}
            retracted = [v1 for v1 in folded if v1 not in current]
            if retracted:
                store.append_retractions(retracted)
            changed = {
                v1: v2
                for v1, v2 in current.items()
                if folded.get(v1) != v2
            }
            if changed or retracted:
                store.append_links(changed, round=service.batches_done)
            service._save_checkpoint()
        return service

    @staticmethod
    def _replay_log_tail(
        engine: IncrementalReconciler, store: LinkStore, batches_done: int
    ) -> int:
        """Apply every logged delta past *batches_done*; return count."""
        expected = batches_done + 1
        replayed = 0
        for event in store.events():
            if event.get("type") != "delta":
                continue
            batch = event.get("batch")
            if not isinstance(batch, int) or batch <= batches_done:
                continue
            if batch != expected:
                raise ReproError(
                    f"serving log {store.path}: expected delta batch "
                    f"{expected}, found {batch} — the log does not "
                    "continue this checkpoint"
                )
            payload = event.get("payload")
            if not isinstance(payload, dict):
                raise ReproError(
                    f"serving log {store.path}: delta batch {batch} "
                    "carries no payload and cannot be replayed"
                )
            engine.apply(delta_from_payload(payload))
            expected += 1
            replayed += 1
        return replayed

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Write requests admitted but not yet applied."""
        return self._queue.qsize()

    def retry_after(self) -> float:
        """Seconds a rejected writer should wait before retrying.

        The queue drains at roughly one batched apply per wakeup;
        estimate from the mean observed apply latency times the
        current depth, floored at one second.
        """
        if self._apply_ms:
            mean_s = sum(self._apply_ms) / len(self._apply_ms) / 1e3
        else:
            mean_s = 0.05
        return max(1.0, math.ceil(mean_s * (self.queue_depth + 1)))

    async def submit(self, delta: GraphDelta) -> dict:
        """Queue one delta and wait for its (possibly batched) apply.

        Returns the apply summary dict the HTTP layer serializes.

        Raises
        ------
        ServiceClosing
            The service is shutting down (HTTP 503).
        AdmissionError
            The write queue is at ``max_pending`` (HTTP 429).
        DeltaError
            The delta cannot apply to the current graphs (HTTP 409);
            the engine state is untouched.
        """
        if self._closing:
            self.rejected_closing += 1
            raise ServiceClosing("service is shutting down")
        if self._queue.qsize() >= self.max_pending:
            self.rejected_full += 1
            raise AdmissionError(
                f"write queue full ({self.max_pending} pending)",
                retry_after=self.retry_after(),
            )
        future: "asyncio.Future[dict]" = (
            asyncio.get_running_loop().create_future()
        )
        self._queue.put_nowait(_WriteItem(delta, future))
        return await future

    async def _writer_loop(self) -> None:
        stop = False
        while not stop:
            first = await self._queue.get()
            if first is None:
                break
            if self.writer_gate is not None:
                await self.writer_gate.wait()
            run = [first]
            while True:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:
                    stop = True
                    break
                run.append(nxt)
            for batch in self._coalesce(run):
                self._apply_batch(batch)
            # Yield so readers interleave between batched applies.
            await asyncio.sleep(0)

    @staticmethod
    def _coalesce(run: "list[_WriteItem]") -> "list[list[_WriteItem]]":
        """Group a drained run into mergeable batches, order-preserving."""
        batches: list[list[_WriteItem]] = []
        keys1: set[frozenset[Node]] = set()
        keys2: set[frozenset[Node]] = set()
        seed_sources: set[Node] = set()
        for item in run:
            if batches and _can_merge(
                keys1, keys2, seed_sources, item.delta
            ):
                batches[-1].append(item)
            else:
                batches.append([item])
                keys1, keys2, seed_sources = set(), set(), set()
            keys1 |= _edge_keys(item.delta, 1)
            keys2 |= _edge_keys(item.delta, 2)
            seed_sources.update(
                v1 for v1, _v2 in item.delta.added_seeds
            )
        return batches

    @staticmethod
    def _merge_deltas(deltas: "list[GraphDelta]") -> GraphDelta:
        if len(deltas) == 1:
            return deltas[0]
        merged: dict[str, list] = {
            name: []
            for name in (
                "added_edges1",
                "added_edges2",
                "removed_edges1",
                "removed_edges2",
                "added_nodes1",
                "added_nodes2",
                "added_seeds",
            )
        }
        for delta in deltas:
            for name, bucket in merged.items():
                bucket.extend(getattr(delta, name))
        return GraphDelta.build(**merged)

    def _apply_batch(self, items: "list[_WriteItem]") -> None:
        """Validate, log, and apply one coalesced batch.

        A merged batch that fails validation is retried item by item,
        so one bad delta rejects alone instead of poisoning the
        requests it was coalesced with.
        """
        delta = self._merge_deltas([item.delta for item in items])
        try:
            self._validate(delta)
        except DeltaError as exc:
            if len(items) == 1:
                if not items[0].future.done():
                    items[0].future.set_exception(exc)
                return
            for item in items:
                self._apply_batch([item])
            return
        try:
            summary = self._apply_validated(delta, coalesced=len(items))
        except Exception as exc:
            # Pre-validation should make this unreachable; if the
            # engine still raises, its graphs may be half-mutated, so
            # stop admitting writes rather than serve a corrupt state.
            self._closing = True
            for item in items:
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        for item in items:
            if not item.future.done():
                item.future.set_result(summary)

    def _validate(self, delta: GraphDelta) -> None:
        assert self.engine.g1 is not None and self.engine.g2 is not None
        validate_delta(
            self.engine.g1, self.engine.g2, delta, seeds=self.engine.seeds
        )

    def _apply_validated(self, delta: GraphDelta, coalesced: int) -> dict:
        engine = self.engine
        assert engine.result is not None
        links_before = engine.result.links
        batch = self.batches_done + 1
        if self.store is not None:
            # Log the full payload *before* applying: a crash between
            # log and apply is replayed on resume, which re-derives the
            # exact post-apply state.
            self.store.append(
                {
                    "type": "delta",
                    "batch": batch,
                    "ts": round(time.time(), 6),
                    "edge_changes": delta.num_edge_changes,
                    "new_seeds": len(delta.added_seeds),
                    "payload": delta_to_payload(delta),
                }
            )
        outcome = engine.apply(delta)
        self.batches_done = batch
        self._apply_ms.append(outcome.elapsed * 1e3)
        self._batch_sizes.append(coalesced)
        if self.store is not None:
            self._log_outcome(links_before, outcome, batch)
        if (
            self.checkpoint_path is not None
            and batch - self._batches_at_checkpoint >= self.checkpoint_every
        ):
            self._save_checkpoint()
        self._invalidate_caches()
        return {
            "batch": batch,
            "mode": outcome.mode,
            "coalesced": coalesced,
            "elapsed_ms": round(outcome.elapsed * 1e3, 3),
            "links": outcome.result.num_links,
            "links_added": outcome.links_added,
            "links_removed": outcome.links_removed,
            "dirty_links": outcome.dirty_links,
            "version": self.version,
        }

    def _log_outcome(
        self,
        links_before: dict[Node, Node],
        outcome: DeltaOutcome,
        batch: int,
    ) -> None:
        assert self.store is not None
        current = outcome.result.links
        retracted = [v1 for v1 in links_before if v1 not in current]
        if retracted:
            self.store.append_retractions(retracted)
        self.store.append_links(
            {
                v1: v2
                for v1, v2 in current.items()
                if links_before.get(v1) != v2
            },
            round=batch,
        )

    def checkpoint_now(self) -> None:
        """Force a checkpoint immediately (``POST /checkpoint``).

        Safe to call between applies: the writer task never awaits
        mid-apply, so the engine is always consistent when other
        coroutines run.
        """
        if self.checkpoint_path is None:
            raise ReproError("service has no checkpoint path")
        self._save_checkpoint()

    def _save_checkpoint(self) -> None:
        assert self.checkpoint_path is not None
        self.engine.save_checkpoint(
            self.checkpoint_path,
            extra_meta={"serving": {"batches_done": self.batches_done}},
        )
        self._batches_at_checkpoint = self.batches_done

    # ------------------------------------------------------------------
    # Reads (cached per state version)
    # ------------------------------------------------------------------
    def _invalidate_caches(self) -> None:
        self.version = self.batches_done
        self._links_body = None
        self._link_cache.clear()
        self._score_cache.clear()

    @property
    def links(self) -> dict[Node, Node]:
        """The engine's current link mapping."""
        return self.engine.links

    def links_snapshot_body(self) -> bytes:
        """Cached JSON body of the full link set (pair list, canonical
        order — JSON objects would coerce int keys to strings)."""
        if self._links_body is None:
            links = self.engine.links
            pairs = sorted(
                links.items(), key=lambda kv: node_sort_key(kv[0])
            )
            self._links_body = json_body(
                {
                    "version": self.version,
                    "count": len(pairs),
                    "links": [[v1, v2] for v1, v2 in pairs],
                }
            )
        return self._links_body

    def link_body(self, token: str) -> tuple[int, bytes]:
        """``(status, body)`` for one node's link query.

        *token* uses the TSV node convention: bare ints are ints,
        JSON-quoted tokens are strings (so the string id ``"1"`` is
        addressable as ``%221%22``).
        """
        cached = self._link_cache.get(token)
        if cached is not None and cached[0] == self.version:
            return 200, cached[1]
        try:
            node = parse_node_token(token)
        except ReproError as exc:
            return 400, json_body({"error": str(exc)})
        links = self.engine.links
        if node not in links:
            return 404, json_body(
                {
                    "node": node,
                    "link": None,
                    "version": self.version,
                }
            )
        body = json_body(
            {
                "node": node,
                "link": links[node],
                "version": self.version,
            }
        )
        if len(self._link_cache) >= self._cache_cap:
            self._link_cache.clear()
        self._link_cache[token] = (self.version, body)
        return 200, body

    def scores_body(self, token: str) -> tuple[int, bytes]:
        """``(status, body)`` of a g1 node's final-round witness scores.

        Served straight from the engine's cached packed-key score
        table — the same arrays the warm replay patches — so a read
        costs one vectorized unpack, cached until the next apply.
        """
        cached = self._score_cache.get(token)
        if cached is not None and cached[0] == self.version:
            return 200, cached[1]
        try:
            node = parse_node_token(token)
        except ReproError as exc:
            return 400, json_body({"error": str(exc)})
        engine = self.engine
        assert engine.g1 is not None
        if not engine.g1.has_node(node):
            return 404, json_body(
                {"node": node, "error": "unknown g1 node"}
            )
        rows: list[tuple[Node, int]] = []
        if engine.mode == "warm" and engine.rounds:
            index = engine.index
            assert index is not None
            table = engine.rounds[-1]
            dense = index.dense1(node)
            n2 = np.int64(index.n2)
            mask = (table.packed // n2) == dense
            rights = (table.packed[mask] % n2).tolist()
            scores = table.score[mask].tolist()
            rows = [
                (index.node2(int(d)), int(s))
                for d, s in zip(rights, scores)
            ]
            rows.sort(key=lambda r: (-r[1], node_sort_key(r[0])))
        body = json_body(
            {
                "node": node,
                "version": self.version,
                "scores": [[v2, score] for v2, score in rows],
            }
        )
        if len(self._score_cache) >= self._cache_cap:
            self._score_cache.clear()
        self._score_cache[token] = (self.version, body)
        return 200, body

    def health_body(self) -> bytes:
        """Liveness/readiness document."""
        return json_body(
            {
                "status": "closing" if self._closing else "ok",
                "role": "primary",
                "version": self.version,
                "links": len(self.engine.links),
                "applied_batches": self.batches_done,
                "queue_depth": self.queue_depth,
            }
        )

    def health(self) -> tuple[int, bytes]:
        """``(status, body)`` for ``GET /health``.

        The base service is always ready once started; subclasses
        (the replica) degrade the status code when they are not — a
        fronting load balancer keys off the code, not the body.
        """
        return 200, self.health_body()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def record_request(self, status: int, elapsed_ms: float) -> None:
        """Fold one served request into the rolling stats."""
        self.requests_total += 1
        self.requests_by_status[status] = (
            self.requests_by_status.get(status, 0) + 1
        )
        self._request_ms.append(elapsed_ms)

    def stats_payload(self) -> dict:
        """The ``GET /stats`` document (never cached)."""
        apply_ms = list(self._apply_ms)
        request_ms = list(self._request_ms)
        sizes = list(self._batch_sizes)
        payload: dict = {
            "version": self.version,
            "links": len(self.engine.links),
            "applied_batches": self.batches_done,
            "queue_depth": self.queue_depth,
            "max_pending": self.max_pending,
            "rejected_queue_full": self.rejected_full,
            "rejected_closing": self.rejected_closing,
            "requests": {
                "total": self.requests_total,
                "by_status": {
                    str(status): count
                    for status, count in sorted(
                        self.requests_by_status.items()
                    )
                },
            },
        }
        if request_ms:
            payload["requests"]["p50_ms"] = round(
                _percentile(request_ms, 0.50), 3
            )
            payload["requests"]["p99_ms"] = round(
                _percentile(request_ms, 0.99), 3
            )
        if apply_ms:
            payload["applies"] = {
                "count": len(apply_ms),
                "mean_ms": round(sum(apply_ms) / len(apply_ms), 3),
                "p50_ms": round(_percentile(apply_ms, 0.50), 3),
                "p99_ms": round(_percentile(apply_ms, 0.99), 3),
                "coalesced_deltas": sum(sizes),
                "max_batch": max(sizes),
            }
        return payload

    def stats_body(self) -> bytes:
        return json_body(self.stats_payload())

    def __repr__(self) -> str:
        durable = self.checkpoint_path is not None
        return (
            f"ReconciliationService(batches={self.batches_done}, "
            f"links={len(self.engine.links)}, durable={durable}, "
            f"closing={self._closing})"
        )


def format_node_path(node: Node) -> str:
    """Render a node id as the path token the read routes expect.

    The inverse of the token parsing in :meth:`link_body` /
    :meth:`scores_body`; URL-escaping is the caller's job (clients use
    :func:`urllib.parse.quote`).
    """
    return format_node_token(node)


def parse_json_delta(body: bytes) -> GraphDelta:
    """Decode a ``POST /delta`` body into a validated delta.

    Raises
    ------
    DeltaError
        On non-JSON bodies or malformed payloads (HTTP 400).
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise DeltaError(f"request body is not valid JSON: {exc}") from None
    return delta_from_payload(payload)
