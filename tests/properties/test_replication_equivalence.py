"""replica↔primary equivalence: log-shipping never changes links.

The replication contract extends the incremental engine's: shipping
any delta stream through the primary's JSONL delta log to a replica's
own engine yields links **bit-identical** to the primary — and hence
to one cold run on the final graphs — for every registry matcher
under ``backend="csr"``.  The sweep pins the full registry through a
hand-rolled log (black-box matchers cannot checkpoint, so the replica
attaches to the same base state directly), and hypothesis drives the
*real* pipeline — durable service, fsync'd log, checkpoint bootstrap,
``ReplicaService.follow`` — through randomized G(n, p) streams with
removals, late seeds, and new nodes."""

import asyncio
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.core.config import MatcherConfig
from repro.incremental import IncrementalReconciler
from repro.incremental.delta import delta_to_payload
from repro.mapreduce.matcher_mr import MapReduceUserMatching
from repro.registry import get_matcher, matcher_names
from repro.serving import ReconciliationService, ReplicaService

from test_incremental_equivalence import (
    MATCHER_CONFIGS,
    gnp_stream,
    streamed_workload,
)


def write_delta_log(path, deltas):
    """The primary's wire format, one delta event per applied batch."""
    with open(path, "w", encoding="utf-8") as fh:
        for batch, delta in enumerate(deltas, start=1):
            fh.write(
                json.dumps(
                    {
                        "type": "delta",
                        "batch": batch,
                        "ts": 1700000000.0 + batch,
                        "payload": delta_to_payload(delta),
                    }
                )
                + "\n"
            )


def drain_sync(replica, batches):
    """Apply every pending logged batch without an event loop."""
    while replica.step():
        pass
    assert replica.replication_error is None
    assert replica.batches_done == batches
    assert replica.lag_batches == 0


class TestRegistrySweep:
    def test_sweep_covers_the_whole_registry(self):
        assert sorted(MATCHER_CONFIGS) == matcher_names()

    @pytest.mark.parametrize("name", sorted(MATCHER_CONFIGS))
    def test_log_shipping_is_bit_identical(self, name, tmp_path):
        pair, seeds, base1, base2, deltas = streamed_workload(seed=47)
        config = MATCHER_CONFIGS[name]

        def engine():
            return IncrementalReconciler(
                matcher=get_matcher(name, backend="csr", **config)
            )

        primary = engine()
        primary.start(base1.copy(), base2.copy(), seeds)
        for delta in deltas:
            primary.apply(delta)
        log = tmp_path / "primary.jsonl"
        write_delta_log(log, deltas)
        # Black-box matchers cannot checkpoint, so the replica attaches
        # the way a checkpoint would position it: same base state,
        # zero applied batches, tail the whole log.
        follower = engine()
        follower.start(base1.copy(), base2.copy(), seeds)
        replica = ReplicaService(follower, log_path=log)
        drain_sync(replica, batches=len(deltas))
        assert replica.engine.result.links == primary.result.links
        cold = get_matcher(name, backend="csr", **config).run(
            pair.g1, pair.g2, seeds
        )
        assert replica.engine.result.links == cold.links


class TestRandomStreams:
    @given(gnp_stream())
    @settings(max_examples=10, deadline=None)
    def test_real_log_shipping_matches_cold_run(self, wl):
        pair, seeds, base1, base2, start_seeds, deltas = wl
        with tempfile.TemporaryDirectory() as tmp:
            self._roundtrip(Path(tmp), pair, seeds, base1, base2,
                            start_seeds, deltas)

    @staticmethod
    def _roundtrip(tmp_path, pair, seeds, base1, base2, start_seeds,
                   deltas):
        ckpt = tmp_path / "p.npz"
        engine = IncrementalReconciler(
            MatcherConfig(threshold=2, iterations=2)
        )
        engine.start(base1.copy(), base2.copy(), start_seeds)
        service = ReconciliationService(
            engine,
            checkpoint_path=ckpt,
            checkpoint_every=100,
        )

        async def drive():
            await service.start()
            for delta in deltas:
                await service.submit(delta)
            service.abort()  # leave the checkpoint stale: the replica
            # must earn the final state by replaying the log.

        asyncio.run(drive())
        replica = ReplicaService.follow(str(ckpt) + ".jsonl")
        assert replica.batches_done == 0
        drain_sync(replica, batches=service.batches_done)
        assert replica.version == service.version
        assert replica.engine.links == engine.links
        cold = MapReduceUserMatching(
            MatcherConfig(threshold=2, iterations=2)
        ).run(pair.g1, pair.g2, seeds)
        assert replica.engine.links == cold.links

    @given(gnp_stream())
    @settings(max_examples=6, deadline=None)
    def test_mid_stream_checkpoint_attach_is_bit_identical(self, wl):
        pair, seeds, base1, base2, start_seeds, deltas = wl
        with tempfile.TemporaryDirectory() as tmp:
            self._attach_mid_stream(Path(tmp), pair, seeds, base1,
                                    base2, start_seeds, deltas)

    @staticmethod
    def _attach_mid_stream(tmp_path, pair, seeds, base1, base2,
                           start_seeds, deltas):
        ckpt = tmp_path / "p.npz"
        engine = IncrementalReconciler(MatcherConfig(threshold=2))
        engine.start(base1.copy(), base2.copy(), start_seeds)
        service = ReconciliationService(
            engine, checkpoint_path=ckpt, checkpoint_every=100
        )
        split = max(1, len(deltas) // 2)

        async def drive():
            await service.start()
            for index, delta in enumerate(deltas, start=1):
                await service.submit(delta)
                if index == split:
                    # A checkpoint mid-stream: the replica bootstraps
                    # here and replays only the tail.
                    service.checkpoint_now()
            service.abort()

        asyncio.run(drive())
        replica = ReplicaService.follow(str(ckpt) + ".jsonl")
        assert replica.batches_done == split
        drain_sync(replica, batches=len(deltas))
        cold = MapReduceUserMatching(MatcherConfig(threshold=2)).run(
            pair.g1, pair.g2, seeds
        )
        assert replica.engine.links == cold.links
