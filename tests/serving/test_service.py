"""Unit tests for ReconciliationService: coalescing, admission,
validation, read caches, durability, and resume."""

import asyncio
import json

import pytest

from repro.errors import ReproError
from repro.incremental.delta import DeltaError, GraphDelta
from repro.serving.service import (
    AdmissionError,
    ReconciliationService,
    ServiceClosing,
    _percentile,
    parse_json_delta,
)

from serving_helpers import make_engine


class TestCoalescing:
    def test_disjoint_deltas_merge(self):
        a = GraphDelta.build(added_edges1=[(1, 2)], added_seeds=[(1, 1)])
        b = GraphDelta.build(added_edges1=[(3, 4)], added_edges2=[(5, 6)])
        merged = ReconciliationService._merge_deltas([a, b])
        assert set(merged.added_edges1) == {(1, 2), (3, 4)}
        assert merged.added_edges2 == ((5, 6),)
        assert merged.added_seeds == ((1, 1),)

    def test_overlapping_edges_split_batches(self):
        class Item:
            def __init__(self, delta):
                self.delta = delta

        a = Item(GraphDelta.build(added_edges1=[(1, 2)]))
        b = Item(GraphDelta.build(added_edges1=[(3, 4)]))
        # Removes an edge the first batch adds — order matters, so it
        # must start a new batch.
        c = Item(GraphDelta.build(removed_edges1=[(2, 1)]))
        batches = ReconciliationService._coalesce([a, b, c])
        assert [len(batch) for batch in batches] == [2, 1]

    def test_conflicting_seed_sources_split_batches(self):
        class Item:
            def __init__(self, delta):
                self.delta = delta

        a = Item(GraphDelta.build(added_seeds=[(1, 10)]))
        b = Item(GraphDelta.build(added_seeds=[(1, 11)]))
        batches = ReconciliationService._coalesce([a, b])
        assert [len(batch) for batch in batches] == [1, 1]


class TestSubmitPath:
    def test_coalesced_applies_match_sequential(self, workload):
        pair, seeds, deltas = workload

        async def go():
            engine = make_engine(pair, seeds)
            service = ReconciliationService(engine)
            await service.start()
            gate = asyncio.Event()
            service.writer_gate = gate
            tasks = [
                asyncio.ensure_future(service.submit(delta))
                for delta in deltas
            ]
            await asyncio.sleep(0.05)
            gate.set()
            summaries = await asyncio.gather(*tasks)
            await service.close()
            return engine.links, summaries

        links, summaries = asyncio.run(go())

        async def sequential():
            engine = make_engine(pair, seeds)
            service = ReconciliationService(engine)
            await service.start()
            for delta in deltas:
                await service.submit(delta)
            await service.close()
            return engine.links

        assert links == asyncio.run(sequential())
        # The gated run saw all four deltas queued at once; at least
        # one apply must have coalesced more than one of them.
        assert max(s["coalesced"] for s in summaries) > 1

    def test_queue_full_raises_admission_error(self, workload):
        pair, seeds, deltas = workload

        async def go():
            engine = make_engine(pair, seeds)
            service = ReconciliationService(engine, max_pending=1)
            await service.start()
            gate = asyncio.Event()
            service.writer_gate = gate
            first = asyncio.ensure_future(service.submit(deltas[0]))
            await asyncio.sleep(0.05)  # writer holds deltas[0] at gate
            second = asyncio.ensure_future(service.submit(deltas[1]))
            await asyncio.sleep(0.05)
            with pytest.raises(AdmissionError) as excinfo:
                await service.submit(deltas[2])
            assert excinfo.value.retry_after >= 1
            assert service.rejected_full == 1
            gate.set()
            await first
            await second
            await service.close()

        asyncio.run(go())

    def test_closing_rejects_submissions(self, workload):
        pair, seeds, deltas = workload

        async def go():
            engine = make_engine(pair, seeds)
            service = ReconciliationService(engine)
            await service.start()
            await service.close()
            with pytest.raises(ServiceClosing):
                await service.submit(deltas[0])
            assert service.rejected_closing == 1

        asyncio.run(go())

    def test_invalid_delta_rejected_without_mutation(self, workload):
        pair, seeds, deltas = workload

        async def go():
            engine = make_engine(pair, seeds)
            service = ReconciliationService(engine)
            await service.start()
            links_before = dict(engine.links)
            edges_before = engine.g1.num_edges
            existing = next(iter(engine.g1.edges()))
            bad = GraphDelta.build(
                added_edges1=[(99990, 99991), existing]
            )
            with pytest.raises(DeltaError):
                await service.submit(bad)
            # Rejected before any mutation: the valid half of the
            # delta must not have leaked into the graphs.
            assert engine.g1.num_edges == edges_before
            assert engine.links == links_before
            # And the engine still accepts good deltas afterwards.
            summary = await service.submit(deltas[0])
            assert summary["batch"] == 1
            await service.close()

        asyncio.run(go())

    def test_seed_remap_and_duplicate_target_rejected(self, workload):
        pair, seeds, _deltas = workload

        async def go():
            engine = make_engine(pair, seeds)
            service = ReconciliationService(engine)
            await service.start()
            v1, v2 = next(iter(engine.seeds.items()))
            other_target = next(
                t for t in engine.seeds.values() if t != v2
            )
            with pytest.raises(DeltaError, match="remapped"):
                await service.submit(
                    GraphDelta.build(added_seeds=[(v1, other_target)])
                )
            unseeded = next(
                u for u in engine.g1.nodes() if u not in engine.seeds
            )
            with pytest.raises(DeltaError, match="one-to-one"):
                await service.submit(
                    GraphDelta.build(added_seeds=[(unseeded, v2)])
                )
            # Re-confirming an existing seed is fine.
            summary = await service.submit(
                GraphDelta.build(added_seeds=[(v1, v2)])
            )
            assert summary["batch"] == 1
            await service.close()

        asyncio.run(go())

    def test_empty_delta_is_a_noop_batch(self, workload):
        pair, seeds, _deltas = workload

        async def go():
            engine = make_engine(pair, seeds)
            service = ReconciliationService(engine)
            await service.start()
            summary = await service.submit(GraphDelta.build())
            await service.close()
            return summary

        assert asyncio.run(go())["mode"] == "noop"


class TestReadCache:
    def test_snapshot_cached_until_apply(self, workload):
        pair, seeds, deltas = workload

        async def go():
            engine = make_engine(pair, seeds)
            service = ReconciliationService(engine)
            await service.start()
            body1 = service.links_snapshot_body()
            assert service.links_snapshot_body() is body1
            token = "0"
            status1, link1 = service.link_body(token)
            assert service.link_body(token) == (status1, link1)
            await service.submit(deltas[0])
            body2 = service.links_snapshot_body()
            assert body2 is not body1
            assert json.loads(body2)["version"] == 1
            await service.close()

        asyncio.run(go())

    def test_bad_token_is_400(self, workload):
        pair, seeds, _deltas = workload

        async def go():
            engine = make_engine(pair, seeds)
            service = ReconciliationService(engine)
            status, _body = service.link_body('"unterminated')
            assert status == 400
            status, _body = service.scores_body('"unterminated')
            assert status == 400

        asyncio.run(go())


class TestDurabilityAndResume:
    def test_resume_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(ReproError, match="--resume"):
            ReconciliationService.resume(tmp_path / "absent.npz")

    def test_resume_non_serving_checkpoint_raises(
        self, tmp_path, workload
    ):
        pair, seeds, _deltas = workload
        engine = make_engine(pair, seeds)
        path = tmp_path / "plain.npz"
        engine.save_checkpoint(path)
        with pytest.raises(ReproError, match="serving"):
            ReconciliationService.resume(path)

    def test_resume_rejects_log_gap(self, tmp_path, workload):
        pair, seeds, deltas = workload
        path = tmp_path / "serve.npz"

        async def go():
            engine = make_engine(pair, seeds)
            service = ReconciliationService(engine, checkpoint_path=path)
            await service.start()
            await service.submit(deltas[0])
            await service.close()

        asyncio.run(go())
        log = tmp_path / "serve.npz.jsonl"
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(
                json.dumps({"type": "delta", "batch": 7, "payload": {}})
                + "\n"
            )
        with pytest.raises(ReproError, match="batch"):
            ReconciliationService.resume(path)

    @pytest.mark.parametrize("bogus", ["2", None, True, 2.0])
    def test_resume_refuses_non_integer_batch(
        self, tmp_path, workload, bogus
    ):
        """Resume refuses the log the replica's stream refuses."""
        pair, seeds, deltas = workload
        path = tmp_path / "serve.npz"

        async def go():
            engine = make_engine(pair, seeds)
            service = ReconciliationService(engine, checkpoint_path=path)
            await service.start()
            await service.submit(deltas[0])
            await service.close()

        asyncio.run(go())
        with open(tmp_path / "serve.npz.jsonl", "a", encoding="utf-8") as fh:
            fh.write(
                json.dumps({"type": "delta", "batch": bogus, "payload": {}})
                + "\n"
            )
        with pytest.raises(ReproError, match="non-integer batch"):
            ReconciliationService.resume(path)

    def test_checkpoint_every_bounds_log_tail(self, tmp_path, workload):
        pair, seeds, deltas = workload
        path = tmp_path / "serve.npz"

        async def go():
            engine = make_engine(pair, seeds)
            service = ReconciliationService(
                engine, checkpoint_path=path, checkpoint_every=2
            )
            await service.start()
            for delta in deltas[:3]:
                await service.submit(delta)
            # Periodic checkpoint after batch 2; batch 3 lives only in
            # the log until close() flushes a final checkpoint.
            assert service._batches_at_checkpoint >= 2
            await service.close()
            assert service._batches_at_checkpoint == 3

        asyncio.run(go())


class TestHelpers:
    def test_percentile_nearest_rank(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert _percentile(values, 0.50) == 3.0
        assert _percentile(values, 0.99) == 5.0
        assert _percentile([7.0], 0.50) == 7.0

    def test_parse_json_delta_rejects_non_json(self):
        with pytest.raises(DeltaError, match="JSON"):
            parse_json_delta(b"not json")
        with pytest.raises(DeltaError, match="unknown"):
            parse_json_delta(b'{"bogus_field": []}')
