"""Unit tests for the local MapReduce engine."""

import pytest

from repro.errors import MapReduceError
from repro.mapreduce.engine import LocalMapReduce, MapReduceJob, sum_combiner


def word_count_job():
    def map_fn(_key, text):
        for word in text.split():
            yield (word, 1)

    def reduce_fn(word, counts):
        yield (word, sum(counts))

    return MapReduceJob("word-count", map_fn, reduce_fn, sum_combiner)


class TestEngine:
    def test_word_count(self):
        engine = LocalMapReduce()
        records = [(0, "a b a"), (1, "b c")]
        out = dict(engine.run(word_count_job(), records))
        assert out == {"a": 2, "b": 2, "c": 1}

    def test_partition_count_does_not_change_result(self):
        records = [(i, "x y z x") for i in range(20)]
        results = []
        for partitions in (1, 2, 7, 32):
            engine = LocalMapReduce(partitions=partitions)
            results.append(sorted(engine.run(word_count_job(), records)))
        assert all(r == results[0] for r in results)

    def test_combiner_shrinks_shuffle(self):
        records = [(i, "a a a a") for i in range(10)]
        with_combiner = LocalMapReduce()
        with_combiner.run(word_count_job(), records)
        job_no_comb = word_count_job()
        job_no_comb.combine_fn = None
        without = LocalMapReduce()
        without.run(job_no_comb, records)
        assert (
            with_combiner.history[0].shuffled_records
            < without.history[0].shuffled_records
        )

    def test_history_records_rounds(self):
        engine = LocalMapReduce()
        engine.run(word_count_job(), [(0, "a")])
        engine.run(word_count_job(), [(0, "b")])
        assert engine.rounds_executed == 2
        assert engine.history[0].name == "word-count"

    def test_reset(self):
        engine = LocalMapReduce()
        engine.run(word_count_job(), [(0, "a")])
        engine.reset()
        assert engine.rounds_executed == 0

    def test_stats_consistency(self):
        engine = LocalMapReduce()
        records = [(0, "a b"), (1, "c")]
        engine.run(word_count_job(), records)
        stats = engine.history[0]
        assert stats.input_records == 2
        assert stats.mapped_records == 3
        assert stats.output_records == 3

    def test_empty_input(self):
        engine = LocalMapReduce()
        assert engine.run(word_count_job(), []) == []

    def test_invalid_partitions(self):
        engine = LocalMapReduce(partitions=0)
        with pytest.raises(MapReduceError):
            engine.run(word_count_job(), [(0, "a")])

    def test_reducer_can_emit_multiple(self):
        def map_fn(key, value):
            yield (value % 2, value)

        def reduce_fn(parity, values):
            for v in sorted(values):
                yield (parity, v)

        engine = LocalMapReduce()
        out = engine.run(
            MapReduceJob("expand", map_fn, reduce_fn),
            [(i, i) for i in range(6)],
        )
        assert len(out) == 6

    def test_sum_combiner(self):
        assert sum_combiner("k", [1, 2, 3]) == [6]
