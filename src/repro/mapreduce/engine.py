"""A minimal but faithful local MapReduce engine.

Jobs define ``map(key, value) -> iter[(k2, v2)]`` and
``reduce(key, values) -> iter[(k3, v3)]`` plus an optional associative
``combine``.  The engine partitions the input, runs mappers per partition,
applies the combiner within each partition (as Hadoop/Flume do, to shrink
shuffle volume), shuffles by key, and runs reducers.  Rounds executed and
shuffle sizes are recorded so experiments can report the paper's
"O(k log D) MapReductions" accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.errors import MapReduceError

KV = tuple[Any, Any]
MapFn = Callable[[Any, Any], Iterator[KV]]
ReduceFn = Callable[[Any, list[Any]], Iterator[KV]]
CombineFn = Callable[[Any, list[Any]], list[Any]]


@dataclass
class MapReduceJob:
    """One MapReduce round.

    Attributes:
        name: label used in run statistics.
        map_fn: ``(key, value) -> iterable of (key2, value2)``.
        reduce_fn: ``(key2, [values...]) -> iterable of (key3, value3)``.
        combine_fn: optional per-partition pre-reduce
            (``(key2, [values...]) -> [values...]``); must be associative
            and commutative with respect to ``reduce_fn``.
    """

    name: str
    map_fn: MapFn
    reduce_fn: ReduceFn
    combine_fn: CombineFn | None = None


@dataclass
class RoundStats:
    """Observability for one executed round."""

    name: str
    input_records: int
    mapped_records: int
    shuffled_records: int
    output_records: int


@dataclass
class LocalMapReduce:
    """In-process MapReduce executor.

    Attributes:
        partitions: number of map partitions (affects only combiner
            granularity, not results — a useful invariant that tests
            check).
        history: :class:`RoundStats` for every round executed, in order.
    """

    partitions: int = 4
    history: list[RoundStats] = field(default_factory=list)

    def run(self, job: MapReduceJob, records: Iterable[KV]) -> list[KV]:
        """Execute one round over ``records`` and return reducer output."""
        if self.partitions < 1:
            raise MapReduceError(
                f"partitions must be >= 1, got {self.partitions}"
            )
        records = list(records)
        # --- map phase, partitioned -----------------------------------
        buckets: list[list[KV]] = [[] for _ in range(self.partitions)]
        for i, (key, value) in enumerate(records):
            buckets[i % self.partitions].append((key, value))
        mapped_total = 0
        partition_outputs: list[dict[Any, list[Any]]] = []
        for bucket in buckets:
            grouped: dict[Any, list[Any]] = {}
            for key, value in bucket:
                for k2, v2 in job.map_fn(key, value):
                    mapped_total += 1
                    grouped.setdefault(k2, []).append(v2)
            if job.combine_fn is not None:
                grouped = {
                    k: job.combine_fn(k, vs) for k, vs in grouped.items()
                }
            partition_outputs.append(grouped)
        # --- shuffle ---------------------------------------------------
        shuffled: dict[Any, list[Any]] = {}
        shuffled_total = 0
        for grouped in partition_outputs:
            for key, values in grouped.items():
                shuffled.setdefault(key, []).extend(values)
                shuffled_total += len(values)
        # --- reduce ----------------------------------------------------
        output: list[KV] = []
        for key, values in shuffled.items():
            output.extend(job.reduce_fn(key, values))
        self.history.append(
            RoundStats(
                name=job.name,
                input_records=len(records),
                mapped_records=mapped_total,
                shuffled_records=shuffled_total,
                output_records=len(output),
            )
        )
        return output

    @property
    def rounds_executed(self) -> int:
        """Number of MapReduce rounds run so far."""
        return len(self.history)

    def reset(self) -> None:
        """Clear execution history."""
        self.history.clear()


def sum_combiner(_key: Any, values: list[Any]) -> list[Any]:
    """Standard combiner for counting jobs: collapse values to their sum."""
    return [int(sum(values))]
