"""Shard planning for the parallel execution layer.

The paper's MapReduce formulation parallelizes each (iteration, bucket)
round over candidate-pair shards; locally the same decomposition applies
to the CSR witness join: every identification link's contribution to the
score table is independent, so a round's link set can be split into
shards, counted on separate workers, and summed back together.

Naive round-robin sharding serializes on hubs — one link whose endpoints
are high-degree carries ``deg1(u1) * deg2(u2)`` witness-pair work, which
at the top degree buckets can exceed the rest of the round combined.
:func:`plan_balanced_shards` therefore runs the classic greedy LPT
(longest-processing-time) heuristic over per-link work estimates: links
are taken in descending weight order and each is assigned to the
currently lightest shard.  LPT is deterministic here (stable descending
sort, lowest-shard-id tie-break) and guarantees a makespan within 4/3 of
optimal — good enough that one giant bucket no longer serializes the
pool.

The plan is pure data (index arrays into the round's link arrays), so it
can be unit-tested and reused independently of any process pool.

Two planners live here:

- :func:`plan_balanced_shards` — LPT over *workers*: minimize the
  makespan of a fixed number of shards (parallel execution).
- :func:`plan_memory_blocks` — first-fit over a *budget*: split the
  round into as few contiguous blocks as possible such that no block's
  estimated transient working set exceeds ``memory_budget_mb``
  (memory-bounded streaming execution).  Blocks preserve input order,
  so streaming them through the kernel and merging canonically is
  bit-identical to the monolithic join for any budget.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.graphs.pair_index import GraphPairIndex

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of a round's workload into shards.

    Attributes:
        shards: per-shard ``int64`` index arrays into the workload, each
            sorted ascending (shard-internal order preserves the input
            order, which keeps worker output reproducible).
        loads: per-shard total weight, parallel to ``shards``.
    """

    shards: tuple[np.ndarray, ...]
    loads: tuple[int, ...]

    @property
    def num_shards(self) -> int:
        """Number of non-empty shards planned."""
        return len(self.shards)

    @property
    def total_load(self) -> int:
        """Sum of all shard loads (the round's estimated work)."""
        return int(sum(self.loads))

    def imbalance(self) -> float:
        """Max shard load over mean shard load (1.0 = perfectly even)."""
        if not self.loads or self.total_load == 0:
            return 1.0
        return max(self.loads) / (self.total_load / len(self.loads))


def plan_balanced_shards(weights: np.ndarray, num_shards: int) -> ShardPlan:
    """Greedy LPT assignment of weighted items to at most *num_shards*.

    Items are assigned in descending weight order (ties broken by item
    index, so the plan is a pure function of its inputs) to the shard
    with the smallest current load (ties broken by shard id).  Shards
    that would be empty — more shards requested than items — are not
    emitted.

    Args:
        weights: per-item nonnegative work estimates.
        num_shards: shard budget; must be >= 1.

    Returns:
        A :class:`ShardPlan` whose shards cover every item exactly once.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    weights = np.asarray(weights, dtype=np.int64)
    n = len(weights)
    if n == 0:
        return ShardPlan(shards=(), loads=())
    count = min(num_shards, n)
    if count == 1:
        return ShardPlan(
            shards=(np.arange(n, dtype=np.int64),),
            loads=(int(weights.sum()),),
        )
    # Descending weight, stable by item index (lexsort: last key primary).
    order = np.lexsort((np.arange(n, dtype=np.int64), -weights))
    heap: list[tuple[int, int]] = [(0, sid) for sid in range(count)]
    members: list[list[int]] = [[] for _ in range(count)]
    w = weights.tolist()
    for item in order.tolist():
        load, sid = heapq.heappop(heap)
        members[sid].append(item)
        heapq.heappush(heap, (load + w[item], sid))
    shards = []
    loads = []
    for sid in range(count):
        idx = np.asarray(sorted(members[sid]), dtype=np.int64)
        shards.append(idx)
        loads.append(int(weights[idx].sum()))
    return ShardPlan(shards=tuple(shards), loads=tuple(loads))


def link_weights(
    index: "GraphPairIndex", link_l: np.ndarray, link_r: np.ndarray
) -> np.ndarray:
    """Per-link witness-join work estimates for shard planning.

    A link ``(u1, u2)`` expands at most ``deg1(u1) * deg2(u2)`` witness
    pairs (the paper's per-round cost bound), which upper-bounds the
    eligible cross product regardless of the round's degree bucket, so
    it is the LPT weight.  Floored at 1 so that zero-degree links still
    occupy a slot and every link lands in exactly one shard.
    """
    if len(link_l) == 0:
        return _EMPTY
    w1 = np.maximum(index.deg1[link_l], 1)
    w2 = np.maximum(index.deg2[link_r], 1)
    return w1 * w2


def plan_link_shards(
    index: "GraphPairIndex",
    link_l: np.ndarray,
    link_r: np.ndarray,
    num_shards: int,
) -> ShardPlan:
    """Convenience: LPT-balance a round's link arrays into shards."""
    return plan_balanced_shards(
        link_weights(index, link_l, link_r), num_shards
    )


# ----------------------------------------------------------------------
# Memory-budgeted block planning
# ----------------------------------------------------------------------
#: Estimated transient bytes per witness pair of a join round, sized for
#: a materialized cross product: the two pair-endpoint arrays and the
#: packed key (3 x int64) plus a sort's scratch of the key array.  The
#: sparse and compiled joins never materialize pairs, so this is a
#: deliberately conservative figure: a block that hits the budget
#: estimate stays under the real high-water mark.
WITNESS_PAIR_BYTES = 48


@dataclass(frozen=True)
class BlockPlan:
    """A deterministic, order-preserving partition into memory blocks.

    Unlike :class:`ShardPlan` (whose shards run concurrently), blocks
    are executed *sequentially*: splitting bounds the peak transient
    allocation of a round, not its wall-clock.  Blocks are contiguous
    runs of the input, so ``np.concatenate(blocks)`` is exactly
    ``arange(n)``.

    Attributes:
        blocks: per-block ``int64`` index arrays into the workload, in
            input order.
        loads: per-block total weight (estimated witness pairs),
            parallel to ``blocks``.
        budget: the per-block weight budget the plan was built for
            (``None`` = unbudgeted, single block).
    """

    blocks: tuple[np.ndarray, ...]
    loads: tuple[int, ...]
    budget: int | None

    @property
    def num_blocks(self) -> int:
        """Number of planned blocks."""
        return len(self.blocks)

    @property
    def max_load(self) -> int:
        """Largest per-block weight (0 for an empty plan)."""
        return max(self.loads) if self.loads else 0


def plan_memory_blocks(weights: np.ndarray, budget: int | None) -> BlockPlan:
    """Greedy first-fit packing of contiguous items under *budget*.

    Items are taken in input order; a block closes as soon as adding the
    next item would push its weight past *budget*.  A single item whose
    weight alone exceeds the budget gets a singleton block (it cannot be
    subdivided at this granularity — the kernel's unit of work is one
    link), so the plan always covers every item exactly once and the
    budget is respected by every block that contains more than one item.

    The plan is a pure function of ``(weights, budget)``: replanning the
    same round always yields the same blocks.

    Args:
        weights: per-item nonnegative work estimates.
        budget: per-block weight cap; ``None`` plans one block.

    Returns:
        A :class:`BlockPlan` whose blocks concatenate to ``arange(n)``.
    """
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1 or None, got {budget}")
    weights = np.asarray(weights, dtype=np.int64)
    n = len(weights)
    if n == 0:
        return BlockPlan(blocks=(), loads=(), budget=budget)
    total = int(weights.sum())
    if budget is None or total <= budget:
        return BlockPlan(
            blocks=(np.arange(n, dtype=np.int64),),
            loads=(total,),
            budget=budget,
        )
    cum = np.cumsum(weights)
    blocks: list[np.ndarray] = []
    loads: list[int] = []
    pos = 0
    base = 0
    while pos < n:
        # Furthest end with cumulative block weight <= budget; an
        # oversized single item advances by one regardless.
        end = int(np.searchsorted(cum, base + budget, side="right"))
        if end <= pos:
            end = pos + 1
        blocks.append(np.arange(pos, end, dtype=np.int64))
        loads.append(int(cum[end - 1]) - base)
        base = int(cum[end - 1])
        pos = end
    return BlockPlan(blocks=tuple(blocks), loads=tuple(loads), budget=budget)


def witness_block_budget(memory_budget_mb: int | None) -> int | None:
    """Per-block witness-pair budget implied by a MiB memory budget."""
    if memory_budget_mb is None:
        return None
    return max((memory_budget_mb * 1024 * 1024) // WITNESS_PAIR_BYTES, 1)


def plan_witness_blocks(
    index: "GraphPairIndex",
    link_l: np.ndarray,
    link_r: np.ndarray,
    memory_budget_mb: int | None,
) -> BlockPlan:
    """Plan a round's link arrays into memory-budgeted column blocks.

    Per-link weights are the degree-product witness-pair bounds of
    :func:`link_weights` (an upper bound on what any eligibility mask
    lets through, so the plan is valid for every bucket of the sweep),
    converted to bytes at :data:`WITNESS_PAIR_BYTES` per pair.
    """
    return plan_memory_blocks(
        link_weights(index, link_l, link_r),
        witness_block_budget(memory_budget_mb),
    )
