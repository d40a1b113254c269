"""User-Matching expressed as MapReduce rounds (paper §3.2).

Each (iteration, degree-bucket) pass is exactly four rounds:

1. **expand-left** — join the link set ``L`` against ``G1``'s adjacency:
   for each link ``(u1, u2)`` emit the unmatched in-bucket neighbors of
   ``u1`` keyed by ``u2``.
2. **expand-right + count** — join against ``G2``'s adjacency: every
   ``(v1, v2)`` co-neighborhood occurrence is one similarity witness;
   a sum combiner collapses counts map-side.
3. **left-best** — per ``v1``, keep the best-scoring ``v2`` above the
   threshold (tie policy applied).
4. **right-best-join** — per ``v2``, find the best ``v1`` among *all*
   candidates and emit the link iff it is also the left winner
   (the paper's "highest score in which either u or v appear").

The driver joins round 3's winner set into round 4's input map-side (a
broadcast join — the winner set is small), as a production implementation
would.

This is the repository's one literal transcription of the paper's
algorithm: every round is recounted from scratch over original node ids
with no interning, no carried state and no compiled kernel.  It is the
oracle the tests hold :class:`~repro.core.matcher.UserMatching` to on
both backends — links, seeds and every ``PhaseRecord`` field.
``config.backend`` is validated and ignored: there is one path.
"""

from __future__ import annotations

from typing import Hashable, Iterator

from repro.core.config import MatcherConfig, TiePolicy
from repro.core.matcher import UserMatching
from repro.core.ordering import node_sort_key
from repro.core.protocol import ProgressCallback, ProgressReporter
from repro.core.result import MatchingResult, PhaseRecord
from repro.errors import MatcherConfigError
from repro.graphs.graph import Graph
from repro.mapreduce.engine import LocalMapReduce, MapReduceJob, sum_combiner
from repro.registry import register_matcher

Node = Hashable


@register_matcher(
    "mapreduce-user-matching",
    description="User-Matching as 4 MapReduce rounds per bucket (§3.2)",
)
class MapReduceUserMatching:
    """User-Matching on top of :class:`LocalMapReduce`.

    Args:
        config: same knobs as the sequential matcher.
            ``config.candidate_pruning`` is real: round 2's reducer
            drops community-disallowed pairs, keeping the links
            identical to the sequential matcher's under pruning.
        engine: optionally share/inspect an engine (round history is the
            interesting part: 4 rounds per bucket, O(k log D) total).
    """

    def __init__(
        self,
        config: MatcherConfig | None = None,
        engine: LocalMapReduce | None = None,
    ) -> None:
        self.config = config or MatcherConfig()
        self.engine = engine or LocalMapReduce()
        # Reuse the sequential matcher for seed validation + bucket plan.
        self._reference = UserMatching(self.config)

    @classmethod
    def from_params(
        cls,
        config: MatcherConfig | None = None,
        engine: LocalMapReduce | None = None,
        **params: object,
    ) -> "MapReduceUserMatching":
        """Registry hook: build from raw :class:`MatcherConfig` kwargs."""
        if config is not None and params:
            raise MatcherConfigError(
                "pass either config= or raw MatcherConfig kwargs, not both"
            )
        return cls(config or MatcherConfig(**params), engine=engine)

    # ------------------------------------------------------------------
    def _match_round(
        self,
        g1: Graph,
        g2: Graph,
        links: dict[Node, Node],
        min_degree: int,
        prune=None,
    ) -> tuple[dict[Node, Node], int, int]:
        """One bucket pass = 4 MapReduce rounds.

        With *prune* (a ``(v1, v2) -> bool`` allowance test) round 2's
        reducer drops disallowed candidate pairs after the witness
        count — witnesses stay pre-prune, the candidate set post-prune,
        exactly like the sequential matcher.

        Returns ``(new_links, candidates, witnesses_emitted)``:
        ``candidates`` counts the pairs whose score reached the
        threshold (after pruning), ``witnesses_emitted`` round 2's
        mapped records (before it).
        """
        cfg = self.config
        linked_right = set(links.values())

        # Round 1: join L with G1 adjacency.
        def map_expand_left(u1: Node, u2: Node) -> Iterator[tuple]:
            if not g2.has_node(u2):
                return
            for v1 in g1.neighbors(u1):
                if v1 not in links and g1.degree(v1) >= min_degree:
                    yield (u2, v1)

        def reduce_identity(key: Node, values: list) -> Iterator[tuple]:
            yield (key, values)

        r1 = self.engine.run(
            MapReduceJob("expand-left", map_expand_left, reduce_identity),
            links.items(),
        )

        # Round 2: join with G2 adjacency and count witnesses.
        def map_expand_right(u2: Node, v1s: list) -> Iterator[tuple]:
            for v2 in g2.neighbors(u2):
                if v2 not in linked_right and g2.degree(v2) >= min_degree:
                    for v1 in v1s:
                        yield ((v1, v2), 1)

        def reduce_sum(key: tuple, values: list) -> Iterator[tuple]:
            if prune is None or prune(key[0], key[1]):
                yield (key, int(sum(values)))

        r2 = self.engine.run(
            MapReduceJob(
                "expand-right", map_expand_right, reduce_sum, sum_combiner
            ),
            r1,
        )
        witnesses = self.engine.history[-1].mapped_records

        # Round 3: per-v1 argmax above threshold.
        def map_by_left(pair: tuple, count: int) -> Iterator[tuple]:
            if count >= cfg.threshold:
                v1, v2 = pair
                yield (v1, (v2, count))

        def reduce_left_best(v1: Node, values: list) -> Iterator[tuple]:
            top = max(count for _, count in values)
            winners = [v2 for v2, count in values if count == top]
            if len(winners) == 1:
                yield ((v1, winners[0]), top)
            elif cfg.tie_policy is TiePolicy.LOWEST_ID:
                yield ((v1, min(winners, key=node_sort_key)), top)

        r3 = self.engine.run(
            MapReduceJob("left-best", map_by_left, reduce_left_best),
            r2,
        )
        left_winners = {pair for pair, _ in r3}

        # Round 4: per-v2 argmax over all candidates; emit mutual bests.
        # The small winner set is broadcast-joined into the mapper.
        def map_by_right(pair: tuple, count: int) -> Iterator[tuple]:
            if count >= cfg.threshold:
                v1, v2 = pair
                yield (v2, (v1, count, pair in left_winners))

        def reduce_right_best(v2: Node, values: list) -> Iterator[tuple]:
            top = max(count for _, count, _ in values)
            winners = [
                (v1, flagged)
                for v1, count, flagged in values
                if count == top
            ]
            if len(winners) == 1:
                v1, flagged = winners[0]
            elif cfg.tie_policy is TiePolicy.LOWEST_ID:
                v1, flagged = min(winners, key=lambda w: node_sort_key(w[0]))
            else:
                return
            if flagged:
                yield (v1, v2)

        r4 = self.engine.run(
            MapReduceJob("right-best", map_by_right, reduce_right_best),
            r2,
        )
        candidates = sum(1 for _, count in r2 if count >= cfg.threshold)
        return dict(r4), candidates, witnesses

    # ------------------------------------------------------------------
    def run(
        self,
        g1: Graph,
        g2: Graph,
        seeds: dict[Node, Node],
        *,
        progress: ProgressCallback | None = None,
    ) -> MatchingResult:
        """Run the MR formulation; identical to the sequential sweep."""
        UserMatching._validate_seeds(g1, g2, seeds)
        reporter = ProgressReporter("mapreduce-user-matching", progress)
        cfg = self.config
        prune = None
        if cfg.candidate_pruning == "community":
            # One assignment per run, from the *initial* seeds — the
            # same relation the sequential sweep consults.
            from repro.graphs.communities import assignment_for
            from repro.graphs.pair_index import GraphPairIndex

            index = GraphPairIndex(g1, g2)
            assignment = assignment_for(
                g1, g2, seeds, frontier=cfg.pruning_frontier, index=index
            )
            cmap1, cmap2 = assignment.community_maps(index)
            del index

            def prune(v1: Node, v2: Node) -> bool:
                return assignment.allowed_communities(cmap1[v1], cmap2[v2])

        links: dict[Node, Node] = dict(seeds)
        phases: list[PhaseRecord] = []
        for iteration in range(1, cfg.iterations + 1):
            added_this_iteration = 0
            for j in self._reference.bucket_exponents(g1, g2):
                min_degree = 1 << j
                new_links, candidates, witnesses = self._match_round(
                    g1, g2, links, min_degree, prune=prune
                )
                links.update(new_links)
                added_this_iteration += len(new_links)
                phases.append(
                    PhaseRecord(
                        iteration=iteration,
                        bucket_exponent=(
                            j if cfg.use_degree_buckets else None
                        ),
                        min_degree=min_degree,
                        candidates=candidates,
                        witnesses_emitted=witnesses,
                        links_added=len(new_links),
                    )
                )
                reporter.emit(
                    "bucket",
                    links_total=len(links),
                    links_added=len(new_links),
                )
            if added_this_iteration == 0:
                break
        return MatchingResult(links=links, seeds=dict(seeds), phases=phases)
