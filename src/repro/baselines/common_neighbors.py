"""The "straightforward algorithm" baseline (paper §5, ablation).

Counts common (already-linked) neighbors like User-Matching but with **no
degree bucketing** and a default **threshold of 1** — exactly the simple
algorithm the paper runs its last experiment against.  On Facebook under
attack it recovers fewer than half the matches of User-Matching, and on
Wikipedia its error rate is 27.87% vs 17.31%.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.config import DEFAULT_BACKEND, MatcherConfig, TiePolicy
from repro.core.matcher import UserMatching
from repro.core.protocol import ProgressCallback
from repro.core.result import MatchingResult
from repro.graphs.graph import Graph
from repro.registry import register_matcher

Node = Hashable


@register_matcher(
    "common-neighbors",
    description="the paper's 'straightforward algorithm' ablation baseline",
)
class CommonNeighborsMatcher:
    """Plain mutual-best common-neighbor matching without bucketing.

    Implemented as a thin configuration of the same scoring/selection
    kernel used by :class:`~repro.core.matcher.UserMatching`, so the
    ablation isolates exactly the two ingredients the paper credits:
    the degree schedule and the higher threshold.
    """

    def __init__(
        self,
        threshold: int = 1,
        iterations: int = 1,
        tie_policy: TiePolicy = TiePolicy.SKIP,
        backend: str = DEFAULT_BACKEND,
        candidate_pruning: str = "none",
        pruning_frontier: int = 0,
    ) -> None:
        self.config = MatcherConfig(
            threshold=threshold,
            iterations=iterations,
            use_degree_buckets=False,
            min_bucket_exponent=0,
            tie_policy=tie_policy,
            backend=backend,
            candidate_pruning=candidate_pruning,
            pruning_frontier=pruning_frontier,
        )
        self._matcher = UserMatching(self.config)

    def run(
        self,
        g1: Graph,
        g2: Graph,
        seeds: dict[Node, Node],
        *,
        progress: ProgressCallback | None = None,
    ) -> MatchingResult:
        """Expand *seeds* by iterated mutual-best common-neighbor counts."""
        return self._matcher.run(g1, g2, seeds, progress=progress)
