"""Propagation baseline after Narayanan & Shmatikov (S&P 2009) [23].

The closest prior algorithm to User-Matching.  Differences the paper
highlights: a more expensive scoring function — each candidate's common-
neighbor count is normalized by ``1/sqrt(deg)`` of the witnessing node's
image — an *eccentricity* filter (the best score must beat the runner-up
by ``eccentricity_threshold`` standard deviations), and a reverse-match
check, giving complexity ``O((E1 + E2) Δ1 Δ2)`` versus User-Matching's
``O((E1 + E2) min(Δ1, Δ2) log max(Δ1, Δ2))``.

This implementation follows the published propagation loop: it revisits
nodes until no score changes the mapping, and (unlike User-Matching) may
rematch a node when the evidence changes.

The matcher has one path over original node ids; ``backend`` is
validated and ignored, like the pruning knobs, so the registry's
surface stays uniform.  Score sums and the eccentricity statistics are
order-independent (every contribution to one candidate is the same
``1/sqrt(deg)`` constant, and the moments use :func:`math.fsum`), and a
tied top score — only accepted at ``eccentricity_threshold=0`` — goes
to the canonically smallest id rather than to whichever candidate a
dict happened to list first.
"""

from __future__ import annotations

import math
from typing import Hashable

from repro.core.config import (
    DEFAULT_BACKEND,
    validate_backend,
    validate_candidate_pruning,
    validate_pruning_frontier,
)
from repro.core.ordering import node_sort_key
from repro.core.protocol import ProgressCallback, ProgressReporter
from repro.core.result import MatchingResult
from repro.errors import MatcherConfigError
from repro.graphs.graph import Graph
from repro.registry import register_matcher

Node = Hashable


@register_matcher(
    "narayanan-shmatikov",
    description="propagation with eccentricity filter, after [23]",
)
class NarayananShmatikovMatcher:
    """De-anonymization by score propagation with eccentricity filtering.

    Args:
        eccentricity_threshold: minimum (best − second-best) / std over a
            candidate's score vector for the match to be accepted; [23]
            uses 0.5.
        max_sweeps: maximum passes over the unmatched nodes.
        allow_rematch: let later evidence overwrite earlier matches
            (true in [23]).
        backend: validated and ignored (one path; see the module
            docstring).
    """

    def __init__(
        self,
        eccentricity_threshold: float = 0.5,
        max_sweeps: int = 5,
        allow_rematch: bool = True,
        backend: str = DEFAULT_BACKEND,
        candidate_pruning: str = "none",
        pruning_frontier: int = 0,
    ) -> None:
        if eccentricity_threshold < 0:
            raise MatcherConfigError(
                "eccentricity_threshold must be >= 0, "
                f"got {eccentricity_threshold}"
            )
        if max_sweeps < 1:
            raise MatcherConfigError(
                f"max_sweeps must be >= 1, got {max_sweeps}"
            )
        self.eccentricity_threshold = eccentricity_threshold
        self.max_sweeps = max_sweeps
        self.allow_rematch = allow_rematch
        self.backend = validate_backend(backend)
        # The sweep rematches nodes one at a time (order-dependent by
        # design), so there is no independent work to prune; the
        # pruning knobs are accepted (and validated) for
        # interface uniformity across the registry —
        # candidate_pruning stays inert because the rematch dynamics
        # would make a pruned run's trajectory incomparable anyway.
        self.candidate_pruning = validate_candidate_pruning(
            candidate_pruning
        )
        self.pruning_frontier = validate_pruning_frontier(pruning_frontier)

    # ------------------------------------------------------------------
    def _candidate_scores(
        self,
        g1: Graph,
        g2: Graph,
        links: dict[Node, Node],
        v1: Node,
    ) -> dict[Node, float]:
        """Degree-normalized witness scores of every candidate for *v1*."""
        scores: dict[Node, float] = {}
        for u1 in g1.neighbors(v1):
            u2 = links.get(u1)
            if u2 is None or not g2.has_node(u2):
                continue
            for v2 in g2.neighbors(u2):
                d = g2.degree(v2)
                if d == 0:
                    continue
                scores[v2] = scores.get(v2, 0.0) + 1.0 / math.sqrt(d)
        return scores

    @staticmethod
    def _eccentric_best(
        scores: dict[Node, float], threshold: float
    ) -> Node | None:
        """Best candidate if it clears the eccentricity filter, else None."""
        if not scores:
            return None
        items = sorted(scores.items(), key=lambda kv: -kv[1])
        if len(items) == 1:
            return items[0][0]
        values = [sc for _, sc in items]
        # fsum: correctly rounded, so the result does not depend on the
        # order ties were visited in.
        mean = math.fsum(values) / len(values)
        var = math.fsum((x - mean) ** 2 for x in values) / len(values)
        std = math.sqrt(var)
        if std == 0:
            return None  # flat score vector: no distinguished best
        if (values[0] - values[1]) / std < threshold:
            return None
        if values[0] == values[1]:
            # Only reachable at threshold 0: break the tie canonically.
            return min(
                (v for v, sc in items if sc == values[0]), key=node_sort_key
            )
        return items[0][0]

    # ------------------------------------------------------------------
    def run(
        self,
        g1: Graph,
        g2: Graph,
        seeds: dict[Node, Node],
        *,
        progress: ProgressCallback | None = None,
    ) -> MatchingResult:
        """Propagate *seeds* into a full mapping, [23]-style."""
        reporter = ProgressReporter("narayanan-shmatikov", progress)
        links: dict[Node, Node] = dict(seeds)
        reverse: dict[Node, Node] = {v2: v1 for v1, v2 in links.items()}
        for _ in range(self.max_sweeps):
            changed = 0
            for v1 in list(g1.nodes()):
                if v1 in seeds:
                    continue
                if v1 in links and not self.allow_rematch:
                    continue
                scores = self._candidate_scores(g1, g2, links, v1)
                # Candidates already owned by another node are off-limits
                # unless rematching is allowed.
                if not self.allow_rematch:
                    scores = {
                        v2: sc
                        for v2, sc in scores.items()
                        if v2 not in reverse
                    }
                best = self._eccentric_best(
                    scores, self.eccentricity_threshold
                )
                if best is None:
                    continue
                # Reverse check: does best map back to v1?
                back = self._candidate_scores(g2, g1, reverse, best)
                best_back = self._eccentric_best(
                    back, self.eccentricity_threshold
                )
                if best_back != v1:
                    continue
                prev_owner = reverse.get(best)
                if prev_owner is not None and prev_owner != v1:
                    if prev_owner in seeds or not self.allow_rematch:
                        continue
                    del links[prev_owner]
                if links.get(v1) != best:
                    old = links.get(v1)
                    if old is not None:
                        del reverse[old]
                    links[v1] = best
                    reverse[best] = v1
                    changed += 1
            reporter.emit("sweep", links_total=len(links), links_added=changed)
            if changed == 0:
                break
        return MatchingResult(links=links, seeds=dict(seeds), phases=[])
