"""Naive degree-sequence matcher — a sanity-floor baseline.

Matches the i-th highest-degree unmatched node of ``G1`` to the i-th
highest-degree unmatched node of ``G2``.  It ignores structure entirely, so
it only works when degrees are globally distinctive; tests use it to show
User-Matching's advantage is structural, not just degree-based.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.core.config import (
    DEFAULT_BACKEND,
    validate_backend,
    validate_candidate_pruning,
    validate_pruning_frontier,
)
from repro.core.ordering import node_sort_key
from repro.core.protocol import ProgressCallback, ProgressReporter
from repro.core.result import MatchingResult
from repro.graphs.graph import Graph
from repro.registry import register_matcher

Node = Hashable


@register_matcher(
    "degree-sequence",
    description="naive degree-rank pairing (sanity-floor baseline)",
)
class DegreeSequenceMatcher:
    """Match nodes purely by degree rank.

    One path over original node ids; ``backend`` is validated and
    ignored, like the pruning knobs.
    """

    def __init__(
        self,
        max_matches: int | None = None,
        backend: str = DEFAULT_BACKEND,
        candidate_pruning: str = "none",
        pruning_frontier: int = 0,
    ) -> None:
        self.max_matches = max_matches
        self.backend = validate_backend(backend)
        # Degree ranking is two lexsorts — nothing to prune; the
        # pruning knobs are accepted (and validated) for interface
        # uniformity across the registry and are inert by design: this
        # baseline has no candidate-pair stage to restrict.
        self.candidate_pruning = validate_candidate_pruning(
            candidate_pruning
        )
        self.pruning_frontier = validate_pruning_frontier(pruning_frontier)

    def run(
        self,
        g1: Graph,
        g2: Graph,
        seeds: dict[Node, Node],
        *,
        progress: ProgressCallback | None = None,
    ) -> MatchingResult:
        """Pair unmatched nodes by descending degree (stable by id order)."""
        reporter = ProgressReporter("degree-sequence", progress)
        left = _degree_ranking(g1, set(seeds))
        right = _degree_ranking(g2, set(seeds.values()))
        links = dict(seeds)
        pairs = zip(left, right)
        if self.max_matches is not None:
            pairs = list(pairs)[: self.max_matches]
        for v1, v2 in pairs:
            links[v1] = v2
        reporter.emit(
            "rank-pair",
            links_total=len(links),
            links_added=len(links) - len(seeds),
        )
        return MatchingResult(links=links, seeds=dict(seeds), phases=[])


def _degree_ranking(graph: Graph, taken: set[Node]) -> list[Node]:
    """The free nodes by descending degree, ties in canonical order."""
    free = [
        n for n in sorted(graph.nodes(), key=node_sort_key) if n not in taken
    ]
    degrees = np.fromiter(
        map(graph.degree, free), dtype=np.int64, count=len(free)
    )
    # A stable sort keeps the canonical order within each degree.
    order = np.argsort(-degrees, kind="stable")
    return list(map(free.__getitem__, order.tolist()))
