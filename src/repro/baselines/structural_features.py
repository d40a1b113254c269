"""Structural-feature matching baseline after Henderson et al. [14].

The paper's related work discusses "It's who you know: graph mining using
recursive structural features" (ReFeX): describe each node by local
features (degree, ego-net statistics) plus *recursive* aggregates of its
neighbors' features, then identify nodes across graphs by feature
similarity.  The paper notes such features are "more resilient to attack
by malicious users, although they can be easily circumvented" by sybil
attackers who clone profiles — our attack experiment lets that claim be
tested directly.

This implementation computes ``1 + 2·levels`` features per node (degree,
then mean/max neighbor aggregates per recursion level), z-normalizes per
graph, and matches mutually-nearest feature vectors within a distance
threshold.  Seeds are used only to calibrate the distance threshold (the
method itself needs no seeds — its selling point and its weakness).

Float reductions use :func:`math.fsum` (correctly rounded, so the result
is independent of iteration order) and every scan runs in the canonical
node order, which makes the matcher deterministic under graph
construction order.  There is one path over original node ids;
``backend`` is validated and ignored, like the pruning knobs.
"""

from __future__ import annotations

import bisect
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


def recursive_features(
    graph: Graph, levels: int = 2
) -> dict[Node, list[float]]:
    """ReFeX-style features: degree + per-level neighbor mean/max.

    Level 0 is the node's degree; level ``i`` aggregates the level
    ``i-1`` feature over the neighborhood (mean and max), so features at
    level *i* summarize the degree structure at distance *i*.
    """
    if levels < 0:
        raise MatcherConfigError(f"levels must be >= 0, got {levels}")
    base: dict[Node, float] = {
        n: float(graph.degree(n)) for n in graph.nodes()
    }
    features: dict[Node, list[float]] = {
        n: [value] for n, value in base.items()
    }
    current = base
    for _level in range(levels):
        next_level: dict[Node, float] = {}
        for node in graph.nodes():
            nbrs = graph.neighbors(node)
            if nbrs:
                values = [current[v] for v in nbrs]
                mean = math.fsum(values) / len(values)
                top = max(values)
            else:
                mean = top = 0.0
            features[node].append(mean)
            features[node].append(top)
            next_level[node] = mean
        current = next_level
    return features


def _normalize(features: dict[Node, list[float]]) -> dict[Node, list[float]]:
    """Z-normalize each feature dimension over the graph's nodes."""
    if not features:
        return {}
    dims = len(next(iter(features.values())))
    n = len(features)
    vectors = list(features.values())
    means = [math.fsum(vec[i] for vec in vectors) / n for i in range(dims)]
    stds = [
        math.sqrt(
            math.fsum((vec[i] - means[i]) ** 2 for vec in vectors) / n
        )
        or 1.0
        for i in range(dims)
    ]
    return {
        node: [(x - means[i]) / stds[i] for i, x in enumerate(vec)]
        for node, vec in features.items()
    }


def _distance(a: list[float], b: list[float]) -> float:
    return math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a, b)))


@register_matcher(
    "structural-features",
    description="recursive structural features after Henderson et al. [14]",
)
class StructuralFeatureMatcher:
    """Match nodes by mutual-nearest recursive structural features.

    Args:
        levels: feature recursion depth (default 2, as in ReFeX's
            low-order configurations).
        quantile: distance acceptance threshold, calibrated as this
            quantile of the seed pairs' feature distances (seeds are not
            propagated — only used for calibration).  Lower = stricter.
        max_candidates: for each left node only the nearest candidate is
            taken among the ``max_candidates`` right nodes closest in
            degree (a blocking step that keeps the quadratic scan
            tractable, standard in feature-matching systems).
        backend: validated and ignored (one path; see the module
            docstring).
    """

    def __init__(
        self,
        levels: int = 2,
        quantile: float = 0.5,
        max_candidates: int = 50,
        backend: str = DEFAULT_BACKEND,
        candidate_pruning: str = "none",
        pruning_frontier: int = 0,
    ) -> None:
        if not 0.0 < quantile <= 1.0:
            raise MatcherConfigError(
                f"quantile must be in (0, 1], got {quantile}"
            )
        if max_candidates < 1:
            raise MatcherConfigError(
                f"max_candidates must be >= 1, got {max_candidates}"
            )
        self.levels = levels
        self.quantile = quantile
        self.max_candidates = max_candidates
        self.backend = validate_backend(backend)
        # Feature extraction is one vectorized pass per graph with no
        # per-round join to prune; the pruning knobs are accepted
        # (and validated) for interface uniformity across the
        # registry — candidate selection here is by feature distance,
        # not link-join candidates, so candidate_pruning has nothing to
        # restrict and stays inert.
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
        """Match by feature proximity; returns seeds + feature matches."""
        reporter = ProgressReporter("structural-features", progress)
        f1 = _normalize(recursive_features(g1, self.levels))
        f2 = _normalize(recursive_features(g2, self.levels))
        # Calibrate the acceptance radius on the seed pairs.
        seed_distances = sorted(
            _distance(f1[v1], f2[v2])
            for v1, v2 in seeds.items()
            if v1 in f1 and v2 in f2
        )
        if seed_distances:
            idx = min(
                len(seed_distances) - 1,
                int(len(seed_distances) * self.quantile),
            )
            radius = seed_distances[idx]
        else:
            radius = 0.0  # nothing to calibrate on: match nothing
        # Blocking by degree rank keeps the scan near-linear; ties in
        # degree follow the canonical order so the scan is independent
        # of graph construction order.
        taken = set(seeds.values())
        right = sorted(
            (n for n in g2.nodes() if n not in taken),
            key=lambda n: (-g2.degree(n), node_sort_key(n)),
        )
        # Negated so the descending degree column bisects ascending.
        neg_degrees = [-g2.degree(n) for n in right]
        links: dict[Node, Node] = dict(seeds)
        best_left: dict[Node, tuple[float, Node]] = {}

        for v1 in sorted(g1.nodes(), key=node_sort_key):
            if v1 in links:
                continue
            deg = g1.degree(v1)
            # Window of right nodes with the closest degrees.
            pos = bisect.bisect_left(neg_degrees, -deg)
            lo = max(0, pos - self.max_candidates // 2)
            window = right[lo : lo + self.max_candidates]
            best = None
            best_d = radius
            for v2 in window:
                if v2 in taken:
                    continue
                d = _distance(f1[v1], f2[v2])
                if d <= best_d:
                    best, best_d = v2, d
            if best is not None:
                prev = best_left.get(best)
                if prev is None or best_d < prev[0]:
                    best_left[best] = (best_d, v1)
        for v2, (_d, v1) in best_left.items():
            links[v1] = v2
        reporter.emit(
            "feature-match",
            links_total=len(links),
            links_added=len(links) - len(seeds),
        )
        return MatchingResult(links=links, seeds=dict(seeds), phases=[])
