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

With ``backend="csr"`` the same propagation runs over dense-interned
arrays: per-candidate score vectors are accumulated with ``np.add.at``
over CSR neighbor slices.  Every contribution to one candidate is the
same constant ``1/sqrt(deg)``, so the accumulated floats are bit-equal
to the dict backend's regardless of addition order, and the two backends
produce identical links (for ``eccentricity_threshold > 0``; at exactly
0 a tied top score is broken canonically by the csr backend and
arbitrarily by the dict backend).
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
        backend: ``"dict"`` (the Python reference) or ``"csr"``
            (dense-interned array propagation, link-identical for a
            positive eccentricity threshold); ``"native"`` (the
            default) runs the csr path — this matcher's propagation
            has no compiled kernel, so the knob stays uniform across
            the registry.
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
        # fsum: correctly rounded, so the dict and csr paths agree
        # bit-for-bit even though they visit ties in different orders.
        mean = math.fsum(values) / len(values)
        var = math.fsum((x - mean) ** 2 for x in values) / len(values)
        std = math.sqrt(var)
        if std == 0:
            return None  # flat score vector: no distinguished best
        if (values[0] - values[1]) / std < threshold:
            return None
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
        if self.backend in ("csr", "native"):
            return self._run_csr(g1, g2, seeds, reporter)
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

    # ------------------------------------------------------------------
    def _run_csr(
        self,
        g1: Graph,
        g2: Graph,
        seeds: dict[Node, Node],
        reporter: ProgressReporter,
    ) -> MatchingResult:
        """Array propagation over a shared dense interning.

        State lives in two ``int64`` partner arrays (``-1`` = unmatched);
        candidate score vectors come from one segmented gather plus an
        unbuffered ``np.add.at``.  The sweep visits g1 nodes in the same
        (insertion) order as the dict backend so the rematch dynamics
        are identical.
        """
        import numpy as np

        from repro.core.kernels import segmented_gather
        from repro.graphs.pair_index import GraphPairIndex

        index = GraphPairIndex(g1, g2)
        n1, n2 = index.n1, index.n2
        with np.errstate(divide="ignore"):
            w1 = np.where(index.deg1 > 0, 1.0 / np.sqrt(index.deg1), 0.0)
            w2 = np.where(index.deg2 > 0, 1.0 / np.sqrt(index.deg2), 0.0)
        link12 = np.full(n1, -1, dtype=np.int64)
        link21 = np.full(n2, -1, dtype=np.int64)
        seed_l, seed_r = index.intern_links(seeds)
        link12[seed_l] = seed_r
        link21[seed_r] = seed_l
        seed1 = np.zeros(n1, dtype=bool)
        seed1[seed_l] = True
        scratch1 = np.zeros(n1, dtype=np.float64)
        scratch2 = np.zeros(n2, dtype=np.float64)
        sweep = [index.dense1(v) for v in g1.nodes()]
        csr1, csr2 = index.csr1, index.csr2
        allow_rematch = self.allow_rematch
        threshold = self.eccentricity_threshold

        def candidate_scores(csr_a, csr_b, link_ab, w_b, scratch_b, va):
            """(candidates, scores) arrays for node *va*; order-exact."""
            nbrs = csr_a.neighbors(va)
            images = link_ab[nbrs]
            images = images[images >= 0]
            if len(images) == 0:
                return None
            targets, _seg = segmented_gather(
                csr_b.indptr, csr_b.indices, images
            )
            if len(targets) == 0:
                return None
            # Every addition to one candidate is the same 1/sqrt(deg)
            # constant, so the unbuffered accumulation is bit-equal to
            # the dict backend's repeated addition in any order.
            np.add.at(scratch_b, targets, w_b[targets])
            touched = np.unique(targets)
            values = scratch_b[touched].copy()
            scratch_b[touched] = 0.0
            return touched, values

        def eccentric_best(touched, values):
            """Dense-id twin of :meth:`_eccentric_best`."""
            if len(touched) == 1:
                return int(touched[0])
            order = np.lexsort((touched, -values))
            vals = values[order].tolist()
            n = len(vals)
            mean = math.fsum(vals) / n
            var = math.fsum((x - mean) ** 2 for x in vals) / n
            std = math.sqrt(var)
            if std == 0:
                return None
            if (vals[0] - vals[1]) / std < threshold:
                return None
            return int(touched[order[0]])

        for _ in range(self.max_sweeps):
            changed = 0
            for v1 in sweep:
                if seed1[v1]:
                    continue
                if link12[v1] >= 0 and not allow_rematch:
                    continue
                forward = candidate_scores(
                    csr1, csr2, link12, w2, scratch2, v1
                )
                if forward is None:
                    continue
                touched, values = forward
                if not allow_rematch:
                    free = link21[touched] < 0
                    touched, values = touched[free], values[free]
                if len(touched) == 0:
                    continue
                best = eccentric_best(touched, values)
                if best is None:
                    continue
                backward = candidate_scores(
                    csr2, csr1, link21, w1, scratch1, best
                )
                if backward is None:
                    continue
                best_back = eccentric_best(*backward)
                if best_back != v1:
                    continue
                prev_owner = int(link21[best])
                if prev_owner >= 0 and prev_owner != v1:
                    if seed1[prev_owner] or not allow_rematch:
                        continue
                    link12[prev_owner] = -1
                if link12[v1] != best:
                    old = int(link12[v1])
                    if old >= 0:
                        link21[old] = -1
                    link12[v1] = best
                    link21[best] = v1
                    changed += 1
            links_total = int((link12 >= 0).sum())
            reporter.emit(
                "sweep", links_total=links_total, links_added=changed
            )
            if changed == 0:
                break
        matched = np.flatnonzero(link12 >= 0)
        links = index.export_links(matched, link12[matched])
        return MatchingResult(links=links, seeds=dict(seeds), phases=[])
