"""Composable reconciliation pipeline: pluggable stages, one protocol.

:class:`Reconciler` decomposes seed-propagation reconciliation into five
pluggable stages, each an ordinary callable:

1. **seed strategy** — ``seed_strategy(g1, g2, seeds) -> dict`` prepares
   the starting links (default: validate and pass through).
2. **candidate generation** — ``candidates(g1, g2, links) -> dict[v1,
   set[v2]]`` proposes pairs worth scoring.  By default this stage is
   *fused into the kernel*: the shipped kernels already enumerate the
   paper's link join (the only pairs that can score), so a separate
   candidate pass would duplicate the dominant join cost.  Supply a
   callable (e.g. :func:`common_neighbor_candidates` composed with a
   filter) to restrict or extend the candidate set.
3. **scoring kernel** — ``scorer(g1, g2, links, candidates) ->
   scores[v1][v2]`` where ``candidates`` is the stage-2 output or
   ``None`` when no candidate stage is configured (default:
   similarity-witness counts; an alternative degree-normalized kernel
   after Narayanan–Shmatikov ships too).
4. **selection policy** — a selector name or callable from
   :mod:`repro.core.selectors` (``"mutual-best"``, ``"greedy"``,
   ``"gale-shapley"``).
5. **post-match validators** — ``validator(g1, g2, links, seeds) ->
   links`` hooks that audit and filter the final mapping ("Validation of
   Matching": reject links the graphs themselves contradict).

Stages 2–4 repeat for up to ``rounds`` rounds (newly selected links
become witnesses for the next round), then validators run once.  The
result carries per-stage :class:`~repro.core.result.StageTiming` records,
and a ``progress`` callback receives one event per stage execution.

:class:`Reconciler` conforms to the :class:`~repro.core.protocol.Matcher`
protocol and is registered as ``"reconciler"``, so it can be used
anywhere a matcher name is accepted.  For the paper's exact algorithm
(degree buckets, incremental witness tables) use
:class:`~repro.core.matcher.UserMatching` — this pipeline trades that
specialization for composability.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Callable, Hashable, TypeVar

from repro.core.config import (
    DEFAULT_BACKEND,
    TiePolicy,
    validate_backend,
    validate_candidate_pruning,
    validate_pruning_frontier,
)
from repro.core.kernels import ArrayScores
from repro.core.matcher import UserMatching
from repro.core.protocol import ProgressCallback, ProgressReporter
from repro.core.result import MatchingResult, PhaseRecord, StageTiming
from repro.core.scoring import (
    count_similarity_witnesses,
    count_similarity_witnesses_arrays,
)
from repro.core.selectors import SELECTORS, Selector, get_selector
from repro.errors import MatcherConfigError
from repro.graphs.graph import Graph
from repro.registry import register_matcher

if TYPE_CHECKING:
    from repro.graphs.pair_index import GraphPairIndex

Node = Hashable

_T = TypeVar("_T")

SeedStrategy = Callable[[Graph, Graph, dict], dict]
CandidateStage = Callable[[Graph, Graph, dict], "dict[Node, set[Node]]"]
ScoringKernel = Callable[
    [Graph, Graph, dict, "dict[Node, set[Node]]"],
    "dict[Node, dict[Node, float]]",
]
Validator = Callable[[Graph, Graph, dict, dict], dict]


# ----------------------------------------------------------------------
# Default stage implementations
# ----------------------------------------------------------------------
def validated_seeds(
    g1: Graph, g2: Graph, seeds: dict[Node, Node]
) -> dict[Node, Node]:
    """Default seed strategy: validate and pass the seeds through."""
    UserMatching._validate_seeds(g1, g2, seeds)
    return dict(seeds)


def common_neighbor_candidates(
    g1: Graph, g2: Graph, links: dict[Node, Node]
) -> dict[Node, set[Node]]:
    """Candidate stage materializing the paper's link join explicitly.

    For every identification link ``(u1, u2)``, every unmatched neighbor
    of ``u1`` is a candidate for every unmatched neighbor of ``u2`` —
    exactly the pairs that can have at least one similarity witness.
    The shipped kernels enumerate this join themselves, so configure
    this stage only as a building block for *restricted* candidate sets
    (filter its output before handing it to the kernel).
    """
    linked_right = set(links.values())
    out: dict[Node, set[Node]] = {}
    for u1, u2 in links.items():
        if not g2.has_node(u2):
            continue
        right = [v2 for v2 in g2.neighbors(u2) if v2 not in linked_right]
        if not right:
            continue
        for v1 in g1.neighbors(u1):
            if v1 in links:
                continue
            out.setdefault(v1, set()).update(right)
    return out


def witness_count_kernel(
    g1: Graph,
    g2: Graph,
    links: dict[Node, Node],
    candidates: "dict[Node, set[Node]] | None" = None,
) -> dict[Node, dict[Node, float]]:
    """Default scoring kernel: similarity-witness counts (Definition 1).

    Batch-computed with the join of
    :func:`~repro.core.scoring.count_similarity_witnesses`; with a
    candidate stage configured, scores are restricted to the proposed
    pairs (``candidates=None`` keeps the kernel's native join).
    """
    scores, _emitted = count_similarity_witnesses(g1, g2, links)
    if candidates is None:
        return scores
    out: dict[Node, dict[Node, float]] = {}
    for v1, cset in candidates.items():
        row = scores.get(v1)
        if not row:
            continue
        kept = {v2: sc for v2, sc in row.items() if v2 in cset}
        if kept:
            out[v1] = kept
    return out


def _csr_witness_scorer(
    g1: Graph,
    g2: Graph,
    use_native: bool = False,
    index: "GraphPairIndex | None" = None,
) -> ScoringKernel:
    """Per-run witness scorer over one shared dense interning.

    Scores over *index* when given (the community pruner's), else builds
    the :class:`~repro.graphs.pair_index.GraphPairIndex` lazily on the
    first scoring round; either way every round reuses it — interning
    is paid once per reconciliation, as the complexity argument
    assumes.  Without a candidate stage the flat
    :class:`~repro.core.kernels.ArrayScores` table flows straight into
    the selectors; with one, the scores are restricted through the dict
    view exactly like :func:`witness_count_kernel`.  With *use_native*
    (``backend="native"``) the compiled kernels of
    :mod:`repro.core.native` are resolved once alongside the index and
    plugged into every round — falling back to the csr kernels, with
    one warning, when no toolchain is available.
    """
    from repro.graphs.pair_index import GraphPairIndex

    state: dict[str, object] = {"index": index}

    def score(
        graph1: Graph,
        graph2: Graph,
        links: dict[Node, Node],
        candidates: "dict[Node, set[Node]] | None" = None,
    ) -> object:
        index = state.get("index")
        if index is None:
            index = GraphPairIndex(g1, g2)
            state["index"] = index
        if use_native and "native" not in state:
            from repro.core.native import load_native_library

            state["native"] = load_native_library()
        scores, _emitted = count_similarity_witnesses_arrays(
            index, links, native=state.get("native")
        )
        if candidates is None:
            return scores
        out: dict[Node, dict[Node, float]] = {}
        for v1, row in scores.to_dict().items():
            cset = candidates.get(v1)
            if not cset:
                continue
            kept = {v2: sc for v2, sc in row.items() if v2 in cset}
            if kept:
                out[v1] = kept
        return out

    score.__name__ = "csr_witness_scorer"
    return score


def normalized_witness_kernel(
    g1: Graph,
    g2: Graph,
    links: dict[Node, Node],
    candidates: "dict[Node, set[Node]] | None" = None,
) -> dict[Node, dict[Node, float]]:
    """Degree-normalized witness kernel (Narayanan–Shmatikov scoring).

    Each witness contributes ``1/sqrt(deg_G2(v2))`` instead of 1, damping
    the pull of high-degree candidates.  Scores are floats; pair it with
    ``threshold=1`` (or a calibrated float threshold).
    """
    linked_right = set(links.values())
    out: dict[Node, dict[Node, float]] = {}
    for u1, u2 in links.items():
        if not g2.has_node(u2):
            continue
        right = [
            (v2, 1.0 / math.sqrt(g2.degree(v2)))
            for v2 in g2.neighbors(u2)
            if v2 not in linked_right and g2.degree(v2) > 0
        ]
        if not right:
            continue
        for v1 in g1.neighbors(u1):
            if v1 in links:
                continue
            if candidates is not None:
                cset = candidates.get(v1)
                if not cset:
                    continue
            else:
                cset = None
            row = out.setdefault(v1, {})
            for v2, weight in right:
                if cset is None or v2 in cset:
                    row[v2] = row.get(v2, 0.0) + weight
    return out


def degree_ratio_validator(max_ratio: float = 3.0) -> Validator:
    """Validator factory: drop links whose endpoint degrees disagree.

    A true cross-network match of one user sees two samples of the same
    neighborhood, so wildly different degrees are evidence of a wrong
    link.  Drops every *non-seed* link where the larger endpoint degree
    exceeds ``max_ratio`` times the smaller (degree 0 counts as 1).
    """
    if max_ratio < 1.0:
        raise MatcherConfigError(f"max_ratio must be >= 1, got {max_ratio!r}")

    def validate(
        g1: Graph, g2: Graph, links: dict[Node, Node], seeds: dict
    ) -> dict[Node, Node]:
        out: dict[Node, Node] = {}
        for v1, v2 in links.items():
            if v1 not in seeds:
                d1 = max(g1.degree(v1), 1)
                d2 = max(g2.degree(v2), 1)
                if max(d1, d2) > max_ratio * min(d1, d2):
                    continue
            out[v1] = v2
        return out

    validate.__name__ = f"degree_ratio_validator(max_ratio={max_ratio})"
    return validate


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------
@register_matcher(
    "reconciler",
    description="composable pipeline (candidates/scoring/selection hooks)",
)
class Reconciler:
    """Seed-propagation reconciliation from pluggable stages.

    Example — the default pipeline is a plain iterated common-neighbors
    matcher; swapping one argument changes one stage::

        from repro import Reconciler

        pipeline = Reconciler(threshold=2, rounds=3,
                              selector="gale-shapley",
                              validators=[degree_ratio_validator(4.0)])
        result = pipeline.run(g1, g2, seeds, progress=print)
        result.timings     # per-stage wall-clock records

    Parameters
    ----------
    threshold : int or float
        Minimum score a pair needs to be linked (witness count for the
        default kernel).
    rounds : int
        Maximum propagation rounds (each round's new links become
        witnesses for the next); stops early when a round adds
        nothing.
    tie_policy : TiePolicy
        Tie handling, forwarded to the selector.
    seed_strategy : callable, optional
        Stage 1 hook (default: validate + pass through).
    candidates : callable, optional
        Stage 2 hook; ``None`` (default) fuses candidate enumeration
        into the kernel (the shipped kernels natively enumerate the
        link join), avoiding a duplicate join pass.
    scorer : callable, optional
        Stage 3 hook (default: witness counts).
    selector : str or callable
        Stage 4 — a policy name (``"mutual-best"``, ``"greedy"``,
        ``"gale-shapley"``) or a callable with the selector signature.
    validators : sequence of callable
        Stage 5 — post-match hooks, applied in order; each receives
        ``(g1, g2, links, seeds)`` and returns the links to keep
        (seeds must be preserved).
    backend : {"csr", "native"}
        Defaults to :data:`~repro.core.config.DEFAULT_BACKEND`
        (``"native"``).  The *default* scoring stage interns both
        graphs once per run and produces the flat
        :class:`~repro.core.kernels.ArrayScores` table; the named
        selectors dispatch to the vectorized kernels on it.
        ``"native"`` additionally routes the join and selection hot
        loops through the compiled kernels of
        :mod:`repro.core.native`, degrading to ``"csr"`` with a warning
        when no C toolchain is available; links are identical either
        way.  A custom ``scorer`` takes precedence over the backend
        choice; a custom ``candidates`` stage keeps its dict-level
        filtering semantics.  Passing ``scorer=witness_count_kernel``
        runs the same witness count over Python dicts keyed by
        original node ids, with identical links.
    candidate_pruning : {"none", "community"}
        ``"community"`` partitions the union graph once per run
        (:mod:`repro.graphs.communities`, from the *initial* links the
        seed strategy produced) and drops scored pairs whose
        communities are further than *pruning_frontier* hops apart —
        the same filter, applied between the scoring and selection
        stages, on every backend and on custom scorers, so links stay
        identical across scorers under pruning.  Pruning changes
        links versus ``"none"``; that cost is measured, not hidden.
    pruning_frontier : int
        Ring radius for ``candidate_pruning="community"`` (0 = same
        community only).  Ignored under ``"none"``.
    """

    def __init__(
        self,
        *,
        threshold: int | float = 2,
        rounds: int = 3,
        tie_policy: TiePolicy = TiePolicy.SKIP,
        seed_strategy: SeedStrategy | None = None,
        candidates: CandidateStage | None = None,
        scorer: ScoringKernel | None = None,
        selector: str | Selector = "mutual-best",
        validators: "tuple[Validator, ...] | list[Validator]" = (),
        backend: str = DEFAULT_BACKEND,
        candidate_pruning: str = "none",
        pruning_frontier: int = 0,
    ) -> None:
        if threshold <= 0:
            raise MatcherConfigError(
                f"threshold must be positive, got {threshold!r}"
            )
        if rounds < 1:
            raise MatcherConfigError(f"rounds must be >= 1, got {rounds!r}")
        if not isinstance(tie_policy, TiePolicy):
            raise MatcherConfigError(
                f"tie_policy must be a TiePolicy, got {tie_policy!r}"
            )
        self.threshold = threshold
        self.rounds = rounds
        self.tie_policy = tie_policy
        self.backend = validate_backend(backend)
        self.candidate_pruning = validate_candidate_pruning(
            candidate_pruning
        )
        self.pruning_frontier = validate_pruning_frontier(pruning_frontier)
        self.seed_strategy = seed_strategy or validated_seeds
        self.candidates = candidates
        self._default_scorer = scorer is None
        self.scorer = scorer or witness_count_kernel
        self.selector = (
            get_selector(selector)
            if isinstance(selector, str)
            else selector
        )
        self.validators = tuple(validators)

    # ------------------------------------------------------------------
    def _build_pruner(
        self,
        g1: Graph,
        g2: Graph,
        start_links: dict[Node, Node],
    ) -> "tuple[Callable[[object], object], GraphPairIndex]":
        """Community filter closure, built once from the initial links.

        The returned callable accepts either score shape — the flat
        :class:`~repro.core.kernels.ArrayScores` table or the nested
        dict — and applies the identical allowed-pair relation to both,
        which is what keeps the default scorer and custom scorers
        link-identical to each other under pruning.  It comes with the
        :class:`~repro.graphs.pair_index.GraphPairIndex` the assignment
        was built on, which the csr and native scorers reuse.
        """
        from repro.core import kernels
        from repro.graphs.communities import assignment_for
        from repro.graphs.pair_index import GraphPairIndex

        index = GraphPairIndex(g1, g2)
        assignment = assignment_for(
            g1,
            g2,
            start_links,
            frontier=self.pruning_frontier,
            index=index,
        )
        cmap1, cmap2 = assignment.community_maps(index)

        def prune(scores: object) -> object:
            if isinstance(scores, ArrayScores):
                # Dense ids agree with the assignment's: interning is
                # deterministic in graph insertion order.
                return kernels.prune_scores(
                    scores,
                    assignment.allowed_mask(scores.left, scores.right),
                )
            out: dict[Node, dict[Node, float]] = {}
            for v1, row in scores.items():  # type: ignore[attr-defined]
                c1 = cmap1.get(v1, -1)
                kept = {
                    v2: sc
                    for v2, sc in row.items()
                    if assignment.allowed_communities(
                        c1, cmap2.get(v2, -1)
                    )
                }
                if kept:
                    out[v1] = kept
            return out

        return prune, index

    # ------------------------------------------------------------------
    def run(
        self,
        g1: Graph,
        g2: Graph,
        seeds: dict[Node, Node],
        *,
        progress: ProgressCallback | None = None,
    ) -> MatchingResult:
        """Run the pipeline on one pair of networks.

        Parameters
        ----------
        g1, g2 : Graph
            The two networks.
        seeds : dict
            Initial identification links (one-to-one).
        progress : callable, optional
            Receives one event per stage execution.

        Returns
        -------
        MatchingResult
            ``links`` extend (and include) the seeds; ``timings``
            carries per-stage wall-clock records (seconds).
        """
        reporter = ProgressReporter("reconciler", progress)
        timings: list[StageTiming] = []

        def timed(
            stage: str, rnd: int, fn: Callable[..., _T], *args: object
        ) -> _T:
            start = time.perf_counter()
            value = fn(*args)
            timings.append(
                StageTiming(
                    stage=stage,
                    round=rnd,
                    elapsed=time.perf_counter() - start,
                )
            )
            return value

        start_links = timed("seeds", 0, self.seed_strategy, g1, g2, seeds)
        links: dict[Node, Node] = dict(start_links)
        reporter.emit("seeds", links_total=len(links), links_added=0)

        prune: "Callable[[object], object] | None" = None
        index: "GraphPairIndex | None" = None
        if self.candidate_pruning == "community":
            prune, index = timed(
                "prune-setup", 0, self._build_pruner, g1, g2, start_links
            )
            reporter.emit(
                "prune-setup", links_total=len(links), links_added=0
            )

        scorer = self.scorer
        if self._default_scorer:
            scorer = _csr_witness_scorer(
                g1, g2, use_native=self.backend == "native", index=index
            )
        del index  # held by the scorer, if it uses one

        phases: list[PhaseRecord] = []
        for rnd in range(1, self.rounds + 1):
            if self.candidates is not None:
                cands = timed(
                    "candidates", rnd, self.candidates, g1, g2, links
                )
                reporter.emit(
                    "candidates", links_total=len(links), links_added=0
                )
            else:
                cands = None  # fused: the kernel enumerates its own join
            scores = timed("score", rnd, scorer, g1, g2, links, cands)
            reporter.emit("score", links_total=len(links), links_added=0)
            if prune is not None:
                scores = timed("prune", rnd, prune, scores)
                reporter.emit(
                    "prune", links_total=len(links), links_added=0
                )
            if isinstance(scores, ArrayScores) and (
                self.selector not in SELECTORS.values()
            ):
                # Only the named selectors dispatch on the flat table; a
                # custom selector callable gets the documented dict shape.
                scores = scores.to_dict()
            new_links = timed(
                "select",
                rnd,
                self.selector,
                scores,
                self.threshold,
                self.tie_policy,
            )
            # Selectors only see unmatched candidates, but a custom stage
            # could return anything: enforce one-to-one against current
            # links and within the round's own output.
            linked_right = set(links.values())
            accepted: dict[Node, Node] = {}
            for v1, v2 in new_links.items():
                if v1 in links or v2 in linked_right:
                    continue
                accepted[v1] = v2
                linked_right.add(v2)
            links.update(accepted)
            if isinstance(scores, ArrayScores):
                scored_pairs = scores.num_pairs
                witnesses = scores.total_score()
            else:
                scored_pairs = sum(len(row) for row in scores.values())
                witnesses = int(
                    sum(
                        sc
                        for row in scores.values()
                        for sc in row.values()
                    )
                )
            phases.append(
                PhaseRecord(
                    iteration=rnd,
                    bucket_exponent=None,
                    min_degree=1,
                    candidates=scored_pairs,
                    witnesses_emitted=witnesses,
                    links_added=len(accepted),
                )
            )
            reporter.emit(
                "select",
                links_total=len(links),
                links_added=len(accepted),
            )
            if not accepted:
                break

        for validator in self.validators:
            before = len(links)
            links = timed("validate", 0, validator, g1, g2, links, start_links)
            broken = [
                v1
                for v1, v2 in start_links.items()
                if links.get(v1) != v2
            ]
            if broken:
                name = getattr(validator, "__name__", repr(validator))
                raise MatcherConfigError(
                    f"validator {name} dropped or remapped seed links "
                    f"({broken[:3]!r}{'...' if len(broken) > 3 else ''}); "
                    "validators may only drop non-seed links"
                )
            reporter.emit(
                "validate",
                links_total=len(links),
                links_added=len(links) - before,
            )

        return MatchingResult(
            links=links,
            seeds=dict(start_links),
            phases=phases,
            timings=timings,
        )
