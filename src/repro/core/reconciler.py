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
   filter) to restrict the candidate set.
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

import numpy as np

from repro.core import kernels
from repro.core.config import (
    DEFAULT_BACKEND,
    TiePolicy,
    validate_backend,
    validate_candidate_pruning,
    validate_pruning_frontier,
)
from repro.core.kernels import ArrayScores
from repro.core.matcher import UserMatching
from repro.core.native import load_native_library
from repro.core.protocol import ProgressCallback, ProgressReporter
from repro.core.result import MatchingResult, PhaseRecord, StageTiming
from repro.core.selectors import SELECTORS, Selector, get_selector
from repro.errors import MatcherConfigError
from repro.graphs.communities import assignment_for
from repro.graphs.graph import Graph
from repro.graphs.pair_index import GraphPairIndex
from repro.registry import register_matcher

if TYPE_CHECKING:
    from repro.core.native import NativeKernels

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
# The built-in scoring stage
# ----------------------------------------------------------------------
def _link_arrays(
    index: GraphPairIndex, links: dict[Node, Node]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Interned links and the free-node masks of one scoring round.

    A link whose right endpoint is not in ``g2`` (a custom seed strategy
    may produce one) blocks its left endpoint but joins nothing, as in
    round 1 of the MapReduce formulation.
    """
    free1 = np.ones(index.n1, dtype=bool)
    free2 = np.ones(index.n2, dtype=bool)
    joined = {v1: v2 for v1, v2 in links.items() if index.has2(v2)}
    for v1 in links.keys() - joined.keys():
        free1[index.dense1(v1)] = False
    link_l, link_r = index.intern_links(joined)
    free1[link_l] = False
    free2[link_r] = False
    return link_l, link_r, free1, free2


def _proposed(
    scores: ArrayScores, candidates: "dict[Node, set[Node]]"
) -> np.ndarray:
    """Row mask of the scored pairs a candidate stage proposed."""
    index = scores.index
    dense1, dense2, n2 = index.dense1, index.dense2, index.n2
    keys = np.fromiter(
        (
            dense1(v1) * n2 + dense2(v2)
            for v1, cset in candidates.items()
            for v2 in cset
        ),
        dtype=np.int64,
    )
    return np.isin(scores.left.astype(np.int64) * n2 + scores.right, keys)


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

    Every run interns ``(g1, g2)`` once into a
    :class:`~repro.graphs.pair_index.GraphPairIndex`, and every round's
    scores live in one :class:`~repro.core.kernels.ArrayScores` table
    over it: the candidate restriction and the community filter are
    row masks over that table, and the named selectors read it
    directly.  The default pipeline is link- and phase-identical to
    :class:`~repro.mapreduce.matcher_mr.MapReduceUserMatching` with
    ``iterations=rounds``, ``use_degree_buckets=False`` and
    ``min_bucket_exponent=0``.

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
        link join), avoiding a duplicate join pass.  With the built-in
        scorer the proposed pairs mask the witness table (a proposed
        node missing from its graph raises
        :class:`~repro.errors.NodeNotFoundError`); a custom scorer
        receives them and restricts its own output.
    scorer : callable, optional
        Stage 3 hook.  ``None`` (default) counts similarity witnesses
        (Definition 1) with :func:`~repro.core.kernels.count_witnesses`
        over the run's index.  A custom scorer returns the documented
        ``scores[v1][v2]`` dict, which
        :meth:`~repro.core.kernels.ArrayScores.from_dict` interns (a
        scored node missing from its graph raises
        :class:`~repro.errors.NodeNotFoundError`).  The attribute keeps
        what was passed: ``None`` means the built-in scorer runs.
    selector : str or callable
        Stage 4 — a policy name (``"mutual-best"``, ``"greedy"``,
        ``"gale-shapley"``) or a callable with the selector signature.
        The named selectors take the table; a callable gets its
        ``to_dict()`` view.
    validators : sequence of callable
        Stage 5 — post-match hooks, applied in order; each receives
        ``(g1, g2, links, seeds)`` and returns the links to keep
        (seeds must be preserved).
    backend : {"csr", "native"}
        Defaults to :data:`~repro.core.config.DEFAULT_BACKEND`
        (``"native"``).  ``"native"`` routes the built-in scorer's join
        and the named selectors' hot loops through the compiled kernels
        of :mod:`repro.core.native`, degrading to ``"csr"`` with a
        warning when no C toolchain is available; links are identical
        either way.  A custom scorer's table is selected by the numpy
        kernels.
    candidate_pruning : {"none", "community"}
        ``"community"`` partitions the union graph once per run
        (:mod:`repro.graphs.communities`, from the *initial* links the
        seed strategy produced) and drops scored pairs whose
        communities are further than *pruning_frontier* hops apart —
        one row mask between the scoring and selection stages, for the
        built-in and custom scorers alike.  Pruning changes links
        versus ``"none"``; that cost is measured, not hidden.
    pruning_frontier : int
        Ring radius for ``candidate_pruning="community"`` (0 = same
        community only).  Ignored under ``"none"``.

    Each round's :class:`~repro.core.result.PhaseRecord` has
    ``bucket_exponent=None`` and ``min_degree=1``.  ``candidates``
    counts the pairs at or above ``threshold`` after the candidate
    restriction and the pruning.  ``witnesses_emitted`` is the built-in
    join's ``Σ a_k · b_k`` before pruning; for a custom scorer it is the
    total score of the table it returned.
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
        self.scorer = scorer
        self.selector = (
            get_selector(selector)
            if isinstance(selector, str)
            else selector
        )
        self.validators = tuple(validators)

    # ------------------------------------------------------------------
    def _intern(
        self, g1: Graph, g2: Graph
    ) -> "tuple[GraphPairIndex, NativeKernels | None]":
        """The run's index, and the compiled kernels the built-in
        scorer uses under ``backend="native"`` (resolved once)."""
        native = None
        if self.scorer is None and self.backend == "native":
            native = load_native_library()
        return GraphPairIndex(g1, g2), native

    def _score(
        self,
        index: GraphPairIndex,
        native: "NativeKernels | None",
        g1: Graph,
        g2: Graph,
        links: dict[Node, Node],
        candidates: "dict[Node, set[Node]] | None",
    ) -> tuple[ArrayScores, int]:
        """One scoring stage: the round's table and its witness count."""
        if self.scorer is not None:
            rows = self.scorer(g1, g2, links, candidates)
            scores = ArrayScores.from_dict(index, rows)
            return scores, scores.total_score()
        scores, emitted = kernels.count_witnesses(
            index, *_link_arrays(index, links), native=native
        )
        if candidates is not None:
            scores = kernels.prune_scores(
                scores, _proposed(scores, candidates)
            )
        return scores, emitted

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

        index, native = timed("index", 0, self._intern, g1, g2)
        reporter.emit("index", links_total=len(links), links_added=0)
        assignment = None
        if self.candidate_pruning == "community":
            assignment = timed(
                "prune-setup",
                0,
                assignment_for,
                g1,
                g2,
                start_links,
                self.pruning_frontier,
                index,
            )
            reporter.emit(
                "prune-setup", links_total=len(links), links_added=0
            )
        named = self.selector in SELECTORS.values()

        phases: list[PhaseRecord] = []
        for rnd in range(1, self.rounds + 1):
            cands = None  # fused: the kernel enumerates its own join
            if self.candidates is not None:
                cands = timed(
                    "candidates", rnd, self.candidates, g1, g2, links
                )
                reporter.emit(
                    "candidates", links_total=len(links), links_added=0
                )
            scores, emitted = timed(
                "score", rnd, self._score, index, native, g1, g2, links, cands
            )
            reporter.emit("score", links_total=len(links), links_added=0)
            if assignment is not None:
                keep = assignment.allowed_mask(scores.left, scores.right)
                scores = timed(
                    "prune", rnd, kernels.prune_scores, scores, keep
                )
                reporter.emit(
                    "prune", links_total=len(links), links_added=0
                )
            new_links = timed(
                "select",
                rnd,
                self.selector,
                scores if named else scores.to_dict(),
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
            phases.append(
                PhaseRecord(
                    iteration=rnd,
                    bucket_exponent=None,
                    min_degree=1,
                    candidates=int(
                        np.count_nonzero(scores.score >= self.threshold)
                    ),
                    witnesses_emitted=emitted,
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
