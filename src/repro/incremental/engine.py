""":class:`IncrementalReconciler` — warm-start reconciliation over deltas.

The paper's deployment story is inherently streaming: edges and
confirmed links keep arriving, yet the batch algorithm recomputes
everything from scratch on every new snapshot.  This engine closes that
gap with an **exactness-first** contract:

    after any sequence of :meth:`apply` calls, :attr:`result` is
    bit-identical (link-for-link) to one cold run of the configured
    matcher on the final graphs with the accumulated seeds.

Two execution modes satisfy that contract:

- **warm** (the default :class:`~repro.core.matcher.UserMatching`
  algorithm): the engine replays the bucket sweep on the array
  substrate, but each (iteration, bucket) round's score table is
  *patched*, not recomputed — the previous run's table is corrected by
  subtracting the old contributions of **dirty links** (links whose
  witness neighborhoods intersect the delta, found from the CSR join
  frontier) and adding their new contributions, plus the contributions
  of links that entered/left the round.  Witness counts are additive
  over links, so the patched table is exactly the cold table; selection
  then runs the stock array kernels over canonical-rank-mapped ids,
  reproducing cold tie-breaks even though appended nodes break dense-id
  order.  Only the dirty subset is ever re-joined — the speedup scales
  with the delta, not the graph.
- **cold-replay** (every other registry matcher): the matcher is a
  black box, so the engine replays it in full on the patched graphs.
  Exactness is trivial; there is no speedup.  The seam is the same, so
  callers can stream deltas through any matcher and switch to the warm
  engine without code changes.

Checkpointing: :meth:`save_checkpoint` persists graphs, seeds, links,
and the per-round score tables through
:mod:`repro.core.links_io`; :meth:`IncrementalReconciler.resume` brings
the engine back in a fresh process, ready for more deltas.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Hashable

import numpy as np

from repro.core import kernels
from repro.core.config import MatcherConfig, TiePolicy
from repro.core.kernels import ArrayScores, _segment_cross_product
from repro.core.matcher import UserMatching
from repro.core.result import MatchingResult, PhaseRecord
from repro.errors import ReproError
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph
from repro.incremental.delta import (
    GraphDelta,
    apply_delta_to_graphs,
    validate_delta,
)
from repro.incremental.delta_index import AppliedDelta, DeltaIndex

if TYPE_CHECKING:
    from repro.core.native import NativeKernels

Node = Hashable

_EMPTY = np.empty(0, dtype=np.int64)

#: Fields of :class:`MatcherConfig` that change *what* is computed (as
#: opposed to how); a checkpoint can only warm-resume under a config
#: whose algorithmic fields match.
_ALGORITHMIC_FIELDS = (
    "threshold",
    "iterations",
    "max_degree",
    "use_degree_buckets",
    "min_bucket_exponent",
    "tie_policy",
    # candidate_pruning / pruning_frontier are algorithmic too, but the
    # combination with checkpoint_path is rejected at config time (the
    # delta corrections assume the unpruned candidate space), so every
    # checkpointed config carries the defaults; listed for the day that
    # restriction is lifted.  ``mmap`` is execution-only and excluded.
    "candidate_pruning",
    "pruning_frontier",
)


@dataclass
class _RoundCache:
    """One (iteration, bucket) round of the previous run, reusable.

    Attributes:
        key: ``(iteration, bucket_exponent)`` — the round's identity in
            the sweep schedule.
        start_l: dense g1 endpoints of the links at round start.
        start_r: dense g2 endpoints, parallel to ``start_l``.
        packed: score-table pair keys ``v1 * n2 + v2``, sorted
            ascending (the engine repacks when ``n2`` grows).
        score: witness counts parallel to ``packed`` (positive).
        emitted: the round's total witness-pair expansion.
    """

    key: tuple[int, int]
    start_l: np.ndarray
    start_r: np.ndarray
    packed: np.ndarray
    score: np.ndarray
    emitted: int


@dataclass
class DeltaOutcome:
    """What one :meth:`IncrementalReconciler.apply` call did.

    Attributes:
        result: the reconciliation result on the post-delta graphs
            (bit-identical to a cold run).
        mode: ``"warm"`` (dirty-set re-scoring), ``"cold"`` (black-box
            replay), or ``"noop"`` (empty delta).
        elapsed: wall-clock seconds spent applying the delta.
        dirty_links: link contributions re-scored across all rounds
            (subtracted + added); ``None`` in cold mode.
        rescored_rounds: rounds served by patching a cached table.
        full_rounds: rounds that fell back to a full witness join.
        links_added: links in the new result but not the previous one.
        links_removed: links in the previous result but not the new one
            (deltas can invalidate earlier matches).
    """

    result: MatchingResult
    mode: str
    elapsed: float
    dirty_links: int | None = None
    rescored_rounds: int = 0
    full_rounds: int = 0
    links_added: int = 0
    links_removed: int = 0


@dataclass
class _ReplayStats:
    dirty_links: int = 0
    rescored_rounds: int = 0
    full_rounds: int = 0


def _row(csr: CSRGraph, dense: int) -> np.ndarray:
    """*dense*'s neighbours in *csr* as ``int64`` (none past its rows)."""
    if dense >= csr.num_nodes:
        return _EMPTY
    return csr.neighbors(dense).astype(np.int64)


def _count_subset_from_lists(
    nbrs1_of: "Callable[[int], np.ndarray]",
    nbrs2_of: "Callable[[int], np.ndarray]",
    link_l: np.ndarray,
    link_r: np.ndarray,
    eligible1: np.ndarray,
    eligible2: np.ndarray,
    n2: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Witness-count a small link subset from per-node neighbor arrays.

    The frontier twin of :func:`repro.core.kernels.count_witnesses`:
    instead of gathering neighborhoods from the current CSR, each link
    endpoint's neighbor array is supplied by a callable — which lets
    the caller serve the pre-delta adjacency of departed links.  Same
    integer counts; returns ``(packed_keys_sorted, score, emitted)``.
    """
    k = len(link_l)
    if k == 0:
        return _EMPTY, _EMPTY, 0
    arrs1 = [nbrs1_of(int(u)) for u in link_l]
    arrs2 = [nbrs2_of(int(u)) for u in link_r]
    counts1 = np.asarray([len(a) for a in arrs1], dtype=np.int64)
    counts2 = np.asarray([len(a) for a in arrs2], dtype=np.int64)
    vals1 = (
        np.concatenate(arrs1) if counts1.sum() else _EMPTY
    ).astype(np.int64, copy=False)
    vals2 = (
        np.concatenate(arrs2) if counts2.sum() else _EMPTY
    ).astype(np.int64, copy=False)
    seg1 = np.repeat(np.arange(k, dtype=np.int64), counts1)
    seg2 = np.repeat(np.arange(k, dtype=np.int64), counts2)
    keep1 = eligible1[vals1]
    vals1, seg1 = vals1[keep1], seg1[keep1]
    keep2 = eligible2[vals2]
    vals2, seg2 = vals2[keep2], seg2[keep2]
    a = np.bincount(seg1, minlength=k)
    b = np.bincount(seg2, minlength=k)
    emitted = int((a * b).sum())
    if emitted == 0:
        return _EMPTY, _EMPTY, 0
    pair_l, pair_r = _segment_cross_product(vals1, seg1, vals2, seg2, k)
    packed = pair_l * np.int64(n2) + pair_r
    keys, counts = np.unique(packed, return_counts=True)
    return keys, counts.astype(np.int64), emitted


def _apply_corrections(
    base: np.ndarray,
    score: np.ndarray,
    parts: "list[tuple[np.ndarray, np.ndarray]]",
) -> tuple[np.ndarray, np.ndarray]:
    """Fold signed corrections into a packed-key-sorted score table.

    *parts* are ``(packed_keys, signed_weights)`` arrays.  They are
    aggregated (one ``np.unique`` over the corrections only — never the
    table), then applied in a single ``searchsorted`` pass: existing
    keys are adjusted in place, new keys inserted at their sorted
    position, and zeroed rows dropped.  The output is again sorted by
    packed key, preserving the invariant the next delta relies on —
    the full table is copied but never re-sorted.
    """
    if not parts:
        return base, score
    packed_c = np.concatenate([p for p, _w in parts])
    weights = np.concatenate([w for _p, w in parts])
    keys, inverse = np.unique(packed_c, return_inverse=True)
    vals = np.bincount(
        inverse, weights=weights, minlength=len(keys)
    ).astype(np.int64)
    nonzero = vals != 0
    keys, vals = keys[nonzero], vals[nonzero]
    if len(keys) == 0:
        return base, score
    pos = np.searchsorted(base, keys)
    if len(base):
        safe = np.minimum(pos, len(base) - 1)
        in_base = (pos < len(base)) & (base[safe] == keys)
    else:
        in_base = np.zeros(len(keys), dtype=bool)
    out_score = score.copy()
    out_score[pos[in_base]] += vals[in_base]
    out_packed = base
    miss = ~in_base
    if miss.any():
        out_packed = np.insert(base, pos[miss], keys[miss])
        out_score = np.insert(out_score, pos[miss], vals[miss])
    if (vals[in_base] < 0).any():
        # Only negative adjustments can zero a row out.
        keep = out_score != 0
        out_packed, out_score = out_packed[keep], out_score[keep]
    return out_packed, out_score


class IncrementalReconciler:
    """Reconciliation that absorbs graph deltas instead of restarting.

    Parameters
    ----------
    config : MatcherConfig, optional
        Configuration for the default warm engine (the paper's
        User-Matching sweep).  The warm replay always runs on the array
        substrate; ``backend="native"`` runs its joins through the
        compiled kernels (resolved once per engine, csr fallback with a
        warning), any other backend through the scipy join.  Links and
        phases are the same either way.
    matcher : Matcher, optional
        A pre-built matcher instance.  A
        :class:`~repro.core.matcher.UserMatching` routes to the warm
        engine (its config is adopted); any other matcher gets the
        cold-replay fallback — still delta-driven and bit-identical,
        just without the dirty-set speedup.

    Examples
    --------
    >>> engine = IncrementalReconciler(MatcherConfig(threshold=2))
    ... # doctest: +SKIP
    >>> engine.start(g1, g2, seeds)                  # doctest: +SKIP
    >>> outcome = engine.apply(GraphDelta.build(
    ...     added_edges1=[(5, 9)]))                  # doctest: +SKIP
    >>> outcome.result.links                         # doctest: +SKIP
    """

    def __init__(
        self,
        config: MatcherConfig | None = None,
        *,
        matcher: object | None = None,
    ) -> None:
        if matcher is None:
            self.config = config or MatcherConfig()
            self._matcher = UserMatching(self.config)
            self.mode = "warm"
        elif isinstance(matcher, UserMatching):
            self.config = matcher.config
            self._matcher = matcher
            self.mode = "warm"
        else:
            if config is not None:
                raise ReproError(
                    "pass either config= (warm engine) or a non-default "
                    "matcher=, not both"
                )
            self.config = None
            self._matcher = matcher
            self.mode = "cold"
        self._native: "NativeKernels | None" = None
        if self.mode == "warm" and self.config.backend == "native":
            from repro.core.native import load_native_library

            self._native = load_native_library()
        self.g1: Graph | None = None
        self.g2: Graph | None = None
        self.seeds: dict[Node, Node] = {}
        self.index: DeltaIndex | None = None
        self.rounds: list[_RoundCache] = []
        self.result: MatchingResult | None = None
        self._link_l = _EMPTY
        self._link_r = _EMPTY
        self._packed_n2 = 0  # the n2 the cached tables were packed with
        self.applied_deltas = 0
        #: Caller metadata from the checkpoint this engine was resumed
        #: from (``save_checkpoint(extra_meta=...)``); ``None`` for
        #: engines built fresh.
        self.checkpoint_extra: dict | None = None

    # ------------------------------------------------------------------
    @property
    def links(self) -> dict[Node, Node]:
        """The current link mapping (empty before :meth:`start`)."""
        return {} if self.result is None else self.result.links

    def start(
        self, g1: Graph, g2: Graph, seeds: dict[Node, Node]
    ) -> MatchingResult:
        """Run the initial reconciliation and capture warm-start state.

        Parameters
        ----------
        g1, g2 : Graph
            The two networks.  The engine keeps references and mutates
            them in place as deltas arrive.
        seeds : dict
            Initial identification links (one-to-one, nodes present).

        Returns
        -------
        MatchingResult
            The cold result; also available as :attr:`result`.
        """
        if self.result is not None:
            raise ReproError(
                "engine already started; build a new one to restart"
            )
        self.g1, self.g2 = g1, g2
        self.seeds = dict(seeds)
        if self.mode == "warm":
            UserMatching._validate_seeds(g1, g2, self.seeds)
            self.index = DeltaIndex(g1, g2)
            self.result, _stats = self._replay({}, None)
        else:
            self.result = self._matcher.run(g1, g2, self.seeds)
        return self.result

    def apply(self, delta: GraphDelta) -> DeltaOutcome:
        """Absorb one delta; re-score only what it can have changed.

        Parameters
        ----------
        delta : GraphDelta
            Strict batch of edge/seed arrivals (see
            :class:`~repro.incremental.delta.GraphDelta`).

        Returns
        -------
        DeltaOutcome
            The post-delta result plus re-scoring statistics.

        Raises
        ------
        ReproError
            If the engine has not been started, or the delta is
            inconsistent with the graphs or the seeds
            (:class:`~repro.incremental.delta.DeltaError`, raised before
            anything is mutated).
        """
        if self.result is None:
            raise ReproError("call start() before apply()")
        began = time.perf_counter()
        validate_delta(self.g1, self.g2, delta, seeds=self.seeds)
        previous = self.result.links
        if delta.is_empty:
            return DeltaOutcome(
                result=self.result,
                mode="noop",
                elapsed=time.perf_counter() - began,
                dirty_links=0,
            )
        self.applied_deltas += 1
        if self.mode == "cold":
            apply_delta_to_graphs(self.g1, self.g2, delta)
            self.seeds.update(delta.added_seeds)
            self.result = self._matcher.run(self.g1, self.g2, self.seeds)
            stats = None
        else:
            snapshot = self.index.apply_delta(delta)
            self.seeds.update(delta.added_seeds)
            if self.rounds and self.index.n2 != self._packed_n2:
                # New g2 nodes widen the key space; repack the cached
                # tables ((v1, v2) lex order is n2-invariant, so the
                # arrays stay sorted).
                old_n2 = np.int64(self._packed_n2)
                new_n2 = np.int64(self.index.n2)
                for rc in self.rounds:
                    rc.packed = (
                        (rc.packed // old_n2) * new_n2
                        + rc.packed % old_n2
                    )
            cache = {rc.key: rc for rc in self.rounds}
            self.result, stats = self._replay(cache, snapshot)
        links = self.result.links
        return DeltaOutcome(
            result=self.result,
            mode=self.mode,
            elapsed=time.perf_counter() - began,
            dirty_links=None if stats is None else stats.dirty_links,
            rescored_rounds=0 if stats is None else stats.rescored_rounds,
            full_rounds=0 if stats is None else stats.full_rounds,
            links_added=sum(
                1 for k, v in links.items() if previous.get(k) != v
            ),
            links_removed=sum(
                1 for k, v in previous.items() if links.get(k) != v
            ),
        )

    # ------------------------------------------------------------------
    # The warm replay
    # ------------------------------------------------------------------
    def _join(
        self,
        link_l: np.ndarray,
        link_r: np.ndarray,
        e1: np.ndarray,
        e2: np.ndarray,
        n2: int,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Witness join over the current adjacency (any link subset).

        The batch sweep's kernel — compiled when the engine holds a
        native handle, else the scipy product — streamed in blocks
        under a memory budget.  Returns ``(packed_sorted, score,
        emitted)`` with ``int64`` keys ``v1 * n2 + v2``; the compiled
        join's rows already ascend, the scipy join's are sorted here.
        """
        scores, emitted = kernels.count_witnesses_blocked(
            self.index, link_l, link_r, e1, e2,
            self.config.memory_budget_mb, native=self._native,
        )
        packed = (
            scores.left.astype(np.int64, copy=False) * np.int64(n2)
            + scores.right
        )
        score = scores.score.astype(np.int64, copy=False)
        if len(packed) > 1 and not np.all(packed[1:] > packed[:-1]):
            order = np.argsort(packed)
            return packed[order], score[order], emitted
        return packed, score, emitted

    def _replay(
        self,
        cache: dict[tuple[int, int], _RoundCache],
        snapshot: AppliedDelta | None,
    ) -> tuple[MatchingResult, _ReplayStats]:
        """Replay the bucket sweep, patching cached rounds where possible.

        With an empty *cache* this *is* the cold run (every round does
        a full join) — start and apply share one code path, which is
        what makes the equivalence argument inductive: round ``r`` of
        a replay sees exactly the links and scores a cold run on the
        current graphs would see at round ``r``.
        """
        index = self.index
        cfg = self.config
        stats = _ReplayStats()
        n1, n2 = index.n1, index.n2
        link_l, link_r = index.intern_links(self.seeds)
        linked1 = np.zeros(n1, dtype=bool)
        linked2 = np.zeros(n2, dtype=bool)
        linked1[link_l] = True
        linked2[link_r] = True
        links: dict[Node, Node] = dict(self.seeds)
        phases: list[PhaseRecord] = []
        new_rounds: list[_RoundCache] = []
        exponents = self._matcher.bucket_exponents_index(index)
        if snapshot is not None:
            old_deg1 = self._pad(snapshot.old_deg1, n1)
            old_deg2 = self._pad(snapshot.old_deg2, n2)

            def old_nbrs1(dense: int) -> np.ndarray:
                return _row(snapshot.old_csr1, dense)

            def old_nbrs2(dense: int) -> np.ndarray:
                return _row(snapshot.old_csr2, dense)

        for iteration in range(1, cfg.iterations + 1):
            added_this_iteration = 0
            for j in exponents:
                min_degree = 1 << j
                eligible1 = ~linked1 & (index.deg1 >= min_degree)
                eligible2 = ~linked2 & (index.deg2 >= min_degree)
                cached = cache.get((iteration, j))
                table = None
                if cached is not None and snapshot is not None:
                    table = self._patch_round(
                        cached,
                        snapshot,
                        link_l,
                        link_r,
                        eligible1,
                        eligible2,
                        old_deg1,
                        old_deg2,
                        old_nbrs1,
                        old_nbrs2,
                        min_degree,
                        n2,
                        stats,
                    )
                if table is None:
                    table = self._join(
                        link_l, link_r, eligible1, eligible2, n2
                    )
                    stats.full_rounds += 1
                else:
                    stats.rescored_rounds += 1
                t_packed, t_score, emitted = table
                new_l, new_r, candidates = self._select(t_packed, t_score, n2)
                new_rounds.append(
                    _RoundCache(
                        key=(iteration, j),
                        start_l=link_l,
                        start_r=link_r,
                        packed=t_packed,
                        score=t_score,
                        emitted=emitted,
                    )
                )
                if len(new_l):
                    linked1[new_l] = True
                    linked2[new_r] = True
                    link_l = np.concatenate([link_l, new_l])
                    link_r = np.concatenate([link_r, new_r])
                    links.update(index.export_links(new_l, new_r))
                added_this_iteration += len(new_l)
                phases.append(
                    PhaseRecord(
                        iteration=iteration,
                        bucket_exponent=(
                            j if cfg.use_degree_buckets else None
                        ),
                        min_degree=min_degree,
                        candidates=candidates,
                        witnesses_emitted=emitted,
                        links_added=len(new_l),
                    )
                )
            if added_this_iteration == 0:
                break
        self.rounds = new_rounds
        self._link_l, self._link_r = link_l, link_r
        self._packed_n2 = n2
        return (
            MatchingResult(
                links=links, seeds=dict(self.seeds), phases=phases
            ),
            stats,
        )

    def _patch_round(
        self,
        cached: _RoundCache,
        snapshot: AppliedDelta,
        link_l: np.ndarray,
        link_r: np.ndarray,
        eligible1: np.ndarray,
        eligible2: np.ndarray,
        old_deg1: np.ndarray,
        old_deg2: np.ndarray,
        old_nbrs1: "Callable[[int], np.ndarray]",
        old_nbrs2: "Callable[[int], np.ndarray]",
        min_degree: int,
        n2: int,
        stats: _ReplayStats,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Patch one cached round's score table to the post-delta truth.

        Returns ``(packed_sorted, score, emitted)`` or ``None`` when a
        full join is the better plan (the dirty region rivals the whole
        round).  Exactness rests on witness counts being additive over
        links; the dirty links split into two classes with different
        correction costs:

        - **adjacency-dirty** (an endpoint gained/lost edges in this
          delta), plus links that *arrived* in or *departed* from the
          round: their whole old contribution is subtracted and their
          whole new contribution re-joined — the classic
          ``cached - W_old(dirty ∪ departed) + W_new(dirty ∪ arrived)``
          form, on what is typically a handful of links.
        - **flip-dirty** (adjacency unchanged, but some neighbor's
          eligibility bit flipped — degree crossed the bucket floor or
          match state diverged): re-joining hubs here would dwarf the
          delta, so only the *difference* is joined.  With ``A/A'`` the
          old/new eligible g1-neighborhood of the link and ``B/B'`` the
          g2 side, ``A'×B' - A×B = (A'-A)×B' + A×(B'-B)`` — four
          signed cross products whose left/right factors are the tiny
          flip sets, all computed vectorized over the whole dirty
          subset at once.

        Every other link's contribution is provably unchanged, and the
        corrections are applied to the (packed-key-sorted) cached table
        in one searchsorted/insert pass — no full-table re-sort.
        """
        index = self.index
        n1 = index.n1
        # Eligibility bits of the cached (pre-delta) round.
        linked_old1 = np.zeros(n1, dtype=bool)
        linked_old2 = np.zeros(n2, dtype=bool)
        linked_old1[cached.start_l] = True
        linked_old2[cached.start_r] = True
        e1_old = ~linked_old1 & (old_deg1 >= min_degree)
        e2_old = ~linked_old2 & (old_deg2 >= min_degree)
        flip1 = e1_old != eligible1
        flip2 = e2_old != eligible2
        nflips = int(flip1.sum()) + int(flip2.sum())
        if nflips > (n1 + n2) // 4:
            return None  # half the graph flipped: full join is cheaper
        # Dirty frontier: adjacency-changed nodes, plus anything
        # adjacent (current graph) to an eligibility flip.
        adjm1 = np.zeros(n1, dtype=bool)
        adjm2 = np.zeros(n2, dtype=bool)
        adjm1[snapshot.changed1] = True
        adjm2[snapshot.changed2] = True
        csr1, csr2 = index.csr1, index.csr2
        nbr_flip1 = np.zeros(n1, dtype=bool)
        nbr_flip2 = np.zeros(n2, dtype=bool)
        if flip1.any():
            vals, _seg = kernels.segmented_gather(
                csr1.indptr, csr1.indices, np.flatnonzero(flip1)
            )
            nbr_flip1[vals] = True
        if flip2.any():
            vals, _seg = kernels.segmented_gather(
                csr2.indptr, csr2.indices, np.flatnonzero(flip2)
            )
            nbr_flip2[vals] = True
        packed_new = link_l * np.int64(n2) + link_r
        packed_old = (cached.start_l * np.int64(n2) + cached.start_r)
        common_new = np.isin(packed_new, packed_old, assume_unique=True)
        common_old = np.isin(packed_old, packed_new, assume_unique=True)
        adj_dirty = common_new & (adjm1[link_l] | adjm2[link_r])
        flip_dirty = (
            common_new
            & ~adj_dirty
            & (nbr_flip1[link_l] | nbr_flip2[link_r])
        )
        arrived = ~common_new
        departed = ~common_old
        slow = (
            int(adj_dirty.sum())
            + int(arrived.sum())
            + int(departed.sum())
        )
        if slow >= max(16, (len(link_l) + len(cached.start_l)) // 2):
            return None  # rescoring everything: a full join is cheaper
        # Cost guard, in consistent degree-product units: arrived and
        # departed links pay their full expansion; adjacency-dirty and
        # flip-dirty links pay only neighborhood-gather work (their
        # corrections are difference joins).  A full join pays the
        # expansion of every link; patch only when the correction
        # estimate is a small fraction of that.
        deg1, deg2 = index.deg1, index.deg2
        dp_all = np.maximum(deg1[link_l], 1) * np.maximum(deg2[link_r], 1)
        full_cost = int(dp_all[arrived].sum()) + int(
            (
                np.maximum(deg1[cached.start_l[departed]], 1)
                * np.maximum(deg2[cached.start_r[departed]], 1)
            ).sum()
        )
        diff_dirty = adj_dirty | flip_dirty
        diff_cost = int(deg1[link_l[diff_dirty]].sum()) + int(
            deg2[link_r[diff_dirty]].sum()
        )
        # The adjacency class runs a per-link Python loop; charge each
        # link a fixed overhead (in witness-pair units) so rounds with
        # thousands of adjacency-dirty links fall back to the fully
        # vectorized join instead.
        adj_overhead = 1500 * int(adj_dirty.sum())
        if full_cost + 2 * diff_cost + adj_overhead > max(
            int(dp_all.sum()) // 4, 4096
        ):
            return None
        # The flip-class correction size is knowable exactly from the
        # gathered neighborhood counts before any pair is materialized;
        # bail to a full join when it rivals the round's own expansion.
        fu1 = link_l[flip_dirty]
        fu2 = link_r[flip_dirty]
        flip_state = None
        if len(fu1):
            vals1, seg1 = kernels.segmented_gather(
                csr1.indptr, csr1.indices, fu1
            )
            vals2, seg2 = kernels.segmented_gather(
                csr2.indptr, csr2.indices, fu2
            )
            vals1 = vals1.astype(np.int64)
            vals2 = vals2.astype(np.int64)
            in_a = e1_old[vals1]
            in_ap = eligible1[vals1]
            in_b = e2_old[vals2]
            in_bp = eligible2[vals2]
            k = len(fu1)
            a_cnt = np.bincount(seg1[in_a], minlength=k)
            ap_cnt = np.bincount(seg1[in_ap], minlength=k)
            b_cnt = np.bincount(seg2[in_b], minlength=k)
            bp_cnt = np.bincount(seg2[in_bp], minlength=k)
            d1p_cnt = np.bincount(seg1[in_ap & ~in_a], minlength=k)
            d1m_cnt = np.bincount(seg1[in_a & ~in_ap], minlength=k)
            d2p_cnt = np.bincount(seg2[in_bp & ~in_b], minlength=k)
            d2m_cnt = np.bincount(seg2[in_b & ~in_bp], minlength=k)
            pairs_est = int(
                (
                    (d1p_cnt + d1m_cnt) * bp_cnt
                    + a_cnt * (d2p_cnt + d2m_cnt)
                ).sum()
            )
            if pairs_est > max(cached.emitted // 2, 4096):
                return None
            flip_state = (
                vals1, seg1, vals2, seg2,
                in_a, in_ap, in_b, in_bp, k,
                int((ap_cnt * bp_cnt).sum())
                - int((a_cnt * b_cnt).sum()),
            )
        stats.dirty_links += slow + int(flip_dirty.sum())
        parts: list[tuple[np.ndarray, np.ndarray]] = []
        emitted = cached.emitted
        # Full out/in corrections for links leaving/entering the round.
        sub_packed, sub_score, sub_emitted = _count_subset_from_lists(
            old_nbrs1,
            old_nbrs2,
            cached.start_l[departed],
            cached.start_r[departed],
            e1_old,
            e2_old,
            n2,
        )
        if len(sub_packed):
            parts.append((sub_packed, -sub_score))
        emitted -= sub_emitted
        add_packed, add_score, add_emitted = self._join(
            link_l[arrived],
            link_r[arrived],
            eligible1,
            eligible2,
            n2,
        )
        if len(add_packed):
            parts.append((add_packed, add_score))
        emitted += add_emitted
        # Per-link difference joins for adjacency-dirty links (their
        # neighbor *sets* changed, so the vectorized same-array flip
        # path below does not apply; the loop is bounded by the delta's
        # edge count).
        emitted += self._adjacency_difference_parts(
            link_l[adj_dirty],
            link_r[adj_dirty],
            old_nbrs1,
            old_nbrs2,
            e1_old,
            e2_old,
            eligible1,
            eligible2,
            n2,
            parts,
        )
        # Vectorized difference joins for the flip class.
        if flip_state is not None:
            (
                vals1, seg1, vals2, seg2,
                in_a, in_ap, in_b, in_bp, k, emitted_delta,
            ) = flip_state
            emitted += emitted_delta
            for mask_l, mask_r, sign in (
                (in_ap & ~in_a, in_bp, 1),   # (A' - A)+ x B'
                (in_a & ~in_ap, in_bp, -1),  # (A' - A)- x B'
                (in_a, in_bp & ~in_b, 1),    # A x (B' - B)+
                (in_a, in_b & ~in_bp, -1),   # A x (B' - B)-
            ):
                pl, pr = _segment_cross_product(
                    vals1[mask_l], seg1[mask_l],
                    vals2[mask_r], seg2[mask_r], k,
                )
                if len(pl):
                    parts.append(
                        (
                            pl * np.int64(n2) + pr,
                            np.full(len(pl), sign, dtype=np.int64),
                        )
                    )
        out_packed, out_score = _apply_corrections(
            cached.packed, cached.score, parts
        )
        return out_packed, out_score, emitted

    def _adjacency_difference_parts(
        self,
        adj_l: np.ndarray,
        adj_r: np.ndarray,
        old_nbrs1: "Callable[[int], np.ndarray]",
        old_nbrs2: "Callable[[int], np.ndarray]",
        e1_old: np.ndarray,
        e2_old: np.ndarray,
        eligible1: np.ndarray,
        eligible2: np.ndarray,
        n2: int,
        parts: "list[tuple[np.ndarray, np.ndarray]]",
    ) -> int:
        """Difference-join corrections for adjacency-dirty links.

        For a link whose endpoint gained or lost edges, with ``A``/``A'``
        its old/new eligible g1-neighborhood and ``B``/``B'`` the g2
        side, the score change is ``(A'-A) x B' + A x (B'-B)`` — the
        set differences are at most the delta's edge count plus a few
        eligibility flips, so a hub gaining one edge costs ``O(deg)``
        instead of the ``O(deg^2)`` of re-joining it outright.  Signed
        pair parts are appended to *parts*; returns the round's
        emitted-count change.
        """
        index = self.index
        emitted_delta = 0
        n2_ = np.int64(n2)
        # Scratch membership masks make each set difference two fancy
        # writes and one read — no per-link sort or allocation (the
        # loop runs once per adjacency-dirty link per round).
        scratch1 = np.zeros(index.n1, dtype=bool)
        scratch2 = np.zeros(n2, dtype=bool)
        for u1, u2 in zip(adj_l.tolist(), adj_r.tolist()):
            old1 = old_nbrs1(u1)
            cur1 = _row(index.csr1, u1)
            old2 = old_nbrs2(u2)
            cur2 = _row(index.csr2, u2)
            a = old1[e1_old[old1]]
            ap = cur1[eligible1[cur1]]
            b = old2[e2_old[old2]]
            bp = cur2[eligible2[cur2]]
            emitted_delta += len(ap) * len(bp) - len(a) * len(b)
            scratch1[a] = True
            d1p = ap[~scratch1[ap]]
            scratch1[a] = False
            scratch1[ap] = True
            d1m = a[~scratch1[a]]
            scratch1[ap] = False
            scratch2[b] = True
            d2p = bp[~scratch2[bp]]
            scratch2[b] = False
            scratch2[bp] = True
            d2m = b[~scratch2[b]]
            scratch2[bp] = False
            for lvals, rvals, sign in (
                (d1p, bp, 1),
                (d1m, bp, -1),
                (a, d2p, 1),
                (a, d2m, -1),
            ):
                if len(lvals) and len(rvals):
                    packed = (
                        np.repeat(lvals, len(rvals)) * n2_
                        + np.tile(rvals, len(lvals))
                    )
                    parts.append(
                        (
                            packed,
                            np.full(len(packed), sign, dtype=np.int64),
                        )
                    )
        return emitted_delta

    def _select(
        self,
        t_packed: np.ndarray,
        t_score: np.ndarray,
        n2: int,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Mutual-best selection under *canonical* tie-break order.

        The threshold filter runs first so only qualifying rows are
        unpacked; those ids are then mapped through the index's rank
        permutations, selected with the stock kernel, and mapped back.
        Appended nodes break the base invariant "dense id order ==
        canonical order" — the rank detour reproduces exactly the
        tie-breaks of a cold run's canonical interning.
        """
        index = self.index
        cfg = self.config
        mask = t_score >= cfg.threshold
        sel_packed = t_packed[mask]
        sel_score = t_score[mask]
        candidates = len(sel_score)
        if candidates == 0:
            return _EMPTY, _EMPTY, 0
        scores = ArrayScores(
            index,
            index.rank1[sel_packed // np.int64(n2)],
            index.rank2[sel_packed % np.int64(n2)],
            sel_score,
        )
        rank_l, rank_r, _cand = kernels.select_mutual_best_arrays(
            scores, cfg.threshold, cfg.tie_policy
        )
        return (
            index.unrank1[rank_l],
            index.unrank2[rank_r],
            candidates,
        )

    @staticmethod
    def _pad(arr: np.ndarray, n: int) -> np.ndarray:
        """Zero-pad a pre-delta per-node array to the current width."""
        if len(arr) >= n:
            return arr
        return np.concatenate([arr, np.zeros(n - len(arr), dtype=arr.dtype)])

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def require_config(self, config: MatcherConfig) -> None:
        """Raise unless *config* is algorithmically compatible.

        Execution knobs (backend, workers, memory budget, checkpoint
        plumbing) are free to differ; the fields that change the output
        must match the checkpointed run.
        """
        if self.config is None:
            raise ReproError(
                "cold-replay engines carry no MatcherConfig to compare"
            )
        for name in _ALGORITHMIC_FIELDS:
            ours = getattr(self.config, name)
            theirs = getattr(config, name)
            if ours != theirs:
                raise ReproError(
                    f"checkpoint was built with {name}={ours!r}; "
                    f"cannot warm-start a run with {name}={theirs!r}"
                )

    def save_checkpoint(
        self, path: "str | Path", *, extra_meta: dict | None = None
    ) -> None:
        """Persist the engine so another process can :meth:`resume`.

        Parameters
        ----------
        path : str or Path
            Checkpoint file (npz); written atomically.
        extra_meta : dict, optional
            Caller metadata stored under ``meta["extra"]`` (e.g. how
            many stream batches were already applied).

        Raises
        ------
        ReproError
            If the engine was never started or runs in cold-replay
            mode (black-box matchers carry un-persistable state).
        """
        from repro.core.links_io import save_checkpoint

        if self.result is None:
            raise ReproError("nothing to checkpoint: call start() first")
        if self.mode != "warm":
            raise ReproError(
                "checkpointing requires the warm engine "
                "(UserMatching); black-box matchers cannot be resumed"
            )
        index = self.index
        nodes1 = [index.node1(d) for d in range(index.n1)]
        nodes2 = [index.node2(d) for d in range(index.n2)]
        dense1, dense2 = index.dense1, index.dense2
        e1u, e1v, e2u, e2v = [], [], [], []
        for u, v in self.g1.edges():
            e1u.append(dense1(u))
            e1v.append(dense1(v))
        for u, v in self.g2.edges():
            e2u.append(dense2(u))
            e2v.append(dense2(v))
        seeds_l, seeds_r = index.intern_links(self.seeds)
        nodes1_arr = np.empty(len(nodes1), dtype=object)
        nodes1_arr[:] = nodes1
        nodes2_arr = np.empty(len(nodes2), dtype=object)
        nodes2_arr[:] = nodes2
        arrays: dict[str, np.ndarray] = {
            "nodes1": nodes1_arr,
            "nodes2": nodes2_arr,
            "edges1_u": np.asarray(e1u, dtype=np.int64),
            "edges1_v": np.asarray(e1v, dtype=np.int64),
            "edges2_u": np.asarray(e2u, dtype=np.int64),
            "edges2_v": np.asarray(e2v, dtype=np.int64),
            "seeds_l": seeds_l,
            "seeds_r": seeds_r,
            "links_l": self._link_l,
            "links_r": self._link_r,
        }
        rounds_meta = []
        for i, rc in enumerate(self.rounds):
            arrays[f"round{i}_start_l"] = rc.start_l
            arrays[f"round{i}_start_r"] = rc.start_r
            arrays[f"round{i}_packed"] = rc.packed
            arrays[f"round{i}_score"] = rc.score
            rounds_meta.append(
                {
                    "iteration": rc.key[0],
                    "bucket_exponent": rc.key[1],
                    "emitted": rc.emitted,
                }
            )
        import dataclasses as _dc

        cfg = self.config
        meta = {
            "version": 1,
            "mode": "warm",
            "rounds": rounds_meta,
            "phases": [
                _dc.asdict(phase) for phase in self.result.phases
            ],
            "packed_n2": self._packed_n2,
            "applied_deltas": self.applied_deltas,
            "config": {
                "threshold": cfg.threshold,
                "iterations": cfg.iterations,
                "max_degree": cfg.max_degree,
                "use_degree_buckets": cfg.use_degree_buckets,
                "min_bucket_exponent": cfg.min_bucket_exponent,
                "tie_policy": cfg.tie_policy.value,
                "backend": cfg.backend,
                "workers": cfg.workers,
                "memory_budget_mb": cfg.memory_budget_mb,
            },
            "extra": extra_meta or {},
        }
        save_checkpoint(path, arrays, meta)

    @classmethod
    def resume(cls, path: "str | Path") -> "IncrementalReconciler":
        """Rebuild a warm engine from a checkpoint file.

        The resumed engine owns freshly reconstructed graphs (the
        caller's originals are never touched) and is immediately ready
        for :meth:`apply`; :attr:`result` carries the checkpointed
        links and per-round phase history.

        Raises
        ------
        ReproError
            If the checkpoint is missing, truncated, or from an
            incompatible version.
        """
        from repro.core.links_io import load_checkpoint

        arrays, meta = load_checkpoint(path)
        if meta.get("version") != 1 or meta.get("mode") != "warm":
            raise ReproError(
                f"unsupported checkpoint (version={meta.get('version')!r},"
                f" mode={meta.get('mode')!r})"
            )
        cfg_meta = meta["config"]
        config = MatcherConfig(
            threshold=cfg_meta["threshold"],
            iterations=cfg_meta["iterations"],
            max_degree=cfg_meta["max_degree"],
            use_degree_buckets=cfg_meta["use_degree_buckets"],
            min_bucket_exponent=cfg_meta["min_bucket_exponent"],
            tie_policy=TiePolicy(cfg_meta["tie_policy"]),
            backend=cfg_meta.get("backend", "csr"),
            workers=cfg_meta.get("workers", 1),
            memory_budget_mb=cfg_meta.get("memory_budget_mb"),
        )
        nodes1 = list(arrays["nodes1"])
        nodes2 = list(arrays["nodes2"])
        g1, g2 = Graph(), Graph()
        for node in nodes1:
            g1.add_node(node)
        for node in nodes2:
            g2.add_node(node)
        for u, v in zip(
            arrays["edges1_u"].tolist(), arrays["edges1_v"].tolist()
        ):
            g1.add_edge(nodes1[u], nodes1[v])
        for u, v in zip(
            arrays["edges2_u"].tolist(), arrays["edges2_v"].tolist()
        ):
            g2.add_edge(nodes2[u], nodes2[v])
        engine = cls(config)
        engine.g1, engine.g2 = g1, g2
        engine.index = DeltaIndex(g1, g2, order1=nodes1, order2=nodes2)
        engine.seeds = {
            nodes1[l]: nodes2[r]
            for l, r in zip(
                arrays["seeds_l"].tolist(), arrays["seeds_r"].tolist()
            )
        }
        engine._link_l = arrays["links_l"]
        engine._link_r = arrays["links_r"]
        engine.rounds = [
            _RoundCache(
                key=(rm["iteration"], rm["bucket_exponent"]),
                start_l=arrays[f"round{i}_start_l"],
                start_r=arrays[f"round{i}_start_r"],
                packed=arrays[f"round{i}_packed"],
                score=arrays[f"round{i}_score"],
                emitted=rm["emitted"],
            )
            for i, rm in enumerate(meta["rounds"])
        ]
        engine._packed_n2 = meta.get("packed_n2", engine.index.n2)
        engine.applied_deltas = meta.get("applied_deltas", 0)
        engine.checkpoint_extra = meta.get("extra") or {}
        engine.result = MatchingResult(
            links=engine.index.export_links(
                engine._link_l, engine._link_r
            ),
            seeds=dict(engine.seeds),
            phases=[
                PhaseRecord(**phase)
                for phase in meta.get("phases", [])
            ],
        )
        return engine

    def __repr__(self) -> str:
        started = self.result is not None
        return (
            f"IncrementalReconciler(mode={self.mode!r}, "
            f"started={started}, deltas={self.applied_deltas}, "
            f"links={len(self.links)})"
        )
