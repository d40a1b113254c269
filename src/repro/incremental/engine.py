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
  one signed difference join, ``A'×B' − A×B``, over the **dirty links**
  (links whose witness neighborhoods intersect the delta, found from
  the CSR join frontier) and the links that left the round, plus the
  full join of the links that entered it.  Witness counts are additive
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
from typing import TYPE_CHECKING, Hashable

import numpy as np

from repro.core import kernels
from repro.core.config import BACKENDS, MatcherConfig, TiePolicy
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
    # restriction is lifted.
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


def _eligible_rows(
    csr: CSRGraph, targets: np.ndarray, eligible: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each target row's eligible neighbours as ``(values, segments)``.

    Grouped by ascending segment (position in *targets*), each row's
    values ascending — the CSR's own order, which the filter keeps.
    """
    vals, seg = kernels.segmented_gather(csr.indptr, csr.indices, targets)
    vals = vals.astype(np.int64, copy=False)
    keep = eligible[vals]
    return vals[keep], seg[keep]


def _absent(keys: np.ndarray, sorted_ref: np.ndarray) -> np.ndarray:
    """Mask of the *keys* that do not occur in ascending *sorted_ref*."""
    if len(sorted_ref) == 0:
        return np.ones(len(keys), dtype=bool)
    pos = np.searchsorted(sorted_ref, keys)
    np.minimum(pos, len(sorted_ref) - 1, out=pos)
    return sorted_ref[pos] != keys


def _cross_size(left_seg: np.ndarray, right_seg: np.ndarray, k: int) -> int:
    """Pairs :func:`_segment_cross_product` emits over *k* segments."""
    return int(
        (
            np.bincount(left_seg, minlength=k)
            * np.bincount(right_seg, minlength=k)
        ).sum()
    )


def _difference_join(
    snapshot: AppliedDelta,
    index: DeltaIndex,
    link_l: np.ndarray,
    link_r: np.ndarray,
    kept: int,
    old_eligible: tuple[np.ndarray, np.ndarray],
    new_eligible: tuple[np.ndarray, np.ndarray],
    budget: int,
) -> "tuple[list[tuple[np.ndarray, np.ndarray]], int] | None":
    """Signed score corrections ``A'×B' − A×B`` for a set of links.

    For link ``i``, ``A``/``B`` are its endpoints' eligible neighbours
    before the delta (the old CSR under the old eligibility bits) and
    ``A'``/``B'`` after it (the current CSR under the current bits).
    The first *kept* links are still in the round; the rest departed
    from it and have empty ``A'``/``B'``.  Since

        A'×B' − A×B = (A'−A)×B' − (A−A')×B' + A×(B'−B) − A×(B−B'),

    every correction is four signed cross products whose difference
    factors are usually tiny: a hub gaining one edge, or a neighbour
    crossing the bucket floor, costs ``O(deg)`` instead of ``O(deg²)``,
    and a departed link pays exactly its old expansion ``A×B``.  The
    set differences are membership tests on packed ``(segment, node)``
    keys, which ascend already, so one ``searchsorted`` per side does
    them — no per-link loop and no sort.

    Returns ``(parts, emitted_change)`` — signed ``(packed_keys,
    weights)`` parts for :func:`_apply_corrections` and the change in
    the round's witness-pair expansion — or ``None``, before any pair
    is materialized, when the cross products would exceed *budget*
    pairs.
    """
    k = len(link_l)
    n1, n2 = index.n1, np.int64(index.n2)
    a, a_seg = _eligible_rows(snapshot.old_csr1, link_l, old_eligible[0])
    b, b_seg = _eligible_rows(snapshot.old_csr2, link_r, old_eligible[1])
    ap, ap_seg = _eligible_rows(index.csr1, link_l[:kept], new_eligible[0])
    bp, bp_seg = _eligible_rows(index.csr2, link_r[:kept], new_eligible[1])
    a_key, ap_key = a_seg * n1 + a, ap_seg * n1 + ap
    b_key, bp_key = b_seg * n2 + b, bp_seg * n2 + bp
    gain1, lose1 = _absent(ap_key, a_key), _absent(a_key, ap_key)
    gain2, lose2 = _absent(bp_key, b_key), _absent(b_key, bp_key)
    terms = (
        (ap[gain1], ap_seg[gain1], bp, bp_seg, 1),   # (A' - A) x B'
        (a[lose1], a_seg[lose1], bp, bp_seg, -1),    # (A - A') x B'
        (a, a_seg, bp[gain2], bp_seg[gain2], 1),     # A x (B' - B)
        (a, a_seg, b[lose2], b_seg[lose2], -1),      # A x (B - B')
    )
    if int(
        sum(_cross_size(lseg, rseg, k) for _l, lseg, _r, rseg, _s in terms)
    ) > budget:
        return None
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    for lvals, lseg, rvals, rseg, sign in terms:
        pl, pr = _segment_cross_product(lvals, lseg, rvals, rseg, k)
        if len(pl):
            parts.append((pl * n2 + pr, np.full(len(pl), sign, np.int64)))
    emitted_change = _cross_size(ap_seg, bp_seg, k) - _cross_size(
        a_seg, b_seg, k
    )
    return parts, emitted_change


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


def _upper_edges(csr: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """Every edge of *csr* once, as dense ``(row, col)`` with ``row < col``.

    The upper triangle of the adjacency, rows ascending and each row's
    columns ascending, as ``int64`` — no Python per edge.
    """
    rows = np.repeat(np.arange(csr.num_nodes), np.diff(csr.indptr))
    cols = csr.indices.astype(np.int64)
    upper = rows < cols
    return rows[upper], cols[upper]


def _id_pair(
    arrays: dict[str, np.ndarray],
    left: str,
    right: str,
    n_left: int,
    n_right: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Checkpoint arrays *left*/*right* as dense ids, range-checked.

    Checkpoints cross process (and replica) boundaries, so their ids
    are untrusted: a negative id would silently index the wrong node.

    Raises:
        ReproError: if either array is missing, not integer, of unequal
            length, or holds an id outside ``[0, n_left)`` /
            ``[0, n_right)``.
    """
    out: list[np.ndarray] = []
    for name, n in ((left, n_left), (right, n_right)):
        ids = arrays.get(name)
        if ids is None or ids.ndim != 1 or ids.dtype.kind not in "iu":
            raise ReproError(f"checkpoint lacks integer array {name!r}")
        if len(ids) and (int(ids.min()) < 0 or int(ids.max()) >= n):
            raise ReproError(
                f"checkpoint array {name!r} holds ids outside [0, {n})"
            )
        out.append(ids.astype(np.int64, copy=False))
    if len(out[0]) != len(out[1]):
        raise ReproError(
            f"checkpoint arrays {left!r} and {right!r} differ in length"
        )
    return out[0], out[1]


class IncrementalReconciler:
    """Reconciliation that absorbs graph deltas instead of restarting.

    Parameters
    ----------
    config : MatcherConfig, optional
        Configuration for the default warm engine (the paper's
        User-Matching sweep).  The warm replay always runs on the array
        substrate; ``backend="native"`` runs its joins through the
        compiled kernels (resolved once per engine, csr fallback with a
        warning), ``"csr"`` through the scipy join.  Links and phases
        are the same either way.
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
        native handle, else the scipy product.  Returns
        ``(packed_sorted, score, emitted)`` with ``int64`` keys
        ``v1 * n2 + v2``; the compiled join's rows already ascend, the
        scipy join's are sorted here.
        """
        scores, emitted = kernels.count_witnesses(
            self.index, link_l, link_r, e1, e2, native=self._native
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
        min_degree: int,
        n2: int,
        stats: _ReplayStats,
    ) -> tuple[np.ndarray, np.ndarray, int] | None:
        """Patch one cached round's score table to the post-delta truth.

        Returns ``(packed_sorted, score, emitted)`` or ``None`` when a
        full join is the better plan.  Exactness rests on witness counts
        being additive over links.  Three kinds of link need a
        correction; every other link's contribution is provably
        unchanged:

        - **dirty** links, in the round before and after the delta, whose
          endpoint's adjacency changed or has a neighbour whose
          eligibility bit flipped (its degree crossed the bucket floor,
          or its match state diverged);
        - **departed** links, in the cached round but not this one;
        - **arrived** links, in this round but not the cached one.

        Dirty and departed links go through one signed difference join,
        :func:`_difference_join`; arrived links through the sweep's own
        join.  One guard picks the plan: patch unless the exact
        correction size — the difference join's cross products plus
        the arrived links' expansion, both read off per-link eligible
        neighbor counts — exceeds half the round's cached expansion
        (or 4096 pairs, whichever is larger).  The
        corrections are applied to the packed-key-sorted cached table
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
            return None  # a quarter of the graph flipped: join in full
        # Dirty frontier: adjacency-changed nodes, plus anything
        # adjacent (current graph) to an eligibility flip.
        touched1 = np.zeros(n1, dtype=bool)
        touched2 = np.zeros(n2, dtype=bool)
        for touched, csr, flip, changed in (
            (touched1, index.csr1, flip1, snapshot.changed1),
            (touched2, index.csr2, flip2, snapshot.changed2),
        ):
            touched[changed] = True
            nbrs, _seg = kernels.segmented_gather(
                csr.indptr, csr.indices, np.flatnonzero(flip)
            )
            touched[nbrs] = True
        packed_new = link_l * np.int64(n2) + link_r
        packed_old = cached.start_l * np.int64(n2) + cached.start_r
        common_new = np.isin(packed_new, packed_old, assume_unique=True)
        departed = ~np.isin(packed_old, packed_new, assume_unique=True)
        dirty = common_new & (touched1[link_l] | touched2[link_r])
        arrived_l, arrived_r = link_l[~common_new], link_r[~common_new]
        # The arrived links' exact expansion: raw degree products
        # overshoot it by orders of magnitude at high bucket floors.
        _v, seg1 = _eligible_rows(index.csr1, arrived_l, eligible1)
        _v, seg2 = _eligible_rows(index.csr2, arrived_r, eligible2)
        arrived_cost = _cross_size(seg1, seg2, len(arrived_l))
        diff_l = np.concatenate([link_l[dirty], cached.start_l[departed]])
        diff_r = np.concatenate([link_r[dirty], cached.start_r[departed]])
        diff = _difference_join(
            snapshot,
            index,
            diff_l,
            diff_r,
            int(dirty.sum()),
            (e1_old, e2_old),
            (eligible1, eligible2),
            max(cached.emitted // 2, 4096) - arrived_cost,
        )
        if diff is None:
            return None
        parts, emitted_change = diff
        add_packed, add_score, add_emitted = self._join(
            arrived_l, arrived_r, eligible1, eligible2, n2
        )
        if len(add_packed):
            parts.append((add_packed, add_score))
        stats.dirty_links += len(diff_l) + len(arrived_l)
        out_packed, out_score = _apply_corrections(
            cached.packed, cached.score, parts
        )
        return out_packed, out_score, (
            cached.emitted + emitted_change + add_emitted
        )

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

        Execution knobs (backend, checkpoint plumbing) are free to
        differ; the fields that change the output must match the
        checkpointed run.
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

        The file is plain numeric arrays, uncompressed, no pickles.
        Each graph's edges are the upper triangle of the index's CSR
        arrays in dense ids, so the write walks no Python per edge;
        node ids are stored by
        :func:`~repro.core.links_io.encode_node_ids`.  The write is
        synchronous, atomic and fsynced, and stamps the format version
        (:func:`~repro.core.links_io.save_checkpoint`).

        Parameters
        ----------
        path : str or Path
            Checkpoint file (npz).
        extra_meta : dict, optional
            Caller metadata stored under ``meta["extra"]`` (e.g. how
            many stream batches were already applied).

        Raises
        ------
        ReproError
            If the engine was never started, runs in cold-replay mode
            (black-box matchers carry un-persistable state), or has a
            node id that is neither an ``int`` nor a ``str``.
        """
        from repro.core.links_io import encode_node_ids, save_checkpoint

        if self.result is None:
            raise ReproError("nothing to checkpoint: call start() first")
        if self.mode != "warm":
            raise ReproError(
                "checkpointing requires the warm engine "
                "(UserMatching); black-box matchers cannot be resumed"
            )
        index = self.index
        edges1_u, edges1_v = _upper_edges(index.csr1)
        edges2_u, edges2_v = _upper_edges(index.csr2)
        seeds_l, seeds_r = index.intern_links(self.seeds)
        arrays: dict[str, np.ndarray] = {
            "nodes1": encode_node_ids(index.csr1.node_ids),
            "nodes2": encode_node_ids(index.csr2.node_ids),
            "edges1_u": edges1_u,
            "edges1_v": edges1_v,
            "edges2_u": edges2_u,
            "edges2_v": edges2_v,
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
            If the checkpoint is missing, truncated, pickled, of
            another format version (version-1 files must be rewritten),
            records a backend that no longer exists, or holds a dense id
            out of range.
        """
        from repro.core.links_io import decode_node_ids, load_checkpoint

        arrays, meta = load_checkpoint(path)
        if meta.get("mode") != "warm":
            raise ReproError(
                f"unsupported checkpoint (mode={meta.get('mode')!r})"
            )
        cfg_meta = meta["config"]
        backend = cfg_meta.get("backend", "csr")
        if backend not in BACKENDS:
            # Never resume silently on another backend: the caller must
            # choose one and rebuild the state from a cold start.
            raise ReproError(
                f"checkpoint {str(path)!r} records backend {backend!r}, "
                f"which is not one of {BACKENDS}; start a fresh engine "
                "to rewrite it"
            )
        config = MatcherConfig(
            threshold=cfg_meta["threshold"],
            iterations=cfg_meta["iterations"],
            max_degree=cfg_meta["max_degree"],
            use_degree_buckets=cfg_meta["use_degree_buckets"],
            min_bucket_exponent=cfg_meta["min_bucket_exponent"],
            tie_policy=TiePolicy(cfg_meta["tie_policy"]),
            backend=backend,
        )
        nodes1 = decode_node_ids(arrays["nodes1"])
        nodes2 = decode_node_ids(arrays["nodes2"])
        n1, n2 = len(nodes1), len(nodes2)
        g1 = Graph.from_dense_edges(
            nodes1,
            *_id_pair(arrays, "edges1_u", "edges1_v", n1, n1),
            first=np.arange(n1),
        )
        g2 = Graph.from_dense_edges(
            nodes2,
            *_id_pair(arrays, "edges2_u", "edges2_v", n2, n2),
            first=np.arange(n2),
        )
        engine = cls(config)
        engine.g1, engine.g2 = g1, g2
        engine.index = DeltaIndex(g1, g2, order1=nodes1, order2=nodes2)
        seeds_l, seeds_r = _id_pair(arrays, "seeds_l", "seeds_r", n1, n2)
        engine.seeds = {
            nodes1[l]: nodes2[r]
            for l, r in zip(seeds_l.tolist(), seeds_r.tolist())
        }
        engine._link_l, engine._link_r = _id_pair(
            arrays, "links_l", "links_r", n1, n2
        )
        for i, rm in enumerate(meta["rounds"]):
            start_l, start_r = _id_pair(
                arrays, f"round{i}_start_l", f"round{i}_start_r", n1, n2
            )
            engine.rounds.append(
                _RoundCache(
                    key=(rm["iteration"], rm["bucket_exponent"]),
                    start_l=start_l,
                    start_r=start_r,
                    packed=arrays[f"round{i}_packed"],
                    score=arrays[f"round{i}_score"],
                    emitted=rm["emitted"],
                )
            )
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
