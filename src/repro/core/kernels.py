"""Numpy array kernels for the ``backend="csr"`` execution paths.

The MapReduce formulation (:mod:`repro.mapreduce.matcher_mr`) and the
dict-level scorers of :mod:`repro.core.scoring` run the paper's dataflow
over Python dict-of-dict score tables; these kernels run the *same*
dataflow over flat ``int64`` arrays keyed by the dense node ids of a
:class:`~repro.graphs.pair_index.GraphPairIndex`:

- :func:`count_witnesses` — the witness count (Definition 1) as one
  sparse product ``B1 @ B2`` of the 0/1 link-incidence matrices, so
  duplicates are summed without ever materializing individual witness
  pairs.  The ``Σ |N1(u1) ∩ bucket| · |N2(u2) ∩ bucket|`` witness-pair
  bound of the paper's analysis is still reported as the round's work.
- :func:`select_mutual_best_arrays` / :func:`select_greedy_arrays` —
  selection over flat ``(left, right, score)`` triples.  Because interning
  is canonical (dense-id order == :func:`~repro.core.ordering.node_sort_key`
  order), every tie-break is an integer comparison and the selected links
  are identical to the dict-level selectors'.

:class:`ArrayScores` is the boundary object: scoring stages can hand it
to the named selectors in :mod:`repro.core.selectors` directly (they
dispatch on its type), and ``to_dict()`` converts back to the dict-of-dict
form for custom stages that want the old representation.

Scores here are integer witness counts, so the equivalence with the
dict-level dataflow is exact, not approximate; the property suite
asserts it link for link and phase for phase.

``backend="native"`` reuses this module end to end: every kernel accepts
an optional :class:`~repro.core.native.NativeKernels` handle (threaded
by the callers, resolved once per run) that swaps the hot inner step —
join, carried-table upkeep, selection — for its compiled twin while
keeping the same integer counts, so both backends select identical
links.  When the packed key space is bounded the sweep keeps a
:class:`CarriedWitnessTable` across rounds, so each round joins only new
links and newly eligible degree bands instead of recounting every link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Protocol

import numpy as np
from scipy import sparse

from repro.core.config import TiePolicy
from repro.core.native import check_eligibility_masks, check_min_count
from repro.graphs.pair_index import GraphPairIndex

if TYPE_CHECKING:
    from repro.core.native import NativeKernels
    from repro.graphs.communities import CommunityAssignment
    from repro.graphs.csr import CSRGraph

Node = Hashable

class WitnessCounter(Protocol):
    """One witness-count round of the sweep.

    ``(link_l, link_r, eligible1, eligible2) -> (scores, emitted)``, as
    :func:`count_witnesses`.  The counter always applies *min_count*:
    rows scoring below it are left out of *scores* (selection never
    takes them), but *emitted* is the full expansion either way.  Under
    community pruning the counter also leaves out every pair the
    assignment does not allow.
    """

    def __call__(
        self,
        link_l: np.ndarray,
        link_r: np.ndarray,
        eligible1: np.ndarray,
        eligible2: np.ndarray,
        *,
        min_count: int = 1,
    ) -> "tuple[ArrayScores, int]": ...


_EMPTY = np.empty(0, dtype=np.int64)

#: Largest dense packed-key space (``n1 * n2``) a
#: :class:`CarriedWitnessTable` will allocate: 2**22 keys = 16 MiB of
#: int32 counts, small next to any round that matters.
_SCATTER_KEYSPACE_CAP = 1 << 22


def extract_carried(
    buf: np.ndarray,
    n1: int,
    n2: int,
    eligible1: np.ndarray,
    eligible2: np.ndarray,
    threshold: int,
    *,
    native: "NativeKernels | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of a dense ``int32[n1 * n2]`` table scoring at least
    *threshold* whose row and column are both eligible.

    Returns int32 ``(left, right, score)`` columns in ascending
    packed-key order — ids as narrow as the scores (the keyspace cap
    keeps ``n1`` and ``n2`` far below ``2**31``), so native selection
    reads all three columns in place.  With a *native* handle the
    compiled scan reads only the eligible rows and columns; the numpy
    body gathers the eligible rows and filters the columns after.
    """
    rows = np.flatnonzero(eligible1)
    if native is not None:
        return native.carried_extract(
            buf, n1, n2, rows, np.flatnonzero(eligible2), threshold
        )
    block = buf.reshape(n1, n2)[rows].ravel()
    hot = np.flatnonzero(block >= threshold)
    row, right = np.divmod(hot, np.int64(n2))
    keep = eligible2[right]
    return (
        rows[row[keep]].astype(np.int32),
        right[keep].astype(np.int32),
        block[hot[keep]],
    )


class CarriedWitnessTable:
    """The array sweep's score table, carried across rounds.

    Links only grow and degrees never change, so once a pair is
    degree-eligible a link's witnesses for it never change either.  The
    sweep therefore does not recount every link every round; it folds
    into one running dense ``n1 * n2`` table only what is new:

    - links added since the last join, joined against the lowest degree
      floor covered so far;
    - when the floor drops from ``2^c`` to ``2^j``, the older links
      against just the newly eligible band — ``band1 x floor2(j)`` plus
      ``floor1(c) x band2`` (disjoint, and together exactly the pairs
      eligible at ``2^j`` but not at ``2^c``).

    Every join masks out already-linked nodes, and a node never unlinks,
    so a pair with both endpoints free has every link's witnesses in the
    table once its degree band is covered.  Each round then extracts the
    rows whose endpoints are both free and both at or above that round's
    floor — the per-round recount's table, less the rows below the
    selection threshold — which is also what keeps iteration 2 exact
    when its floor resets to the top.

    ``witnesses_emitted`` keeps the recount's meaning ``Σ a_k · b_k``
    (``a_k``/``b_k``: link ``k``'s eligible neighbors per side) without
    a join: per link and side, a histogram of free neighbors by clamped
    degree exponent gives ``a_k`` as a suffix sum, and linking a node
    only decrements the histogram rows of the links next to it.

    Every join goes through the caller's *count* (the serial
    :func:`count_witnesses`, compiled or scipy), always with every
    nonzero count: a pair's count adds up across rounds, so no join may
    drop a row below the threshold.  Community
    pruning is the counter's business too (:func:`count_witnesses`
    with ``communities=``): a pruned pair's count is 0 in every join,
    so filtering each join is the same as filtering the extracted table.

    With a *native* handle the table's upkeep is compiled as well: each
    fold is :meth:`~repro.core.native.NativeKernels.carried_fold` and
    each extraction scans only the eligible rows and columns in C
    (:func:`extract_carried`).  The numpy bodies run otherwise.
    """

    __slots__ = (
        "index",
        "_count",
        "_native",
        "_buf",
        "_floor",
        "_joined",
        "_low",
        "_col1",
        "_col2",
        "_pos1",
        "_pos2",
        "_hist1",
        "_hist2",
    )

    def __init__(
        self,
        index: GraphPairIndex,
        exponents: "list[int]",
        count: WitnessCounter,
        *,
        native: "NativeKernels | None" = None,
    ) -> None:
        self.index = index
        self._count = count
        self._native = native
        # A pair's witness count is at most the number of links, which
        # the keyspace cap bounds far below 2**31.
        self._buf = np.zeros(index.n1 * index.n2, dtype=np.int32)
        self._floor: int | None = None  # lowest min_degree joined so far
        self._joined = 0  # links [0, _joined) are folded into _buf
        top, self._low = exponents[0], exponents[-1]
        width = top - self._low + 1

        def columns(exp: np.ndarray) -> np.ndarray:
            # Histogram column of each node: its degree exponent clamped
            # to the sweep's top bucket, -1 if it is never eligible.
            col = np.minimum(exp, top) - self._low
            col[col < 0] = -1
            return col

        self._col1, self._col2 = columns(index.exp1), columns(index.exp2)
        self._pos1 = np.full(index.n1, -1, dtype=np.int64)
        self._pos2 = np.full(index.n2, -1, dtype=np.int64)
        self._hist1 = np.zeros((0, width), dtype=np.int64)
        self._hist2 = np.zeros((0, width), dtype=np.int64)

    @classmethod
    def for_index(
        cls,
        index: GraphPairIndex,
        exponents: "list[int]",
        count: WitnessCounter,
        *,
        native: "NativeKernels | None" = None,
    ) -> "CarriedWitnessTable | None":
        """A carried table for *index*, or ``None`` if the key space is
        empty or larger than the dense scatter cap.

        A ``None`` sweep recounts every link in every round.
        """
        if 0 < index.n1 * index.n2 <= _SCATTER_KEYSPACE_CAP:
            return cls(index, exponents, count, native=native)
        return None

    def round(
        self,
        link_l: np.ndarray,
        link_r: np.ndarray,
        linked1: np.ndarray,
        linked2: np.ndarray,
        exponent: int,
        threshold: int,
    ) -> tuple[ArrayScores, int]:
        """Bring the table up to date and extract one round's scores.

        *link_l*/*link_r* are all current links (the previous round's
        arrays plus any new rows appended), *linked1*/*linked2* their
        endpoint masks, and the round's floor is ``2^exponent``.
        Returns the eligible rows scoring at least *threshold* (rows
        below it can never be selected) in ascending packed-key order,
        and the recount's ``witnesses_emitted`` for the round.
        """
        index = self.index
        min_degree = 1 << exponent
        free1, free2 = ~linked1, ~linked2
        floor = self._floor
        if floor is None or min_degree < floor:
            if floor is not None and self._joined:
                old1, old2 = index.eligibility(floor)
                new1, new2 = index.eligibility(min_degree)
                old_l, old_r = link_l[: self._joined], link_r[: self._joined]
                self._fold(old_l, old_r, free1 & new1 & ~old1, free2 & new2)
                self._fold(old_l, old_r, free1 & old1, free2 & new2 & ~old2)
            self._floor = floor = min_degree
        if self._joined < len(link_l):
            floor1, floor2 = index.eligibility(floor)
            self._track(link_l, link_r, free1, free2)
            self._fold(
                link_l[self._joined :],
                link_r[self._joined :],
                free1 & floor1,
                free2 & floor2,
            )
            self._joined = len(link_l)
        column = exponent - self._low
        a = self._hist1[:, column:].sum(axis=1)
        b = self._hist2[:, column:].sum(axis=1)
        emitted = int((a * b).sum())

        floor1, floor2 = index.eligibility(min_degree)
        left, right, score = extract_carried(
            self._buf,
            index.n1,
            index.n2,
            free1 & floor1,
            free2 & floor2,
            threshold,
            native=self._native,
        )
        return (
            ArrayScores(index, left, right, score, native=self._native),
            emitted,
        )

    def _fold(
        self,
        link_l: np.ndarray,
        link_r: np.ndarray,
        eligible1: np.ndarray,
        eligible2: np.ndarray,
    ) -> None:
        """Join *links* over the masks and add the result to the table."""
        if not (len(link_l) and eligible1.any() and eligible2.any()):
            return
        scores, _ = self._count(link_l, link_r, eligible1, eligible2)
        if not scores.num_pairs:
            return
        if self._native is not None:
            self._native.carried_fold(
                self._buf,
                self.index.n1,
                self.index.n2,
                scores.left,
                scores.right,
                scores.score,
            )
        else:
            keys = scores.left.astype(np.int64) * self.index.n2 + scores.right
            # Join outputs have unique keys, so fancy-index addition is
            # exact.
            self._buf[keys] += scores.score

    def _track(
        self,
        link_l: np.ndarray,
        link_r: np.ndarray,
        free1: np.ndarray,
        free2: np.ndarray,
    ) -> None:
        """Update the eligible-neighbor histograms for the new links."""
        index = self.index
        start = self._joined
        new = np.arange(start, len(link_l), dtype=np.int64)
        self._hist1 = _track_side(
            index.csr1,
            self._hist1,
            self._pos1,
            self._col1,
            link_l[start:],
            new,
            free1,
        )
        self._hist2 = _track_side(
            index.csr2,
            self._hist2,
            self._pos2,
            self._col2,
            link_r[start:],
            new,
            free2,
        )


def _track_side(
    csr: "CSRGraph",
    hist: np.ndarray,
    pos: np.ndarray,
    col: np.ndarray,
    nodes: np.ndarray,
    positions: np.ndarray,
    free: np.ndarray,
) -> np.ndarray:
    """One side of :meth:`CarriedWitnessTable._track`.

    *nodes* just became linked: each older link next to one loses that
    free neighbor from its histogram row, then the new links' rows —
    their free neighbors counted by column — are appended.
    """
    nbr, seg = segmented_gather(csr.indptr, csr.indices, nodes)
    owner = pos[nbr]
    lost = col[nodes][seg]
    hit = (owner >= 0) & (lost >= 0)
    np.subtract.at(hist, (owner[hit], lost[hit]), 1)
    pos[nodes] = positions
    width = hist.shape[1]
    got = col[nbr]
    hit = free[nbr] & (got >= 0)
    rows = np.bincount(
        seg[hit] * width + got[hit], minlength=len(nodes) * width
    ).reshape(len(nodes), width)
    return np.concatenate([hist, rows])


def segmented_gather(
    indptr: np.ndarray, indices: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR neighbor slices of *targets*.

    Returns ``(values, segments)`` where ``values`` is the concatenation
    of each target's neighbor list and ``segments[i]`` is the position in
    *targets* that ``values[i]`` came from.
    """
    starts = indptr[targets]
    counts = indptr[targets + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, _EMPTY
    offsets = np.zeros(len(targets), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    flat = np.arange(total, dtype=np.int64) + np.repeat(
        starts - offsets, counts
    )
    segments = np.repeat(np.arange(len(targets), dtype=np.int64), counts)
    return indices[flat], segments


def _segment_cross_product(
    left_vals: np.ndarray,
    left_seg: np.ndarray,
    right_vals: np.ndarray,
    right_seg: np.ndarray,
    num_segments: int,
) -> tuple[np.ndarray, np.ndarray]:
    """All within-segment pairs of two segment-grouped value arrays.

    Both inputs must be grouped by ascending segment id (the output
    order of :func:`segmented_gather`).  Returns the pair endpoints as
    two parallel arrays of total length ``Σ a_i · b_i``.  The expansion
    is pure repeat/cumsum arithmetic — each left element becomes a
    block of its segment's right list — avoiding per-pair integer
    division.
    """
    b = np.bincount(right_seg, minlength=num_segments).astype(np.int64)
    right_off = np.zeros(num_segments, dtype=np.int64)
    np.cumsum(b[:-1], out=right_off[1:])
    b_per_left = b[left_seg]
    total = int(b_per_left.sum())
    if total == 0:
        return _EMPTY, _EMPTY
    left_out = np.repeat(left_vals, b_per_left)
    blocks = len(left_vals)
    block_starts = np.zeros(blocks, dtype=np.int64)
    np.cumsum(b_per_left[:-1], out=block_starts[1:])
    block_of_pair = np.repeat(np.arange(blocks, dtype=np.int64), b_per_left)
    offset_in_block = (
        np.arange(total, dtype=np.int64) - block_starts[block_of_pair]
    )
    right_out = right_vals[
        right_off[left_seg[block_of_pair]] + offset_in_block
    ]
    return left_out, right_out


@dataclass(frozen=True)
class ArrayScores:
    """Flat similarity-score table over dense node ids.

    The array twin of the dict-level ``scores[v1][v2]`` table: row
    ``i`` says candidate pair ``(left[i], right[i])`` has ``score[i]``
    witnesses.  Pairs are unique and every score is at least the
    producer's floor: ``min_count`` for :func:`count_witnesses` (1,
    every witnessed pair, by default), the selection threshold for the
    sweep's carried table and its serial recount.

    Attributes:
        index: the interning that defines the dense id spaces.
        left: ``int64[k]`` dense g1 ids (``int32[k]`` from the compiled
            join when every node id fits, and from the carried table —
            consumers pack keys against strong ``np.int64`` scalars, so
            values, not dtypes, define the table).
        right: dense g2 ids, same dtype story as ``left``.
        score: witness counts, same dtype story as ``left``.
        native: compiled-kernel handle when the table was produced by
            ``backend="native"``; the named selectors read it to run
            selection natively too.  Pure execution metadata — never
            part of the table's value.
    """

    index: GraphPairIndex
    left: np.ndarray
    right: np.ndarray
    score: np.ndarray
    native: "NativeKernels | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def num_pairs(self) -> int:
        """Number of scored candidate pairs."""
        return len(self.score)

    def total_score(self) -> int:
        """Sum of all pair scores (== witness pairs represented)."""
        return int(self.score.sum()) if len(self.score) else 0

    def to_dict(self) -> dict[Node, dict[Node, int]]:
        """The dict-of-dict ``scores[v1][v2]`` view over original ids."""
        ids1 = self.index.csr1.node_ids
        ids2 = self.index.csr2.node_ids
        out: dict[Node, dict[Node, int]] = {}
        for v1, v2, sc in zip(
            self.left.tolist(), self.right.tolist(), self.score.tolist()
        ):
            out.setdefault(ids1[v1], {})[ids2[v2]] = sc
        return out


def count_witnesses(
    index: GraphPairIndex,
    link_left: np.ndarray,
    link_right: np.ndarray,
    eligible1: np.ndarray,
    eligible2: np.ndarray,
    *,
    native: "NativeKernels | None" = None,
    min_count: int = 1,
    communities: "CommunityAssignment | None" = None,
) -> tuple[ArrayScores, int]:
    """Count similarity witnesses for all eligible candidate pairs.

    The CSR-join form of
    :func:`repro.core.scoring.count_similarity_witnesses`: for every link
    ``(u1, u2)`` the *eligible* neighbors of ``u1`` pair with the
    eligible neighbors of ``u2``, one witness per co-occurrence.

    Two interchangeable implementations sit behind this signature; both
    produce identical integer counts (pair *order* within the result is
    unspecified):

    - compiled C (when a :mod:`repro.core.native` handle is passed):
      walks the CSR neighbor lists row-major, scattering each
      candidate's eligibility-filtered link rows into a dense count row
      with a touched-column bitmap — neither the cross product nor any
      sort ever happens; rows come out in ascending packed-key order.
    - sparse matmul (scipy): the witness table is ``B1 @ B2`` for the
      0/1 link-incidence matrices ``B1[v1, k]`` ("candidate v1 is
      adjacent to link k in G1") and ``B2[k, v2]`` — the join never
      materializes individual witness pairs.

    Args:
        index: dense interning of the two graphs.
        link_left: ``int64`` dense g1 endpoints of the current links.
        link_right: parallel dense g2 endpoints.
        eligible1: bool[n1] candidate mask (typically "unmatched and at
            least the bucket's degree floor").
        eligible2: bool[n2] candidate mask.  Both masks are validated
            (dtype and length) before either join runs.
        native: compiled-kernel handle (``backend="native"``); callers
            resolve it once per run via
            :func:`repro.core.native.load_native_library` so the
            fallback decision is made — and warned about — exactly
            once.
        min_count: keep only pairs with at least this many witnesses
            (default 1: every witnessed pair).  The compiled join never
            writes the rows below it; the sparse product filters them.
        communities: community pruning — keep only the pairs the
            assignment's ``allowed_mask`` allows.  The one place the
            array sweep prunes: with the compiled join and a
            diagonal-only ring (``frontier=0``) each candidate reads
            only its own community's slice of a link's row, so pruned
            pairs cost no witness work; otherwise the mask filters the
            joined table.  The same table either way.

    Returns:
        ``(scores, witnesses_emitted)``: *scores* holds every eligible
        (and allowed) pair scoring ``>= min_count``, and
        *witnesses_emitted* is the total cross-product work
        ``Σ a_k · b_k`` (the round's cost in the paper's accounting,
        identical in all implementations and for every *min_count* and
        pruning).

    Raises:
        KernelInputError: if a mask is not ``bool`` of length
            ``n1`` / ``n2``, or *min_count* is below 1.
    """
    check_eligibility_masks(eligible1, eligible2, index.n1, index.n2)
    check_min_count(min_count)
    csr1, csr2 = index.csr1, index.csr2
    if len(link_left) == 0 or index.n1 == 0 or index.n2 == 0:
        return ArrayScores(index, _EMPTY, _EMPTY, _EMPTY, native=native), 0
    if native is not None:
        labels: "tuple[np.ndarray, np.ndarray, int] | None" = None
        if communities is not None and communities.diagonal_only:
            # The compiled join applies the diagonal rule itself.
            labels = (
                communities.comm1.astype(np.int32),
                communities.comm2.astype(np.int32),
                communities.num_communities,
            )
            communities = None
        left, right, counts, emitted = native.witness_join(
            csr1.indptr,
            csr1.indices,
            csr2.indptr,
            csr2.indices,
            link_left,
            link_right,
            eligible1,
            eligible2,
            index.n1,
            index.n2,
            min_count,
            communities=labels,
        )
        scores = ArrayScores(index, left, right, counts, native=native)
    else:
        scores, emitted = _sparse_join(
            index, link_left, link_right, eligible1, eligible2, min_count
        )
    if communities is not None:
        scores = prune_scores(
            scores, communities.allowed_mask(scores.left, scores.right)
        )
    return scores, emitted


def _sparse_join(
    index: GraphPairIndex,
    link_left: np.ndarray,
    link_right: np.ndarray,
    eligible1: np.ndarray,
    eligible2: np.ndarray,
    min_count: int,
) -> tuple[ArrayScores, int]:
    """:func:`count_witnesses` as the scipy product ``B1 @ B2``."""
    csr1, csr2 = index.csr1, index.csr2
    nbr1, seg1 = segmented_gather(csr1.indptr, csr1.indices, link_left)
    keep1 = eligible1[nbr1]
    nbr1, seg1 = nbr1[keep1], seg1[keep1]
    nbr2, seg2 = segmented_gather(csr2.indptr, csr2.indices, link_right)
    keep2 = eligible2[nbr2]
    nbr2, seg2 = nbr2[keep2], seg2[keep2]
    num_links = len(link_left)
    a = np.bincount(seg1, minlength=num_links)
    b = np.bincount(seg2, minlength=num_links)
    emitted = int((a * b).sum())
    if emitted == 0:
        return ArrayScores(index, _EMPTY, _EMPTY, _EMPTY), 0
    ones1 = np.ones(len(nbr1), dtype=np.int64)
    ones2 = np.ones(len(nbr2), dtype=np.int64)
    ip1 = np.zeros(num_links + 1, dtype=np.int64)
    np.cumsum(a, out=ip1[1:])
    ip2 = np.zeros(num_links + 1, dtype=np.int64)
    np.cumsum(b, out=ip2[1:])
    # The interning may have compacted neighbor ids to uint32; scipy
    # wants one index dtype across (indices, indptr).
    incidence1 = sparse.csc_array(
        (ones1, nbr1.astype(np.int64, copy=False), ip1),
        shape=(index.n1, num_links),
    )
    incidence2 = sparse.csr_array(
        (ones2, nbr2.astype(np.int64, copy=False), ip2),
        shape=(num_links, index.n2),
    )
    # csc @ csr yields CSC: indptr walks g2 columns, indices hold the g1
    # rows, duplicates pre-summed.  Read the triplets out directly (a
    # tocoo() round-trip re-validates and costs more than the matmul
    # itself).
    table = incidence1 @ incidence2
    rows, data = table.indices, table.data
    cols = np.repeat(
        np.arange(index.n2, dtype=np.int64),
        np.diff(table.indptr),
    )
    if min_count > 1:
        hot = data >= min_count
        rows, cols, data = rows[hot], cols[hot], data[hot]
    return (
        ArrayScores(
            index,
            rows.astype(np.int64),
            cols,
            data.astype(np.int64),
        ),
        emitted,
    )


def prune_scores(
    scores: ArrayScores, keep: np.ndarray
) -> ArrayScores:
    """Filter a score table down to the rows where *keep* is true.

    The array side of candidate pruning
    (:mod:`repro.graphs.communities`): a boolean row mask preserves the
    canonical ascending-key order and the compiled-kernel handle, so
    the filtered table drops into selection unchanged.  A no-op (and
    allocation-free) when every row survives.
    """
    if len(keep) == 0 or bool(keep.all()):
        return scores
    return ArrayScores(
        scores.index,
        scores.left[keep],
        scores.right[keep],
        scores.score[keep],
        native=scores.native,
    )


def _best_per_group(
    group: np.ndarray,
    other: np.ndarray,
    score: np.ndarray,
    skip_ties: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group argmax with the package's tie semantics.

    For each distinct value of *group*, find the row with the maximum
    score; exact ties pick the smallest *other* (canonical order) or, with
    *skip_ties*, drop the group entirely.  Returns the surviving
    ``(group_value, other_value)`` pairs.
    """
    if len(group) == 0:
        return _EMPTY, _EMPTY
    order = np.lexsort((other, -score, group))
    g, o, s = group[order], other[order], score[order]
    first = np.ones(len(g), dtype=bool)
    first[1:] = g[1:] != g[:-1]
    heads = np.flatnonzero(first)
    if skip_ties:
        nxt = heads + 1
        valid = nxt < len(g)
        tied = np.zeros(len(heads), dtype=bool)
        tied[valid] = (g[nxt[valid]] == g[heads[valid]]) & (
            s[nxt[valid]] == s[heads[valid]]
        )
        heads = heads[~tied]
    return g[heads], o[heads]


def select_mutual_best_arrays(
    scores: ArrayScores,
    threshold: int | float,
    tie_policy: TiePolicy = TiePolicy.SKIP,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The paper's mutual-best rule over a flat score table.

    Array twin of :func:`repro.core.policy.select_mutual_best` — a pair
    is linked iff it is simultaneously its left node's and its right
    node's unique best (``SKIP``) or canonical-minimum best
    (``LOWEST_ID``) at or above *threshold*.

    Returns ``(left, right, candidates)`` where *candidates* is the
    number of pairs that passed the threshold filter.

    Tables produced by ``backend="native"`` carry their compiled-kernel
    handle and are selected by the C single-pass argmax instead of the
    lexsort below; the tie semantics are identical, as is the output
    (ascending left id), so the two paths are interchangeable
    row-for-row.  A table already floored at *threshold* (the sweep's)
    is read in place, without the masked copy.
    """
    lt, rt, sc = scores.left, scores.right, scores.score
    mask = sc >= threshold
    if not mask.all():
        lt, rt, sc = lt[mask], rt[mask], sc[mask]
    candidates = len(sc)
    if candidates == 0:
        return _EMPTY, _EMPTY, 0
    skip = tie_policy is TiePolicy.SKIP
    if scores.native is not None:
        out_l, out_r = scores.native.mutual_best(
            lt, rt, sc, scores.index.n1, scores.index.n2, skip
        )
        return out_l, out_r, candidates
    best_l, best_l_r = _best_per_group(lt, rt, sc, skip)
    best_r, best_r_l = _best_per_group(rt, lt, sc, skip)
    # Mutual join: keep (v1, v2) where v2's best is v1.
    right_best_of = np.full(scores.index.n2, -1, dtype=np.int64)
    right_best_of[best_r] = best_r_l
    keep = right_best_of[best_l_r] == best_l
    return best_l[keep], best_l_r[keep], candidates


def select_greedy_arrays(
    scores: ArrayScores,
    threshold: int | float,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy maximum-score selection over a flat score table.

    Array twin of
    :func:`repro.core.selectors.select_greedy_top_score`: pairs at or
    above *threshold*, taken in (descending score, canonical left,
    canonical right) order while both endpoints are free.  The ranking
    is one lexsort; only the accept scan (inherently sequential — each
    acceptance blocks later pairs) is a Python loop.
    """
    mask = scores.score >= threshold
    lt, rt, sc = scores.left[mask], scores.right[mask], scores.score[mask]
    if len(sc) == 0:
        return _EMPTY, _EMPTY
    order = np.lexsort((rt, lt, -sc))
    if scores.native is not None:
        # Same ranking, compiled accept scan: acceptance order (and so
        # the output rows) matches the Python loop exactly.
        return scores.native.greedy_scan(
            lt[order], rt[order], scores.index.n1, scores.index.n2
        )
    lt, rt = lt[order].tolist(), rt[order].tolist()
    used1 = np.zeros(scores.index.n1, dtype=bool)
    used2 = np.zeros(scores.index.n2, dtype=bool)
    out_l: list[int] = []
    out_r: list[int] = []
    for v1, v2 in zip(lt, rt):
        if used1[v1] or used2[v2]:
            continue
        used1[v1] = used2[v2] = True
        out_l.append(v1)
        out_r.append(v2)
    return (
        np.asarray(out_l, dtype=np.int64),
        np.asarray(out_r, dtype=np.int64),
    )
