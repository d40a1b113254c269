"""Community structure of the union graph — the candidate-pruning pass.

The paper's degree buckets bound reconciliation *rounds*; the candidate
pair space is what still scales quadratically in dense neighborhoods.
Following the mega-scale community-detection line (Wakita & Tsurumi,
"Finding Community Structure in Mega-scale Social Networks"), a single
cheap partitioning pass over the *union graph* — both networks glued
together at the seed links — yields a coarse map of where true matches
can possibly live: a real pair's two nodes share most of their
neighborhoods, so they land in the same (or an adjacent) community with
overwhelming probability, while the vast majority of spurious candidate
pairs straddle unrelated communities and can be discarded before they
are ever scored.

The partitioner is synchronous *seeded, grow-only* label propagation:
only the glued seed slots carry a label initially (their slot id), and
labels spread outward round by round — each still-unlabeled node takes
the modal label among its already-labeled neighbors, ties broken
toward the smallest label, and is then *frozen*.  Freezing is the
crucial deviation from classic LPA: re-voting on short-diameter social
graphs lets whichever label captures the hubs snowball into one giant
community (the well-known LPA pathology), destroying all pruning
power.  Grow-only propagation instead carves deterministic Voronoi-
like cells around the seeds, and because a true match's two copies
share most of their neighborhood, they see the same seed landscape and
land in the same (or an adjacent) community — whereas unseeded
propagation lets each side's labels be captured by its own, unglued
hubs and tears matched pairs apart.  Nodes no seed ever reaches keep
the sentinel label ``-1`` and are *never* pruned (pruning must only
ever act on positive community evidence).

Everything is fully deterministic — no randomness is consumed, rounds
are bounded, and final labels are compacted in canonical ascending
order — so the same pair of graphs and seeds always produces the same
partition, which is what lets both matcher backends and the MapReduce
formulation apply an *identical* pruning filter and stay link-identical
to each other.

Everything is vectorized over the existing CSR arrays of a
:class:`~repro.graphs.pair_index.GraphPairIndex`; no adjacency is ever
rebuilt in Python dicts.  The cost follows what changes, not the edge
count times the rounds:

- *Wavefront rounds.*  Only the *active* edges — those out of a
  still-unlabeled slot — are kept.  A round votes over the active edges
  whose target is labeled: one ``np.sort`` of packed ``src * n_total +
  label`` keys, run-length counts, and one ``np.maximum.reduceat`` per
  node for the winner.  Every voter is labeled in that round, so its
  edges leave the active set: each directed union edge is sorted at
  most once per run, and a round costs O(active + votes log votes).
- *Dense remap.*  Labels are slot ids, so compacting them is one
  ``bincount`` and one lookup array.  At ``frontier=0`` the ring is the
  diagonal and no quotient graph is built.
- *Diagonal-first allowance.*  A pair is allowed when ``c1 == c2`` or
  either endpoint is unassigned.  Only the assigned off-diagonal rest is
  looked up, against the ring's off-diagonal keys, which are empty at
  ``frontier=0``.  The scalar :meth:`CommunityAssignment.allowed_communities`
  applies the same rule.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.graphs.pair_index import GraphPairIndex

Node = Hashable

#: Default bound on label-propagation rounds.  Grow-only propagation
#: reaches its fixpoint in at most the union graph's eccentricity from
#: the seed set — a handful of rounds on social graphs; the bound caps
#: how far from any seed a label may travel on pathological topologies.
DEFAULT_MAX_ROUNDS = 15

_EMPTY = np.empty(0, dtype=np.int64)


def union_label_propagation(
    index: GraphPairIndex,
    seed_left: np.ndarray,
    seed_right: np.ndarray,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Seeded label-propagation partition of the glued union graph.

    The union graph has one slot per ``g1`` node (slots ``0..n1-1``) and
    one per ``g2`` node (slots ``n1..n1+n2-1``), except that each seed
    pair shares its ``g1`` slot — the glue that makes the two networks
    one graph.  Edges are both CSR adjacencies mapped through the slot
    assignment; an edge present in both networks therefore counts
    twice, which is exactly the weighting we want (evidence from both
    sides).

    Labels start at the seed slots only (label = slot id, everything
    else the ``-1`` sentinel) and spread by synchronous grow-only modal
    updates: each round, every still-unlabeled slot takes the modal
    label among its labeled neighbors (ties to the smallest label) and
    is frozen from then on (see the module docstring for why freezing
    matters).  Slots no seed ever reaches finish with ``-1`` —
    downstream, such nodes are never pruned.  Propagation stops after
    *max_rounds* rounds or at the first round with no voter.

    Rounds run over the wavefront only: the edges out of unlabeled
    slots are kept, each round sorts the packed ``(slot, label)`` keys
    of those whose target is labeled, and the newly labeled slots' edges
    are dropped.  Each edge is sorted at most once per run.

    Returns ``(labels, union1, union2, edges)`` where *labels* assigns
    a (non-compacted) label or ``-1`` to every slot, *union1*/*union2*
    map dense per-graph ids to slots, and *edges* is the ``(2, E)``
    directed slot edge list (both directions present) reused by the
    quotient-graph construction downstream.
    """
    n1, n2 = index.n1, index.n2
    n_total = n1 + n2
    union1 = np.arange(n1, dtype=np.int64)
    union2 = np.arange(n2, dtype=np.int64) + n1
    if len(seed_right):
        union2[seed_right] = seed_left
    m1 = len(index.csr1.indices)
    edges = np.empty((2, m1 + len(index.csr2.indices)), dtype=np.int64)
    src, dst = edges
    src[:m1] = np.repeat(union1, index.deg1)
    src[m1:] = np.repeat(union2, index.deg2)
    dst[:m1] = index.csr1.indices
    dst[m1:] = union2[index.csr2.indices]
    labels = np.full(n_total, -1, dtype=np.int64)
    if len(seed_left) == 0 or len(src) == 0:
        # Nothing to anchor on (or nothing to spread through): every
        # node stays unassigned and the filter passes everything.
        labels[seed_left] = seed_left
        return labels, union1, union2, edges
    labels[seed_left] = seed_left
    # Grow-only: a labeled slot (seeds included) is frozen, so its
    # edges never vote again.  Only edges out of unlabeled slots stay,
    # as slot ids as narrow as the slot count allows.
    slot = np.int32 if n_total < 2**31 else np.int64
    active = (labels < 0)[src]
    act_src = src[active].astype(slot)
    act_dst = dst[active].astype(slot)
    del active
    nt = np.int64(n_total)
    for _round in range(max_rounds):
        lbl = labels[act_dst]
        voting = lbl >= 0
        if not voting.any():
            break
        # One sort of packed (node, label) keys: runs are (node, label)
        # occurrences, node-major and label-ascending within a node.
        keys = act_src[voting] * nt
        keys += lbl[voting]
        del lbl
        keys.sort()
        boundary = np.empty(len(keys), dtype=bool)
        boundary[0] = True
        np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
        run_start = np.flatnonzero(boundary)
        run_key = keys[run_start]
        run_src = run_key // nt
        run_count = np.diff(np.append(run_start, len(keys)))
        # Winner per node: highest count, then smallest label — the
        # largest ``count * n_total + (n_total - 1 - label)``.  A count
        # is at most 2 * n_total, so int64 holds it below 2**31 slots.
        node_start = np.flatnonzero(
            np.concatenate(([True], run_src[1:] != run_src[:-1]))
        )
        rank = run_count * nt + (nt - 1 - run_key % nt)
        best = np.maximum.reduceat(rank, node_start)
        labels[run_src[node_start]] = nt - 1 - best % nt
        still = (labels < 0)[act_src]
        act_src, act_dst = act_src[still], act_dst[still]
    return labels, union1, union2, edges


def _expand_frontier(
    allowed_keys: np.ndarray,
    qindptr: np.ndarray,
    qindices: np.ndarray,
    num_communities: int,
    hops: int,
) -> np.ndarray:
    """Grow the allowed-pair key set *hops* steps along the quotient graph.

    *allowed_keys* are packed ``a * K + b`` community pairs; each hop
    adds ``(a, c)`` for every quotient edge ``b -> c`` reachable from an
    allowed ``(a, b)``.  Returns the sorted unique expanded key set.
    """
    keys = allowed_keys
    k = np.int64(num_communities)
    for _hop in range(hops):
        a, b = keys // k, keys % k
        counts = qindptr[b + 1] - qindptr[b]
        total = int(counts.sum())
        if total == 0:
            break
        seg = np.repeat(np.arange(len(b), dtype=np.int64), counts)
        offsets = np.cumsum(counts) - counts
        pos = np.arange(total, dtype=np.int64) - offsets[seg]
        new_b = qindices[qindptr[b][seg] + pos]
        new_keys = a[seg] * k + new_b
        grown = np.unique(np.concatenate([keys, new_keys]))
        if len(grown) == len(keys):
            break
        keys = grown
    return keys


class CommunityAssignment:
    """A per-run community partition plus its allowed-pair relation.

    Built once per reconciliation from the union graph and the *initial*
    seed links; every pruning-aware matcher consults the same
    assignment, so the filter — and therefore the links — are identical
    across the array sweep, the Reconciler and the MapReduce
    formulation.

    Attributes:
        comm1: ``int64[n1]`` community id per dense ``g1`` id
            (``-1`` = unassigned, never pruned).
        comm2: ``int64[n2]`` community id per dense ``g2`` id
            (``-1`` = unassigned, never pruned).
        num_communities: number of distinct communities ``K``.
        frontier: the ring radius the allowed relation was built with.
        allowed_keys: sorted unique packed ``c1 * K + c2`` keys of every
            allowed community pair (quotient distance <= *frontier*);
            the diagonal ``c1 == c2`` is always among them.
    """

    __slots__ = (
        "comm1",
        "comm2",
        "num_communities",
        "frontier",
        "allowed_keys",
        "_off_diagonal",
        "_allowed_set",
    )

    def __init__(
        self,
        comm1: np.ndarray,
        comm2: np.ndarray,
        num_communities: int,
        frontier: int,
        allowed_keys: np.ndarray,
    ) -> None:
        self.comm1 = comm1
        self.comm2 = comm2
        self.num_communities = num_communities
        self.frontier = frontier
        self.allowed_keys = allowed_keys
        k = np.int64(max(num_communities, 1))
        self._off_diagonal = allowed_keys[
            allowed_keys // k != allowed_keys % k
        ]
        self._allowed_set: frozenset[int] | None = None

    @property
    def diagonal_only(self) -> bool:
        """Whether the ring is the diagonal alone (as at ``frontier=0``).

        Then a pair is allowed exactly when ``c1 == c2`` or an endpoint
        is unassigned, a rule the compiled witness join applies inside
        the join (:func:`repro.core.kernels.count_witnesses`).
        """
        return len(self._off_diagonal) == 0

    # ------------------------------------------------------------------
    def allowed_mask(
        self, left: np.ndarray, right: np.ndarray
    ) -> np.ndarray:
        """Vectorized allowance test over parallel dense-id pair arrays.

        A pair is allowed when its packed community key is in the ring,
        or when either endpoint is unassigned (``-1``): pruning only
        ever acts on positive community evidence.  The ring always holds
        the diagonal, so ``c1 == c2`` decides most rows with no lookup;
        only the assigned off-diagonal rest is searched, and only
        against the ring's off-diagonal keys (none at frontier 0).
        """
        c1 = self.comm1[np.asarray(left)]
        c2 = self.comm2[np.asarray(right)]
        allowed = (c1 == c2) | (c1 < 0) | (c2 < 0)
        table = self._off_diagonal
        if len(table) == 0:
            return allowed
        rest = np.flatnonzero(~allowed)
        keys = c1[rest] * np.int64(self.num_communities) + c2[rest]
        pos = np.minimum(np.searchsorted(table, keys), len(table) - 1)
        allowed[rest] = table[pos] == keys
        return allowed

    def allowed_communities(self, c1: int, c2: int) -> bool:
        """Scalar allowance test on community ids (original-id paths).

        The same diagonal-first rule as :meth:`allowed_mask`.
        """
        if c1 == c2 or c1 < 0 or c2 < 0:
            return True
        if self._allowed_set is None:
            self._allowed_set = frozenset(self._off_diagonal.tolist())
        return c1 * self.num_communities + c2 in self._allowed_set

    def community_maps(
        self, index: GraphPairIndex
    ) -> tuple[dict[Node, int], dict[Node, int]]:
        """Original-id -> community dicts for the original-id paths.

        The MapReduce formulation looks communities up by node id.
        """
        return (
            dict(zip(index.csr1.node_ids, self.comm1.tolist())),
            dict(zip(index.csr2.node_ids, self.comm2.tolist())),
        )


def assign_communities(
    index: GraphPairIndex,
    seed_left: np.ndarray,
    seed_right: np.ndarray,
    frontier: int = 0,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> CommunityAssignment:
    """Partition the union graph and build the allowed-pair relation.

    Deterministic end to end: label propagation breaks ties canonically
    (see module docstring), community ids are compacted in ascending
    label order, and the frontier ring is the exact set of community
    pairs within *frontier* hops in the quotient graph.
    """
    labels, union1, union2, edges = union_label_propagation(
        index, seed_left, seed_right, max_rounds=max_rounds
    )
    # Labels are slot ids: one dense remap compacts them in ascending
    # order, and its extra last entry sends the -1 sentinel to -1.
    uniq = np.flatnonzero(np.bincount(labels + 1)[1:])
    k = len(uniq)
    remap = np.full(len(labels) + 1, -1, dtype=np.int64)
    remap[uniq] = np.arange(k, dtype=np.int64)
    slot_comm = remap[labels]
    comm1 = slot_comm[union1]
    comm2 = slot_comm[union2]
    if k == 0:
        return CommunityAssignment(comm1, comm2, 0, frontier, _EMPTY)
    kk = np.int64(k)
    allowed = np.arange(k, dtype=np.int64) * (kk + 1)
    if frontier <= 0:
        # Ring 0 is the diagonal: no quotient edge is ever followed.
        return CommunityAssignment(comm1, comm2, k, frontier, allowed)
    # Quotient graph: communities adjacent iff some union edge crosses
    # them; edges touching an unassigned slot carry no community
    # evidence and are dropped.
    qsrc = slot_comm[edges[0]]
    qdst = slot_comm[edges[1]]
    cross = (qsrc != qdst) & (qsrc >= 0) & (qdst >= 0)
    qkeys = np.unique(qsrc[cross] * kk + qdst[cross])
    qa, qb = qkeys // kk, qkeys % kk
    qindptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(qa, minlength=k), out=qindptr[1:])
    allowed = _expand_frontier(allowed, qindptr, qb, k, frontier)
    return CommunityAssignment(comm1, comm2, k, frontier, allowed)


def assignment_for(
    g1: "object",
    g2: "object",
    seeds: dict[Node, Node],
    frontier: int = 0,
    index: GraphPairIndex | None = None,
) -> CommunityAssignment:
    """The per-run assignment from graphs + initial seeds.

    Convenience wrapper used by every pruning-aware matcher: builds (or
    reuses) the dense interning, interns the seed links, and delegates
    to :func:`assign_communities`.  Original-id matchers (the MapReduce
    formulation) pay one interning here — the price of guaranteeing the
    *same* assignment code path as the array sweep.
    """
    if index is None:
        index = GraphPairIndex(g1, g2)  # type: ignore[arg-type]
    seed_left, seed_right = index.intern_links(seeds)
    return assign_communities(
        index, seed_left, seed_right, frontier=frontier
    )
