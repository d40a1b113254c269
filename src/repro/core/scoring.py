"""Similarity-witness scoring kernel (Definition 1 of the paper).

A pair ``(u1, u2)`` already linked across the networks is a *similarity
witness* for ``(v1, v2)`` when ``u1 ∈ N1(v1)`` and ``u2 ∈ N2(v2)``.  The
kernel below computes, for every candidate pair passing the degree floor,
the number of such witnesses — by joining the link set against the two
adjacency structures, exactly the dataflow of the paper's first two
MapReduce rounds.

Cost: ``Σ_{(u1,u2) ∈ L} |N1(u1) ∩ bucket| · |N2(u2) ∩ bucket|`` — the
degree floor is what keeps early rounds cheap and precise, and overall the
work matches the paper's
``O((E1+E2)·min(Δ1,Δ2)·log max(Δ1,Δ2))`` sequential bound.

Two representations of the same kernel live here:
:func:`count_similarity_witnesses` is the dict-of-dict form over original
node ids (behind :func:`~repro.core.reconciler.witness_count_kernel`, the
building block for custom scorers), and
:func:`count_similarity_witnesses_arrays` bridges to the vectorized CSR
join in :mod:`repro.core.kernels` (the Reconciler's default scorer)
given a prebuilt :class:`~repro.graphs.pair_index.GraphPairIndex`.
Counts are identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from repro.graphs.graph import Graph

if TYPE_CHECKING:
    from repro.core.kernels import ArrayScores
    from repro.core.native import NativeKernels
    from repro.graphs.pair_index import GraphPairIndex

Node = Hashable


def count_similarity_witnesses(
    g1: Graph,
    g2: Graph,
    links: dict[Node, Node],
    min_degree: int = 1,
) -> tuple[dict[Node, dict[Node, int]], int]:
    """Count similarity witnesses for all unlinked candidate pairs.

    Args:
        g1: first network.
        g2: second network.
        links: current identification links (``g1-node -> g2-node``).
        min_degree: degree floor ``2^j``; candidates must have at least
            this degree in their own copy.

    Returns:
        ``(scores, witnesses_emitted)`` where ``scores[v1][v2]`` is the
        witness count of candidate pair ``(v1, v2)`` (only nonzero entries
        are present) and ``witnesses_emitted`` is the total number of
        witness pairs counted (the cost of the round).
    """
    linked_right = set(links.values())
    scores: dict[Node, dict[Node, int]] = {}
    emitted = 0
    g1_neighbors = g1.neighbors
    g2_neighbors = g2.neighbors
    g2_has = g2.has_node
    for u1, u2 in links.items():
        if not g2_has(u2):
            continue
        left = [
            v1
            for v1 in g1_neighbors(u1)
            if v1 not in links and len(g1_neighbors(v1)) >= min_degree
        ]
        if not left:
            continue
        right = [
            v2
            for v2 in g2_neighbors(u2)
            if v2 not in linked_right
            and len(g2_neighbors(v2)) >= min_degree
        ]
        if not right:
            continue
        emitted += len(left) * len(right)
        for v1 in left:
            row = scores.get(v1)
            if row is None:
                row = scores[v1] = {}
            for v2 in right:
                row[v2] = row.get(v2, 0) + 1
    return scores, emitted


def count_similarity_witnesses_arrays(
    index: "GraphPairIndex",
    links: dict[Node, Node],
    min_degree: int = 1,
    *,
    native: "NativeKernels | None" = None,
) -> tuple["ArrayScores", int]:
    """Array-backend twin of :func:`count_similarity_witnesses`.

    Interns *links* once and runs the CSR-join kernel with the same
    eligibility rule (unlinked on both sides, at least *min_degree* in
    the own copy).  Returns the flat score table and the witness-pair
    count; ``scores.to_dict()`` equals the dict kernel's table exactly —
    including the dict kernel's tolerance for links whose right endpoint
    is not in ``g2`` (they contribute no witnesses).

    Args:
        index: dense interning of the two graphs.
        links: current identification links.
        min_degree: degree floor applied on both sides.
        native: compiled-kernel handle (``backend="native"``), resolved
            once by the caller via
            :func:`repro.core.native.load_native_library`; the counts
            are identical with or without it.
    """
    import numpy as np

    from repro.core.kernels import count_witnesses

    linked1 = np.zeros(index.n1, dtype=bool)
    linked2 = np.zeros(index.n2, dtype=bool)
    if any(not index.has2(v2) for v2 in links.values()):
        # A link whose image is missing from g2 contributes no witnesses
        # but still blocks its left endpoint, exactly like the dict
        # kernel's `if not g2_has(u2): continue`.
        for v1 in links:
            linked1[index.dense1(v1)] = True
        links = {v1: v2 for v1, v2 in links.items() if index.has2(v2)}
    link_l, link_r = index.intern_links(links)
    linked1[link_l] = True
    linked2[link_r] = True
    floor1, floor2 = index.eligibility(min_degree)
    return count_witnesses(
        index,
        link_l,
        link_r,
        ~linked1 & floor1,
        ~linked2 & floor2,
        native=native,
    )


def witness_score(
    g1: Graph,
    g2: Graph,
    links: dict[Node, Node],
    v1: Node,
    v2: Node,
) -> int:
    """Witness count for one specific candidate pair (diagnostic helper).

    Counts linked pairs ``(u1, u2)`` with ``u1 ∈ N1(v1)``, ``u2 ∈ N2(v2)``.
    """
    n2 = g2.neighbors(v2)
    score = 0
    for u1 in g1.neighbors(v1):
        u2 = links.get(u1)
        if u2 is not None and u2 in n2:
            score += 1
    return score
