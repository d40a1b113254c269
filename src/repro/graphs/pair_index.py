"""Dense interning of a reconciliation pair — the array execution substrate.

Every array execution path (``backend="csr"`` and ``"native"``) starts
by building one :class:`GraphPairIndex`: both graphs' node ids are
interned to dense ``0..n-1`` integers exactly once per reconciliation,
and everything downstream — witness counting, eligibility filtering,
selection — operates on flat numpy arrays keyed by those dense ids.
The index bundles:

- a shared :class:`~repro.graphs.csr.CSRGraph` adjacency per side,
- per-side degree arrays and precomputed degree-*exponent* arrays
  (``floor(log2 deg)``, the paper's bucket coordinate) so a bucket's
  eligibility mask is a single vectorized comparison,
- link interning/export helpers mapping ``dict[Node, Node]`` link sets
  to parallel ``int64`` arrays and back.

Interning order is *canonical* (:func:`~repro.core.ordering.node_sort_key`),
so comparing dense ids is exactly comparing original ids under the
package-wide canonical order — tie-breaks in array kernels reduce to
integer ``min``/argsort and stay link-identical to the MapReduce
formulation, which breaks the same ties by ``node_sort_key`` over
original ids.
:func:`canonical_order` computes that order with a numeric key when every
id is a plain ``int``, and with ``repr`` strings otherwise.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph

Node = Hashable

#: ``10**k`` for ``k = 0..17``.  Ids below ``10**17`` in absolute value
#: take the numeric canonical key, which then fits int64.
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def canonical_order(nodes: Iterable[Node]) -> "list[Node]":
    """*nodes* sorted by :func:`~repro.core.ordering.node_sort_key`.

    ``repr`` order on ints is the order of their digit strings: every
    negative id first (``'-'`` sorts before any digit), then by the
    digits of the absolute value, a prefix before its extensions
    (``1, 10, 100, 2``).  When every id is exactly ``int`` with absolute
    value below ``10**17``, that order comes from one int64 argsort: the
    absolute value right-padded with zeros to the longest digit count
    (so digit strings compare as numbers), ties — ``1`` vs ``10`` —
    broken by digit count.  Any other ids (``bool`` and numpy integers,
    whose ``repr`` differs from their digits, strings, tuples, larger
    ints) are sorted by ``repr``.
    """
    # Imported here, not at module level: graphs/__init__ loads this
    # module while repro.core may still be initializing (core modules
    # import repro.graphs.graph).
    from repro.core.ordering import node_sort_key

    nodes = list(nodes)
    if nodes and set(map(type, nodes)) == {int}:
        top = _POW10[-1]
        if -top < min(nodes) and max(nodes) < top:
            values = np.fromiter(nodes, dtype=np.int64, count=len(nodes))
            magnitude = np.abs(values)
            digits = np.searchsorted(_POW10, magnitude, side="right")
            np.maximum(digits, 1, out=digits)  # "0" has one digit
            key = magnitude * _POW10[digits.max() - digits]
            key[values >= 0] += top
            key *= 20
            key += digits
            rank = np.argsort(key)
            return list(map(nodes.__getitem__, rank.tolist()))
    return sorted(nodes, key=node_sort_key)


def degree_exponents(degrees: np.ndarray) -> np.ndarray:
    """``floor(log2 deg)`` per node as ``int64`` (-1 for degree 0).

    Uses :func:`numpy.frexp` (exact for any int64 degree below 2**53)
    instead of float ``log2``, which can round across a power of two.
    """
    _mantissa, exponents = np.frexp(degrees.astype(np.float64))
    return exponents.astype(np.int64) - 1


def compact_csr_indices(csr: CSRGraph) -> bool:
    """Downcast a CSR adjacency's neighbor ids to ``uint32`` in place.

    The ``indices`` array is ``2m`` entries — the dominant share of a
    reconciliation's resident memory — while every value is a dense node
    id below ``n``.  Whenever ``n`` fits ``uint32`` (any graph below
    ~4.3 billion nodes, i.e. every practical rung including the paper's
    RMAT28), storing ids at 4 bytes instead of 8 halves that
    footprint.  ``indptr``
    stays ``int64``: it has only ``n + 1`` entries, and keeping it wide
    makes every downstream offset/cumsum arithmetic promote to ``int64``
    (mixed ``uint32``/``int64`` operations never underflow).

    Returns whether the downcast was applied.
    """
    if csr.num_nodes > np.iinfo(np.uint32).max + 1:
        return False  # pragma: no cover - needs a > 4.3e9-node graph
    if csr.indices.dtype == np.uint32:
        return False
    csr.indices = csr.indices.astype(np.uint32)
    return True


class GraphPairIndex:
    """Shared dense-id view of a ``(g1, g2)`` reconciliation pair.

    Attributes:
        g1: first network (original, dict-backed).
        g2: second network.
        csr1: CSR adjacency of ``g1`` in canonical interning order.
        csr2: CSR adjacency of ``g2``.
        deg1: ``int64[n1]`` degrees indexed by dense id.
        deg2: ``int64[n2]`` degrees.
        exp1: ``int64[n1]`` degree exponents (``floor(log2 deg)``, -1
            for isolated nodes) — the degree-bucket coordinate.
        exp2: ``int64[n2]`` degree exponents.
    """

    __slots__ = (
        "g1", "g2", "csr1", "csr2", "deg1", "deg2", "exp1", "exp2",
    )

    def __init__(
        self,
        g1: Graph,
        g2: Graph,
        *,
        order1: "list[Node] | None" = None,
        order2: "list[Node] | None" = None,
    ) -> None:
        """Intern ``(g1, g2)``; *order1*/*order2* override the canonical
        interning order (a restored :class:`DeltaIndex` passes its
        append-only order)."""
        if order1 is None:
            order1 = canonical_order(g1.nodes())
        if order2 is None:
            order2 = canonical_order(g2.nodes())
        self.g1 = g1
        self.g2 = g2
        self.csr1 = CSRGraph(g1, order=order1)
        self.csr2 = CSRGraph(g2, order=order2)
        # Execution substrate: node ids are dense, so neighbor ids fit
        # uint32 for any practical graph — ~50% off resident adjacency
        # memory at zero output cost.
        compact_csr_indices(self.csr1)
        compact_csr_indices(self.csr2)
        self.deg1 = self.csr1.degree_array()
        self.deg2 = self.csr2.degree_array()
        self.exp1 = degree_exponents(self.deg1)
        self.exp2 = degree_exponents(self.deg2)

    # ------------------------------------------------------------------
    @property
    def n1(self) -> int:
        """Number of nodes in ``g1``."""
        return self.csr1.num_nodes

    @property
    def n2(self) -> int:
        """Number of nodes in ``g2``."""
        return self.csr2.num_nodes

    def dense1(self, node: Node) -> int:
        """Dense id of a ``g1`` node."""
        return self.csr1.dense_id(node)

    def dense2(self, node: Node) -> int:
        """Dense id of a ``g2`` node."""
        return self.csr2.dense_id(node)

    def has2(self, node: Node) -> bool:
        """Whether *node* is a ``g2`` node (interned in ``csr2``)."""
        return node in self.csr2._dense_of

    def node1(self, dense: int) -> Node:
        """Original ``g1`` id of a dense id."""
        return self.csr1.node_ids[dense]

    def node2(self, dense: int) -> Node:
        """Original ``g2`` id of a dense id."""
        return self.csr2.node_ids[dense]

    # ------------------------------------------------------------------
    def intern_links(
        self, links: dict[Node, Node]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Intern a link dict to parallel ``(left, right)`` dense arrays."""
        n = len(links)
        left = np.empty(n, dtype=np.int64)
        right = np.empty(n, dtype=np.int64)
        d1 = self.csr1.dense_id
        d2 = self.csr2.dense_id
        for i, (v1, v2) in enumerate(links.items()):
            left[i] = d1(v1)
            right[i] = d2(v2)
        return left, right

    def export_links(
        self, left: np.ndarray, right: np.ndarray
    ) -> dict[Node, Node]:
        """Map parallel dense link arrays back to an original-id dict."""
        ids1 = self.csr1.node_ids
        ids2 = self.csr2.node_ids
        return {
            ids1[v1]: ids2[v2]
            for v1, v2 in zip(left.tolist(), right.tolist())
        }

    def eligibility(self, min_degree: int) -> tuple[np.ndarray, np.ndarray]:
        """Boolean degree-floor masks ``(deg1 >= min, deg2 >= min)``."""
        return self.deg1 >= min_degree, self.deg2 >= min_degree

    def __repr__(self) -> str:
        return (
            f"GraphPairIndex(n1={self.n1}, n2={self.n2}, "
            f"m1={self.csr1.num_edges}, m2={self.csr2.num_edges})"
        )
