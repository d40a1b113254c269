"""Dense interning of a reconciliation pair — the array execution substrate.

Every ``backend="csr"`` execution path starts by building one
:class:`GraphPairIndex`: both graphs' node ids are interned to dense
``0..n-1`` integers exactly once per reconciliation, and everything
downstream — witness counting, eligibility filtering, selection, the
MapReduce shuffle — operates on flat numpy arrays keyed by those dense
ids.  The index bundles:

- a shared :class:`~repro.graphs.csr.CSRGraph` adjacency per side,
- per-side degree arrays and precomputed degree-*exponent* arrays
  (``floor(log2 deg)``, the paper's bucket coordinate) so a bucket's
  eligibility mask is a single vectorized comparison,
- link interning/export helpers mapping ``dict[Node, Node]`` link sets
  to parallel ``int64`` arrays and back.

Interning order is *canonical* (:func:`~repro.core.ordering.node_sort_key`),
so comparing dense ids is exactly comparing original ids under the
package-wide canonical order — tie-breaks in array kernels reduce to
integer ``min``/argsort and stay link-identical to the dict backend.
:func:`canonical_order` computes that order with a numeric key when every
id is a plain ``int``, and with ``repr`` strings otherwise.
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import Hashable, Iterable

import numpy as np

from repro.errors import MmapIndexClosedError, MmapIndexError
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph

Node = Hashable

#: Schema marker of the npz pair-index format (``save_npz``).
PAIR_INDEX_FORMAT = 1

#: npz members that are memory-mapped on open (the ``2m``-dominant
#: adjacency arrays); ``node_ids*`` members stay eager — they are
#: ``n``-sized, object-typed, and needed for link interning anyway.
_MMAP_MEMBERS = frozenset(
    {"indptr1", "indices1", "indptr2", "indices2"}
)


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

    def has1(self, node: Node) -> bool:
        """Whether *node* is a ``g1`` node.

        Graph-free membership test (works on memory-mapped indexes,
        whose ``g1``/``g2`` are ``None``).
        """
        return node in self.csr1._dense_of

    def has2(self, node: Node) -> bool:
        """Whether *node* is a ``g2`` node (graph-free, like :meth:`has1`)."""
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

    # ------------------------------------------------------------------
    # out-of-core: npz spill + memory-mapped reopen
    # ------------------------------------------------------------------
    def save_npz(self, path: "str | Path") -> None:
        """Spill the interned index to an *uncompressed* npz.

        Uncompressed (``np.savez``, not ``savez_compressed``) because a
        zip member can only be memory-mapped if it is stored verbatim;
        the adjacency arrays are then reopened page-on-demand by
        :meth:`open_mmap` — the out-of-core substrate for graphs whose
        CSR arrays exceed RAM.  Written atomically via a temporary
        sibling + replace, mirroring :mod:`repro.core.links_io`.
        """
        path = Path(path)
        payload = {
            "format_version": np.array([PAIR_INDEX_FORMAT], dtype=np.int64),
            "indptr1": self.csr1.indptr,
            "indices1": self.csr1.indices,
            "indptr2": self.csr2.indptr,
            "indices2": self.csr2.indices,
            "node_ids1": _object_array(self.csr1.node_ids),
            "node_ids2": _object_array(self.csr2.node_ids),
        }
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, **payload)
            tmp.replace(path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def open_mmap(cls, path: "str | Path") -> "MmapGraphPairIndex":
        """Reopen a :meth:`save_npz` spill with disk-backed adjacency.

        The ``2m``-dominant ``indptr``/``indices`` members become
        read-only ``np.memmap`` views straight into the npz (the zip
        member offsets are resolved manually — ``np.load`` never maps
        npz members), so the block planner streams adjacency pages on
        demand; only the ``n``-sized node-id and degree arrays live in
        RAM.  The returned index owns the mappings: call
        :meth:`MmapGraphPairIndex.close` (or use it as a context
        manager) when done — reads after close raise
        :class:`~repro.errors.MmapIndexClosedError` instead of touching
        unmapped memory.
        """
        path = Path(path)
        if not path.exists():
            raise MmapIndexError(f"pair-index file {path} does not exist")
        try:
            with np.load(path, allow_pickle=True) as data:
                files = set(data.files)
                required = _MMAP_MEMBERS | {
                    "format_version", "node_ids1", "node_ids2",
                }
                missing = sorted(required - files)
                if missing:
                    raise MmapIndexError(
                        f"{path} is not a pair-index npz: missing "
                        f"members {missing}"
                    )
                version = int(data["format_version"][0])
                if version != PAIR_INDEX_FORMAT:
                    raise MmapIndexError(
                        f"{path} has pair-index format {version}, "
                        f"expected {PAIR_INDEX_FORMAT}"
                    )
                node_ids1 = list(data["node_ids1"])
                node_ids2 = list(data["node_ids2"])
        except MmapIndexError:
            raise
        except Exception as exc:
            raise MmapIndexError(
                f"pair-index file {path} is unreadable: {exc!r}"
            ) from exc
        views = _mmap_npz_members(path, _MMAP_MEMBERS)
        return MmapGraphPairIndex(
            path,
            CSRGraph.from_arrays(
                views["indptr1"], views["indices1"], node_ids1
            ),
            CSRGraph.from_arrays(
                views["indptr2"], views["indices2"], node_ids2
            ),
        )


def _object_array(values: "list[Node]") -> np.ndarray:
    """An object-dtype array holding *values* one per slot.

    Element-wise assignment, not ``np.asarray`` — tuple-valued node ids
    must stay scalars, never broadcast into rows.
    """
    arr = np.empty(len(values), dtype=object)
    for i, value in enumerate(values):
        arr[i] = value
    return arr


def _mmap_npz_members(
    path: Path, names: frozenset[str]
) -> dict[str, np.ndarray]:
    """Memory-map the named ``.npy`` members of an uncompressed npz.

    ``np.load(..., mmap_mode=...)`` silently ignores the mmap request
    for zip archives, so the member data offsets are resolved here: the
    zip central directory gives each member's local-header offset, the
    local header gives the stored payload offset (its name/extra fields
    can differ from the central directory's), and the npy header inside
    the payload gives dtype/shape plus the final array offset for
    :class:`numpy.memmap`.
    """
    views: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as zf, open(path, "rb") as fh:
        for info in zf.infolist():
            name = info.filename
            if name.endswith(".npy"):
                name = name[: -len(".npy")]
            if name not in names:
                continue
            if info.compress_type != zipfile.ZIP_STORED:
                raise MmapIndexError(
                    f"{path} member {info.filename!r} is compressed "
                    "and cannot be memory-mapped — respill with "
                    "save_npz (uncompressed)"
                )
            fh.seek(info.header_offset)
            local = fh.read(30)
            if len(local) != 30 or local[:4] != b"PK\x03\x04":
                raise MmapIndexError(
                    f"{path} member {info.filename!r} has a corrupt "
                    "local zip header"
                )
            name_len = int.from_bytes(local[26:28], "little")
            extra_len = int.from_bytes(local[28:30], "little")
            fh.seek(info.header_offset + 30 + name_len + extra_len)
            try:
                version = np.lib.format.read_magic(fh)
                if version == (1, 0):
                    shape, fortran, dtype = (
                        np.lib.format.read_array_header_1_0(fh)
                    )
                elif version == (2, 0):
                    shape, fortran, dtype = (
                        np.lib.format.read_array_header_2_0(fh)
                    )
                else:
                    raise MmapIndexError(
                        f"{path} member {info.filename!r} has npy "
                        f"format {version}; expected 1.0 or 2.0"
                    )
            except MmapIndexError:
                raise
            except Exception as exc:
                raise MmapIndexError(
                    f"{path} member {info.filename!r} has a corrupt "
                    f"npy header: {exc!r}"
                ) from exc
            if fortran and len(shape) > 1:  # pragma: no cover - 1-D only
                raise MmapIndexError(
                    f"{path} member {info.filename!r} is Fortran-"
                    "ordered; pair-index arrays are 1-D C arrays"
                )
            if int(np.prod(shape)) == 0:
                # mmap cannot map zero bytes; an empty member is just
                # an empty array (nothing to stream).
                views[name] = np.empty(shape, dtype=dtype)
            else:
                views[name] = np.memmap(
                    path, mode="r", dtype=dtype, shape=shape,
                    offset=fh.tell(),
                )
    missing = sorted(names - set(views))
    if missing:
        raise MmapIndexError(
            f"{path} is not a pair-index npz: missing members {missing}"
        )
    return views


class _ClosedArray(np.ndarray):
    """Zero-length sentinel swapped in for unmapped CSR arrays.

    Any read — indexing, ``len``, iteration, a ufunc, or a numpy API
    call — raises :class:`~repro.errors.MmapIndexClosedError`, so stale
    references to a closed :class:`MmapGraphPairIndex` fail loudly
    instead of faulting on unmapped pages.
    """

    #: Ufuncs refuse the operand outright (TypeError) instead of
    #: silently treating the sentinel as an empty array.
    __array_ufunc__ = None

    def __new__(cls) -> "_ClosedArray":
        return np.empty(0, dtype=np.int64).view(cls)

    def _fail(self) -> None:
        raise MmapIndexClosedError(
            "this GraphPairIndex was close()d — its memory-mapped CSR "
            "arrays are gone; reopen with GraphPairIndex.open_mmap"
        )

    def __getitem__(self, item: object) -> "np.ndarray":
        self._fail()
        raise AssertionError("unreachable")  # pragma: no cover

    def __len__(self) -> int:
        self._fail()
        raise AssertionError("unreachable")  # pragma: no cover

    def __iter__(self) -> "object":
        self._fail()
        raise AssertionError("unreachable")  # pragma: no cover

    def __array_function__(
        self, func: object, types: object, args: object, kwargs: object
    ) -> "np.ndarray":
        self._fail()
        raise AssertionError("unreachable")  # pragma: no cover


class MmapGraphPairIndex(GraphPairIndex):
    """A :class:`GraphPairIndex` whose adjacency streams from disk.

    Produced by :meth:`GraphPairIndex.open_mmap`; behaves identically
    to the in-memory index (the kernels are bit-identical over memmap
    views) except that it has no backing :class:`Graph` objects
    (``g1 is g2 is None``) and owns an explicit lifecycle:

    - :meth:`close` releases the mappings (idempotent — double close is
      a no-op) and swaps the CSR arrays for fail-loud sentinels;
    - reads after close raise
      :class:`~repro.errors.MmapIndexClosedError`;
    - ``with GraphPairIndex.open_mmap(p) as index:`` closes on exit.

    Node-sized state (node ids, degrees, bucket exponents) is eager and
    survives close; only the ``2m``-sized adjacency is disk-backed.
    """

    __slots__ = ("path", "_closed")

    def __init__(
        self, path: Path, csr1: CSRGraph, csr2: CSRGraph
    ) -> None:
        self.path = path
        self.g1 = None  # type: ignore[assignment]
        self.g2 = None  # type: ignore[assignment]
        self.csr1 = csr1
        self.csr2 = csr2
        # Degrees/exponents come from indptr deltas: n-sized, kept in
        # RAM so bucket scheduling never touches the mapping.
        self.deg1 = np.diff(np.asarray(csr1.indptr))
        self.deg2 = np.diff(np.asarray(csr2.indptr))
        self.exp1 = degree_exponents(self.deg1)
        self.exp2 = degree_exponents(self.deg2)
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Release the disk mappings; idempotent.

        The memmap references are dropped (the OS unmaps once the last
        numpy view dies) and the CSR array slots are replaced with
        sentinels that raise :class:`~repro.errors.MmapIndexClosedError`
        on any read — never a segfault on unmapped pages.
        """
        if self._closed:
            return
        self._closed = True
        for csr in (self.csr1, self.csr2):
            csr.indptr = _ClosedArray()
            csr.indices = _ClosedArray()

    def __enter__(self) -> "MmapGraphPairIndex":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"MmapGraphPairIndex(path={str(self.path)!r}, {state}, "
            f"n1={self.n1}, n2={self.n2})"
        )
