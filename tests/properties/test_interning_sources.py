"""Property wall: interning from recorded arrays equals the set walk.

A graph built by :meth:`Graph.from_dense_edges` keeps the edge arrays it
was built from, and :class:`CSRGraph` assembles its CSR from them
instead of walking the adjacency sets.  Every CSR (and every
:class:`GraphPairIndex`) built that way must equal the one the set walk
builds from an equal graph made in Python — node ids, ``indptr``,
``indices`` and their dtypes — for every id kind, any duplicated or
reversed input edges, isolated nodes, explicit interning orders, and
after any sequence of mutations (which must drop the arrays: a stale
array read fails this wall).

The canonical interning order has a numeric fast path for plain ints
(:func:`~repro.graphs.pair_index.canonical_order`); it must equal
``sorted(nodes, key=node_sort_key)`` on every input.
"""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ordering import node_sort_key
from repro.generators.rmat import rmat_graph
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph
from repro.graphs.pair_index import GraphPairIndex, canonical_order
from repro.sampling.edge_sampling import independent_copies
from repro.utils.rng import spawn_rngs

#: sha256 of the canonical CSR pair of the ``rmat-native`` seed-1 inputs
#: (:func:`csr_pair_digest`), recorded with the set-walk interning.
RMAT_SEED1_DIGEST = (
    "d3e2de179dbb06fabffc7ba16abc2f912c6424fa4b394f069e182585bd562f5b"
)


def id_pool(kind: str, n: int) -> list:
    """*n* distinct node ids of one kind."""
    if kind == "dense":
        return list(range(n))[::-1]
    if kind == "int":
        return [(-1) ** i * 10 ** (i % 4) * (i + 1) for i in range(n)]
    if kind == "str":
        return [f"user-{i}" for i in range(n)]
    if kind == "tuple":
        return [(i % 3, f"t{i}") for i in range(n)]
    return [[i, f"u{i}", (i, i)][i % 3] for i in range(n)]


@st.composite
def bulk_inputs(draw):
    """``(node_table, src, dst, first)`` for ``Graph.from_dense_edges``.

    Edges repeat and reverse freely; *first* adds isolated nodes, and
    the table's last entries may never be added at all.
    """
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["dense", "int", "str", "tuple", "mixed"]))
    table = id_pool(kind, n + draw(st.integers(0, 4)))
    ends = st.integers(0, n - 1)
    pairs = draw(
        st.lists(
            st.tuples(ends, ends).filter(lambda e: e[0] != e[1]),
            max_size=120,
        )
    )
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=20))
        pairs += [(d, s) for s, d in pairs[: draw(st.integers(0, 10))]]
    first = draw(st.lists(ends, max_size=10))
    return table, pairs, first


def bulk_build(table, pairs, first) -> Graph:
    src = np.array([s for s, _ in pairs], dtype=np.int64)
    dst = np.array([d for _, d in pairs], dtype=np.int64)
    g = Graph.from_dense_edges(table, src, dst, first)
    assert g.recorded_edges() is not None
    return g


def walk_twin(g: Graph) -> Graph:
    """An equal graph built in Python (same insertion order, no arrays)."""
    twin = Graph.from_edges(g.edges(), nodes=g.nodes())
    assert twin.recorded_edges() is None
    assert list(twin.nodes()) == list(g.nodes())
    return twin


def assert_same_csr(got: CSRGraph, want: CSRGraph) -> None:
    assert got.node_ids == want.node_ids
    assert got._dense_of == want._dense_of
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices)):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def orders(g: Graph, rng: random.Random) -> list:
    """Insertion, canonical and one shuffled explicit order of *g*."""
    shuffled = list(g.nodes())
    rng.shuffle(shuffled)
    return [None, canonical_order(g.nodes()), shuffled]


def assert_sources_agree(g: Graph, seed: int) -> None:
    twin = walk_twin(g)
    for order in orders(g, random.Random(seed)):
        assert_same_csr(CSRGraph(g, order=order), CSRGraph(twin, order=order))


def assert_same_index(got: GraphPairIndex, want: GraphPairIndex) -> None:
    assert_same_csr(got.csr1, want.csr1)
    assert_same_csr(got.csr2, want.csr2)
    for name in ("deg1", "deg2", "exp1", "exp2"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def csr_pair_digest(index: GraphPairIndex) -> str:
    h = hashlib.sha256()
    for csr in (index.csr1, index.csr2):
        h.update(repr(csr.node_ids).encode())
        for arr in (csr.indptr, csr.indices):
            h.update(arr.dtype.str.encode())
            h.update(arr.tobytes())
    return h.hexdigest()


class TestArraySourceWall:
    @given(bulk_inputs(), st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_csr_equals_set_walk(self, case, seed):
        assert_sources_agree(bulk_build(*case), seed)

    @given(bulk_inputs(), bulk_inputs(), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_pair_index_equals_set_walk(self, case1, case2, seed):
        g1, g2 = bulk_build(*case1), bulk_build(*case2)
        t1, t2 = walk_twin(g1), walk_twin(g2)
        assert_same_index(GraphPairIndex(g1, g2), GraphPairIndex(t1, t2))
        # A restored DeltaIndex passes its append-only orders.
        rng = random.Random(seed)
        order1 = orders(g1, rng)[2]
        order2 = orders(g2, rng)[2]
        assert_same_index(
            GraphPairIndex(g1, g2, order1=order1, order2=order2),
            GraphPairIndex(t1, t2, order1=order1, order2=order2),
        )

    def test_equal_table_ids_keep_no_arrays(self):
        # 1 and True are one dict key: the arrays would name it twice.
        g = Graph.from_dense_edges([1, True, 2], [0, 2], [2, 1])
        assert g.recorded_edges() is None
        assert_sources_agree(g, 0)

    def test_recorded_arrays_are_read_only(self):
        g = bulk_build(list("abcd"), [(0, 1), (2, 3)], [])
        for arr in g.recorded_edges():
            assert arr.dtype == np.int32
            assert not arr.flags.writeable


#: The mutations :func:`mutate` applies; ``_old`` ones change nothing.
MUTATORS = (
    "add_node_new",
    "add_node_old",
    "add_edge_new",
    "add_edge_old",
    "remove_edge",
    "remove_node",
    "copy",
)


def mutate(g: Graph, op: str, rng: random.Random, fresh: int) -> Graph:
    """Apply *op* to *g* (or to a copy of it, for ``"copy"``) and return
    the graph the wall checks next."""
    nodes = list(g.nodes())
    edges = list(g.edges())
    if op == "add_node_new":
        g.add_node(("new", fresh))
    elif op == "add_node_old" and nodes:
        g.add_node(rng.choice(nodes))
    elif op == "add_edge_new" and nodes:
        g.add_edge(rng.choice(nodes), ("new", fresh))
    elif op == "add_edge_old" and edges:
        recorded = g.recorded_edges()
        assert not g.add_edge(*rng.choice(edges))
        assert g.recorded_edges() is recorded
    elif op == "remove_edge" and edges:
        g.remove_edge(*rng.choice(edges))
    elif op == "remove_node" and nodes:
        g.remove_node(rng.choice(nodes))
    elif op == "copy":
        copied = g.copy()
        assert copied.recorded_edges() is g.recorded_edges()
        return copied
    return g


class TestMutationWall:
    @given(
        bulk_inputs(),
        st.lists(st.sampled_from(MUTATORS), min_size=1, max_size=8),
        st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_mutation_drops_stale_arrays(self, case, ops, seed):
        rng = random.Random(seed)
        g = bulk_build(*case)
        seen = [g]
        for fresh, op in enumerate(ops):
            g = mutate(g, op, rng, fresh)
            seen.append(g)
            assert_sources_agree(g, seed)
        # Mutating a copy leaves the graph it was copied from intact.
        for graph in seen:
            assert_sources_agree(graph, seed)

    @pytest.mark.parametrize("op", MUTATORS[:-1])
    def test_each_changing_mutator_clears(self, op):
        g = bulk_build(list(range(6)), [(0, 1), (1, 2), (3, 4)], [5])
        twin = g.copy()
        changed = mutate(twin, op, random.Random(0), 0)
        if op.endswith("_old"):
            assert changed.recorded_edges() is g.recorded_edges()
        else:
            assert changed.recorded_edges() is None
        assert g.recorded_edges() is not None
        assert_sources_agree(changed, 0)
        assert_sources_agree(g, 0)


@pytest.mark.slow
def test_rmat_native_seed1_csr_pair_digest():
    """The ``rmat-native`` seed-1 pair interns to the recorded CSR bytes."""
    rng_graph, rng_copies, _ = spawn_rngs(1, 3)
    graph = rmat_graph(16, 16 << 16, seed=rng_graph)
    pair = independent_copies(graph, s1=0.5, seed=rng_copies)
    assert pair.g1.recorded_edges() is not None
    digest = csr_pair_digest(GraphPairIndex(pair.g1, pair.g2))
    assert digest == RMAT_SEED1_DIGEST


#: Ids where the numeric key is easiest to get wrong: 0, powers of ten,
#: prefix families, negatives, and both sides of the key's 10**17 limit
#: and of int64.
SPECIAL_INTS = (
    [0, 1, 2, 9, 10, 11, 19, 20, 99, 100, 101, 110, 1000, 12, 120, 1200]
    + [10**k for k in range(20)]
    + [10**17 - 1, 10**17, 10**18, 2**63 - 1, 2**63, 10**30]
)
SPECIAL_INTS += [-v for v in SPECIAL_INTS] + [-(2**63), -(2**63) - 1]

ints = st.one_of(
    st.sampled_from(SPECIAL_INTS),
    st.integers(-1000, 1000),
    st.integers(-(10**17), 10**17),
    st.builds(lambda d, k: d * 10**k, st.integers(-9, 9), st.integers(0, 18)),
)
others = st.one_of(
    st.booleans(),
    st.integers(-50, 50).map(np.int64),
    st.integers(0, 50).map(np.uint32),
    st.text(max_size=3),
    st.tuples(st.integers(-3, 3), st.text(max_size=2)),
    st.floats(allow_nan=False, width=32),
)


def typed(nodes: list) -> list:
    # bool == int and np.int64 == int: compare what the key reads.
    return [(type(v), repr(v)) for v in nodes]


class TestCanonicalOrderWall:
    @given(st.lists(ints, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_plain_ints(self, nodes):
        want = sorted(nodes, key=node_sort_key)
        assert typed(canonical_order(nodes)) == typed(want)

    @given(st.lists(ints, max_size=30), st.lists(others, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_mixed_types_take_the_repr_sort(self, plain, other):
        nodes = plain + other
        random.Random(len(nodes)).shuffle(nodes)
        want = sorted(nodes, key=node_sort_key)
        assert typed(canonical_order(nodes)) == typed(want)

    @pytest.mark.parametrize(
        "nodes",
        [
            [1, 10, 100, 2],
            [100, 10, 1, 0],
            [-1, -10, 0, 5, -5],
            [10**17 - 1, 10**17, 7],
            [2**63, 3, -(2**63)],
            [True, False],
            [np.int64(5), np.int64(10), np.int64(-3)],
            [],
        ],
    )
    def test_examples(self, nodes):
        want = sorted(nodes, key=node_sort_key)
        assert typed(canonical_order(iter(nodes))) == typed(want)
