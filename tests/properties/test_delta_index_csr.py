"""DeltaIndex CSR wall: every delta leaves a from-scratch-equal adjacency.

:meth:`~repro.incremental.delta_index.DeltaIndex.apply_delta` splices each
delta into fresh CSR arrays instead of re-interning.  Hypothesis drives
random delta sequences — edges added then removed (within one delta and
across deltas), new nodes on both sides with edges between two new
nodes, isolated added nodes, seed-only deltas, int/str/mixed ids — and
after every delta the index must equal a fresh
:class:`~repro.graphs.csr.CSRGraph` built in the index's dense order,
with consistent degrees, exponents and canonical ranks, while the
returned :class:`~repro.incremental.delta_index.AppliedDelta` still
holds the exact pre-delta adjacency.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ordering import node_sort_key
from repro.generators.erdos_renyi import gnp_graph
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph
from repro.graphs.pair_index import compact_csr_indices, degree_exponents
from repro.incremental.delta import GraphDelta, validate_delta
from repro.incremental.delta_index import DeltaIndex

ID_KINDS = {
    "int": lambda i: i,
    "str": lambda i: f"u{i}",
    # Base nodes are ints, appended nodes strings: the canonical order
    # interleaves the two kinds.
    "mixed": lambda i: i if i < 1000 else f"u{i}",
}


def relabeled(graph: Graph, name) -> Graph:
    out = Graph()
    for node in graph.nodes():
        out.add_node(name(node))
    for u, v in graph.edges():
        out.add_edge(name(u), name(v))
    return out


def snapshot(csr: CSRGraph):
    return csr.indptr.copy(), csr.indices.copy(), list(csr.node_ids)


def assert_csr_equal(csr: CSRGraph, expected) -> None:
    indptr, indices, node_ids = expected
    assert csr.node_ids == node_ids
    assert np.array_equal(csr.indptr, indptr)
    assert csr.indices.dtype == indices.dtype
    assert np.array_equal(csr.indices, indices)


def assert_index_current(index: DeltaIndex) -> None:
    for side in (1, 2):
        graph = index.g1 if side == 1 else index.g2
        csr = index.csr1 if side == 1 else index.csr2
        n = index.n1 if side == 1 else index.n2
        node_of = index.node1 if side == 1 else index.node2
        order = [node_of(d) for d in range(n)]
        fresh = CSRGraph(graph, order=order)
        compact_csr_indices(fresh)
        assert_csr_equal(csr, snapshot(fresh))
        deg = index.deg1 if side == 1 else index.deg2
        exp = index.exp1 if side == 1 else index.exp2
        assert np.array_equal(deg, np.diff(fresh.indptr))
        assert np.array_equal(exp, degree_exponents(deg))
        rank = index.rank1 if side == 1 else index.rank2
        unrank = index.unrank1 if side == 1 else index.unrank2
        assert np.array_equal(unrank[rank], np.arange(n))
        assert [order[d] for d in unrank] == sorted(order, key=node_sort_key)


def draw_delta(data, index: DeltaIndex, name, counter: list) -> GraphDelta:
    """One random strict delta against the index's current graphs."""

    def new_node():
        counter[0] += 1
        return name(counter[0])

    kwargs: dict = {"added_edges1": [], "added_edges2": [],
                    "removed_edges1": [], "removed_edges2": [],
                    "added_nodes1": [], "added_nodes2": []}
    kind = data.draw(st.sampled_from(["edges", "seed-only", "nodes-only"]))
    for side, graph in ((1, index.g1), (2, index.g2)):
        if kind == "seed-only":
            break
        nodes = sorted(graph.nodes(), key=node_sort_key)
        isolated = [new_node() for _ in range(data.draw(st.integers(0, 2)))]
        kwargs[f"added_nodes{side}"] = isolated
        if kind == "nodes-only":
            continue
        present = sorted(
            graph.edges(),
            key=lambda e: (node_sort_key(e[0]), node_sort_key(e[1])),
        )
        removed = data.draw(
            st.lists(st.sampled_from(present), max_size=4, unique=True)
            if present
            else st.just([])
        )
        added = []
        seen = {frozenset(e) for e in present}
        fresh = [new_node() for _ in range(data.draw(st.integers(0, 3)))]
        pool = nodes + isolated + fresh
        for _ in range(data.draw(st.integers(0, 6)) if pool else 0):
            u = data.draw(st.sampled_from(pool))
            v = data.draw(st.sampled_from(pool))
            if u != v and frozenset((u, v)) not in seen:
                seen.add(frozenset((u, v)))
                added.append((u, v))
        # Added then removed within the same delta.
        if added and data.draw(st.booleans()):
            removed.append(added[0])
        kwargs[f"added_edges{side}"] = added
        kwargs[f"removed_edges{side}"] = removed
    g1_nodes = sorted(index.g1.nodes(), key=node_sort_key)
    g2_nodes = sorted(index.g2.nodes(), key=node_sort_key)
    seeds = {}
    if kind == "seed-only" and g1_nodes and g2_nodes:
        seeds = {data.draw(st.sampled_from(g1_nodes)):
                 data.draw(st.sampled_from(g2_nodes))}
    return GraphDelta.build(added_seeds=seeds, **kwargs)


@given(
    data=st.data(),
    n=st.integers(0, 25),
    p=st.floats(0.0, 0.3),
    seed=st.integers(0, 10_000),
    id_kind=st.sampled_from(sorted(ID_KINDS)),
    steps=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_every_delta_leaves_a_fresh_equal_csr(data, n, p, seed, id_kind, steps):
    name = ID_KINDS[id_kind]
    g1 = relabeled(gnp_graph(n, p, seed=seed), name)
    g2 = relabeled(gnp_graph(n, p, seed=seed + 1), name)
    index = DeltaIndex(g1, g2)
    assert_index_current(index)
    counter = [1000]
    for _ in range(steps):
        delta = draw_delta(data, index, name, counter)
        validate_delta(index.g1, index.g2, delta)
        before1, before2 = snapshot(index.csr1), snapshot(index.csr2)
        old_deg1, old_deg2 = index.deg1.copy(), index.deg2.copy()
        applied = index.apply_delta(delta)
        assert_csr_equal(applied.old_csr1, before1)
        assert_csr_equal(applied.old_csr2, before2)
        assert np.array_equal(applied.old_deg1, old_deg1)
        assert np.array_equal(applied.old_deg2, old_deg2)
        for changed, dense, edges in (
            (applied.changed1, index.dense1,
             delta.added_edges1 + delta.removed_edges1),
            (applied.changed2, index.dense2,
             delta.added_edges2 + delta.removed_edges2),
        ):
            expected = sorted({dense(v) for edge in edges for v in edge})
            assert changed.tolist() == expected
        assert_index_current(index)
