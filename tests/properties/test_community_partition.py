"""Property wall: the community partition equals its reference build.

Every backend consults one :func:`assign_communities` result, so the
matcher parity walls cannot see a wrong partition: all seven matchers
would agree on it.  This wall pins the partition itself.  The oracle
below is the original sort-per-round propagation (every directed union
edge lexsorted every round, every slot re-voted, labeled ones thrown
away) and the ``np.unique``/``searchsorted`` quotient build, kept
verbatim.  The wavefront propagation, the dense label remap and the
frontier-0 shortcut must reproduce it exactly: ``labels``,
``union1/2``, ``edges``, ``comm1/2``, ``num_communities`` and
``allowed_keys``.  A golden digest pins the ``affiliation-pruned``
benchmark assignment as well.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators.affiliation import affiliation_graph
from repro.graphs.communities import (
    DEFAULT_MAX_ROUNDS,
    _expand_frontier,
    assign_communities,
    union_label_propagation,
)
from repro.graphs.graph import Graph
from repro.graphs.pair_index import GraphPairIndex
from repro.sampling.community import correlated_community_copies
from repro.seeds.generators import sample_seeds
from repro.utils.rng import spawn_rngs


def _mode_per_node(src, neighbor_labels, labels):
    """One synchronous update: modal neighbor label per node (oracle)."""
    new_labels = labels.copy()
    labeled = neighbor_labels >= 0
    src = src[labeled]
    neighbor_labels = neighbor_labels[labeled]
    if len(src) == 0:
        return new_labels
    order = np.lexsort((neighbor_labels, src))
    s, lbl = src[order], neighbor_labels[order]
    # Run-length encode the sorted (node, label) occurrence stream.
    boundary = np.empty(len(s), dtype=bool)
    boundary[0] = True
    np.logical_or(s[1:] != s[:-1], lbl[1:] != lbl[:-1], out=boundary[1:])
    run_start = np.flatnonzero(boundary)
    run_src = s[run_start]
    run_lbl = lbl[run_start]
    run_count = np.diff(np.append(run_start, len(s)))
    # Winner per node: maximum count, then smallest label.  Runs are
    # already label-ascending within a node, so a stable sort by
    # descending count keeps the smallest label first among ties.
    pick = np.lexsort((run_lbl, -run_count, run_src))
    first = np.empty(len(pick), dtype=bool)
    first[0] = True
    first[1:] = run_src[pick][1:] != run_src[pick][:-1]
    winners = pick[first]
    new_labels[run_src[winners]] = run_lbl[winners]
    return new_labels


def oracle_propagation(index, seed_left, seed_right, max_rounds):
    n1, n2 = index.n1, index.n2
    n_total = n1 + n2
    union1 = np.arange(n1, dtype=np.int64)
    union2 = np.arange(n2, dtype=np.int64) + n1
    if len(seed_right):
        union2[seed_right] = seed_left
    deg1 = index.deg1
    deg2 = index.deg2
    src = np.concatenate(
        [
            np.repeat(union1, deg1),
            np.repeat(union2, deg2),
        ]
    )
    dst = np.concatenate(
        [
            index.csr1.indices.astype(np.int64),
            union2[index.csr2.indices.astype(np.int64)],
        ]
    )
    edges = np.stack([src, dst])
    labels = np.full(n_total, -1, dtype=np.int64)
    if len(seed_left) == 0 or len(src) == 0:
        labels[seed_left] = seed_left
        return labels, union1, union2, edges
    labels[seed_left] = seed_left
    for _round in range(max_rounds):
        voted = _mode_per_node(src, labels[dst], labels)
        grown = np.where(labels < 0, voted, labels)
        if np.array_equal(grown, labels):
            break
        labels = grown
    return labels, union1, union2, edges


def oracle_assignment(index, seed_left, seed_right, frontier, max_rounds):
    labels, union1, union2, edges = oracle_propagation(
        index, seed_left, seed_right, max_rounds
    )
    raw1 = labels[union1]
    raw2 = labels[union2]
    uniq = np.unique(
        np.concatenate([raw1[raw1 >= 0], raw2[raw2 >= 0]])
    )
    comm1 = np.full(index.n1, -1, dtype=np.int64)
    comm2 = np.full(index.n2, -1, dtype=np.int64)
    comm1[raw1 >= 0] = np.searchsorted(uniq, raw1[raw1 >= 0])
    comm2[raw2 >= 0] = np.searchsorted(uniq, raw2[raw2 >= 0])
    k = len(uniq)
    if k == 0:
        return comm1, comm2, 0, np.empty(0, dtype=np.int64)
    kk = np.int64(k)
    lsrc = labels[edges[0]]
    ldst = labels[edges[1]]
    assigned = (lsrc >= 0) & (ldst >= 0)
    qsrc = np.searchsorted(uniq, lsrc[assigned])
    qdst = np.searchsorted(uniq, ldst[assigned])
    cross = qsrc != qdst
    qkeys = np.unique(qsrc[cross] * kk + qdst[cross])
    qa, qb = qkeys // kk, qkeys % kk
    qindptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(qa, minlength=k), out=qindptr[1:])
    allowed = np.arange(k, dtype=np.int64) * kk + np.arange(
        k, dtype=np.int64
    )
    allowed = _expand_frontier(allowed, qindptr, qb, k, frontier)
    return comm1, comm2, k, allowed


def id_pool(kind: str, n: int) -> list:
    if kind == "int":
        return [(-1) ** i * 8 * i for i in range(n)]
    if kind == "str":
        return [f"user-{i}" for i in range(n)]
    return [i if i % 2 else f"u{i}" for i in range(n)]


@st.composite
def graph_pairs(draw):
    """A graph pair plus seed links over one id pool.

    ``shape`` picks the topology: ``"random"`` draws both edge sets,
    ``"ties"`` joins every non-seed node to two distinct seeds in both
    graphs (a node sees equal counts of two labels), and ``"path"``
    needs one round per hop, so round bounds bite.  The last
    ``orphans`` ids form a component no seed reaches.
    """
    kind = draw(st.sampled_from(["int", "str", "mixed"]))
    shape = draw(st.sampled_from(["random", "ties", "path"]))
    n = draw(st.integers(2, 24))
    orphans = draw(st.integers(0, min(4, n - 1)))
    core = n - orphans
    ids = id_pool(kind, n)
    pair_st = st.tuples(st.integers(0, core - 1), st.integers(0, core - 1))
    seed_mode = draw(st.sampled_from(["none", "some", "all"]))
    if seed_mode == "none":
        seeded = []
    elif seed_mode == "all":
        seeded = list(range(core))
    else:
        seeded = sorted(
            draw(st.sets(st.integers(0, core - 1), min_size=1, max_size=core))
        )
    if shape == "random":
        e1 = draw(st.lists(pair_st, max_size=3 * n))
        e2 = draw(st.lists(pair_st, max_size=3 * n))
    elif shape == "ties":
        anchors = seeded if len(seeded) >= 2 else list(range(min(2, core)))
        e1 = []
        for v in range(core):
            if v in anchors or len(anchors) < 2:
                continue
            a, b = draw(st.permutations(anchors))[:2]
            e1 += [(v, a), (v, b)]
        e2 = list(e1)
    else:
        e1 = [(i, i + 1) for i in range(core - 1)]
        e2 = draw(st.lists(pair_st, max_size=n))
    orphan_edges = [(core + i, core + i + 1) for i in range(orphans - 1)]
    g1, g2 = Graph(), Graph()
    for g, edges in ((g1, e1 + orphan_edges), (g2, e2 + orphan_edges)):
        for v in ids:
            g.add_node(v)
        for a, b in edges:
            if a != b:
                g.add_edge(ids[a], ids[b])
    # Seed links map a g1 node to a (shuffled) distinct g2 node.
    targets = draw(st.permutations(seeded))
    seeds = {ids[a]: ids[b] for a, b in zip(seeded, targets)}
    return g1, g2, seeds


def both(index, seeds, frontier, max_rounds):
    seed_left, seed_right = index.intern_links(seeds)
    got = assign_communities(
        index, seed_left, seed_right, frontier=frontier, max_rounds=max_rounds
    )
    want = oracle_assignment(
        index, seed_left, seed_right, frontier, max_rounds
    )
    return got, want


def assert_same_assignment(got, want) -> None:
    comm1, comm2, k, allowed = want
    assert got.num_communities == k
    assert np.array_equal(got.comm1, comm1)
    assert np.array_equal(got.comm2, comm2)
    assert got.comm1.dtype == comm1.dtype and got.comm2.dtype == comm2.dtype
    assert np.array_equal(got.allowed_keys, allowed)


ROUNDS = st.sampled_from([0, 1, 2, DEFAULT_MAX_ROUNDS])


class TestPartitionMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(graph_pairs(), ROUNDS)
    def test_propagation_matches_oracle(self, pair, max_rounds):
        g1, g2, seeds = pair
        index = GraphPairIndex(g1, g2)
        seed_left, seed_right = index.intern_links(seeds)
        got = union_label_propagation(
            index, seed_left, seed_right, max_rounds=max_rounds
        )
        want = oracle_propagation(index, seed_left, seed_right, max_rounds)
        names = ("labels", "union1", "union2", "edges")
        for name, a, b in zip(names, got, want):
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name

    @settings(max_examples=300, deadline=None)
    @given(graph_pairs(), ROUNDS, st.sampled_from([0, 1, 2]))
    def test_assignment_matches_oracle(self, pair, max_rounds, frontier):
        g1, g2, seeds = pair
        got, want = both(GraphPairIndex(g1, g2), seeds, frontier, max_rounds)
        assert_same_assignment(got, want)


class TestPinnedCases:
    """Deterministic cases for each way a propagation can go wrong."""

    def test_tie_goes_to_smaller_label(self):
        # Node 9 sees seed 1 and seed 2 once each on both sides.
        g = Graph.from_edges([(9, 1), (9, 2)])
        index = GraphPairIndex(g, g.copy())
        seed_left, seed_right = index.intern_links({1: 1, 2: 2})
        labels, union1, union2, _ = union_label_propagation(
            index, seed_left, seed_right
        )
        v = index.csr1.node_ids.index(9)
        small = min(seed_left.tolist())
        assert labels[union1[v]] == small
        assert labels[union2[v]] == small

    def test_frozen_nodes_do_not_revote(self):
        # Node 5 takes seed 0's label in round 1; in round 2 it would see
        # three neighbors labeled from seed 9 and flip if it re-voted.
        edges = [(0, 5), (9, 1), (9, 2), (9, 3)]
        edges += [(5, 1), (5, 2), (5, 3)]
        g = Graph.from_edges(edges)
        got, want = both(GraphPairIndex(g, g.copy()), {0: 0, 9: 9}, 0, 15)
        assert_same_assignment(got, want)
        assert got.num_communities == 2

    @pytest.mark.parametrize("max_rounds", [0, 1, 2, 3, DEFAULT_MAX_ROUNDS])
    def test_round_bound_on_a_path(self, max_rounds):
        g = Graph.from_edges([(i, i + 1) for i in range(8)])
        index = GraphPairIndex(g, Graph.from_edges([(0, 1)]))
        seed_left, seed_right = index.intern_links({0: 0})
        labels, union1, _u2, _e = union_label_propagation(
            index, seed_left, seed_right, max_rounds=max_rounds
        )
        reached = int((labels[union1] >= 0).sum())
        assert reached == min(1 + max_rounds, 9)
        got, want = both(index, {0: 0}, 1, max_rounds)
        assert_same_assignment(got, want)

    def test_unreached_component_stays_unassigned(self):
        g = Graph.from_edges([(0, 1), (1, 2), (7, 8)])
        got, want = both(GraphPairIndex(g, g.copy()), {0: 0}, 2, 15)
        assert_same_assignment(got, want)
        assert (got.comm1 == -1).sum() == 2


def affiliation_index():
    """The ``affiliation-pruned`` benchmark pair at seed 0."""
    rng_graph, rng_copies, rng_seeds = spawn_rngs(0, 3)
    network = affiliation_graph(1500, 120, seed=rng_graph)
    pair = correlated_community_copies(network, keep_prob=0.8, seed=rng_copies)
    seeds = sample_seeds(pair, 0.05, seed=rng_seeds)
    index = GraphPairIndex(pair.g1, pair.g2)
    return index, *index.intern_links(seeds)


#: sha256 over ``comm1``, ``comm2`` and ``allowed_keys`` (int64 bytes)
#: then ``str(num_communities)``, recorded from the sort-per-round build.
GOLDEN = {
    0: "84e1dc0a95e031bd3ab1a98f7596ecd6f45eb25d3c3f925fb70aef324bc972b9",
    1: "fd3285523edd3fd11dd3a771dff9e7e9fe474f60cff507107859e39681862092",
    2: "71e6fab0d620972e175d29f6339366c209a2c047657b2786d099457bbd7112f8",
}


class TestGoldenAffiliation:
    @pytest.fixture(scope="class")
    def workload(self):
        return affiliation_index()

    @pytest.mark.parametrize("frontier", sorted(GOLDEN))
    def test_digest_pinned(self, workload, frontier):
        index, seed_left, seed_right = workload
        a = assign_communities(index, seed_left, seed_right, frontier=frontier)
        digest = hashlib.sha256()
        for arr in (a.comm1, a.comm2, a.allowed_keys):
            digest.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
        digest.update(str(a.num_communities).encode())
        assert a.num_communities == 94
        assert digest.hexdigest() == GOLDEN[frontier]
