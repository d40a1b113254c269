"""Property wall: pruning inside the witness join equals pruning after it.

With community labels the compiled join groups each link's filtered
right row by ``(community, v2)`` and lets a candidate read only its own
community's run plus the unassigned run (every run when the candidate is
unassigned).  The table it writes must be exactly the unpruned join's
table filtered by the frontier-0 ``allowed_mask``: the same ``left``,
``right`` and counts, in the same ascending packed-key order, with the
same ``emitted`` (the full expansion ``Σ a_k · b_k``, pruned pairs
included) — for every label layout, witness floor, CSR index dtype and
output width.  The scipy join behind ``count_witnesses`` must give the
same table too.

The adversarial cases drive the fill pass's edges on purpose: empty and
all-ineligible sides, rows made only of unassigned or only of assigned
nodes, candidates next to every link (dense rows, flushed by scanning
their span, also when the span ends before the last id), right-side ids
at the 64-bit word boundaries, and floors above the link count.  The sanitizer run
(``tests/core/test_native_sanitizer.py``) replays this whole file
against an address/undefined-behaviour-sanitized build of the kernels.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core.kernels import count_witnesses, prune_scores
from repro.core.native import load_native_library
from repro.graphs.communities import CommunityAssignment
from repro.graphs.graph import Graph
from repro.graphs.pair_index import GraphPairIndex


@pytest.fixture(scope="module")
def nk():
    handle = load_native_library(warn=False)
    if handle is None:
        pytest.skip("no C toolchain in this environment")
    return handle


def diagonal(comm1, comm2, k) -> CommunityAssignment:
    """A frontier-0 assignment over the given int64 labels."""
    kk = np.int64(k)
    return CommunityAssignment(
        np.asarray(comm1, dtype=np.int64),
        np.asarray(comm2, dtype=np.int64),
        k,
        0,
        np.arange(k, dtype=np.int64) * (kk + 1),
    )


def graph(rng, n, density):
    a, b = np.triu_indices(n, k=1)
    keep = rng.random(len(a)) < density
    return Graph.from_edges(
        zip(a[keep].tolist(), b[keep].tolist()), nodes=range(n)
    )


def labels(rng, n, k, layout):
    """Community ids in [-1, k) for *n* nodes under one layout."""
    if layout == "unassigned":
        return np.full(n, -1, dtype=np.int64)
    if layout == "sparse":
        # Only every other community is ever used: empty communities.
        used = np.arange(0, k, 2)
        out = rng.choice(used, size=n)
        out[rng.random(n) < 0.3] = -1
        return out.astype(np.int64)
    return rng.integers(-1, k, size=n).astype(np.int64)


def raw(nk, index, link_l, link_r, e1, e2, min_count, communities=None):
    return nk.witness_join(
        index.csr1.indptr,
        index.csr1.indices,
        index.csr2.indptr,
        index.csr2.indices,
        link_l,
        link_r,
        e1,
        e2,
        index.n1,
        index.n2,
        min_count,
        communities=communities,
    )


def assert_pruned_join_equals_filter(nk, index, args, assignment, min_count):
    """The core identity, on the raw join and through count_witnesses."""
    left, right, counts, emitted = raw(nk, index, *args, min_count)
    keep = assignment.allowed_mask(left, right)
    labels32 = (
        assignment.comm1.astype(np.int32),
        assignment.comm2.astype(np.int32),
        assignment.num_communities,
    )
    got = raw(nk, index, *args, min_count, communities=labels32)
    assert got[3] == emitted
    for want, have in zip((left, right, counts), got[:3]):
        assert have.dtype == want.dtype
        assert have.tolist() == want[keep].tolist()
    keys = got[0] * np.int64(index.n2) + got[1]
    assert np.all(np.diff(keys) > 0)

    scores, sweep_emitted = count_witnesses(
        index, *args, native=nk, min_count=min_count, communities=assignment
    )
    assert sweep_emitted == emitted
    assert scores.left.tolist() == got[0].tolist()
    assert scores.right.tolist() == got[1].tolist()
    assert scores.score.tolist() == got[2].tolist()

    fallback, fb_emitted = count_witnesses(
        index, *args, min_count=min_count, communities=assignment
    )
    assert fb_emitted == emitted
    order = np.lexsort((fallback.right, fallback.left))
    assert fallback.left[order].tolist() == got[0].tolist()
    assert fallback.right[order].tolist() == got[1].tolist()
    assert fallback.score[order].tolist() == got[2].tolist()


class TestPrunedJoinEqualsFilter:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n1=st.integers(2, 90),
        n2=st.integers(2, 90),
        density=st.floats(0.05, 0.7),
        n_links=st.integers(1, 14),
        k=st.integers(1, 6),
        layout1=st.sampled_from(["random", "unassigned", "sparse"]),
        layout2=st.sampled_from(["random", "unassigned", "sparse"]),
        min_count=st.integers(1, 3),
        wide1=st.booleans(),
        wide2=st.booleans(),
        out32=st.booleans(),
    )
    def test_random_graphs(
        self,
        seed,
        n1,
        n2,
        density,
        n_links,
        k,
        layout1,
        layout2,
        min_count,
        wide1,
        wide2,
        out32,
    ):
        nk = load_native_library(warn=False)
        if nk is None:
            pytest.skip("no C toolchain in this environment")
        rng = np.random.default_rng(seed)
        index = GraphPairIndex(
            graph(rng, n1, density), graph(rng, n2, density)
        )
        links = min(n_links, n1, n2)
        link_l = rng.choice(n1, size=links, replace=False).astype(np.int64)
        link_r = rng.choice(n2, size=links, replace=False).astype(np.int64)
        e1 = rng.random(n1) < 0.9
        e2 = rng.random(n2) < 0.9
        e1[link_l] = False
        e2[link_r] = False
        if wide1:
            index.csr1.indices = index.csr1.indices.astype(np.int64)
        if wide2:
            index.csr2.indices = index.csr2.indices.astype(np.int64)
        assignment = diagonal(
            labels(rng, n1, k, layout1), labels(rng, n2, k, layout2), k
        )
        cutoff = native._NATIVE_OUT32_MAX if out32 else -1
        with mock.patch.object(native, "_NATIVE_OUT32_MAX", cutoff):
            assert_pruned_join_equals_filter(
                nk, index, (link_l, link_r, e1, e2), assignment, min_count
            )

    def test_off_diagonal_ring_filters_after_the_join(self, nk):
        """A ring wider than the diagonal is not the in-join rule: the
        sweep's counter must fall back to the mask (frontier > 0)."""
        index, *args = star_pair(6)
        comm = np.array([-1, 0, 0, 1, 1, 2, 2], dtype=np.int64)
        ring = CommunityAssignment(
            comm, comm.copy(), 3, 1, np.array([0, 1, 3, 4, 8], dtype=np.int64)
        )
        assert not ring.diagonal_only
        full, emitted = count_witnesses(index, *args, native=nk)
        want = prune_scores(full, ring.allowed_mask(full.left, full.right))
        got, got_emitted = count_witnesses(
            index, *args, native=nk, communities=ring
        )
        assert got_emitted == emitted
        assert got.left.tolist() == want.left.tolist()
        assert got.right.tolist() == want.right.tolist()
        # (1, 3) is in the ring (key 0 * 3 + 1) but off the diagonal.
        assert (1, 3) in set(zip(got.left.tolist(), got.right.tolist()))


def star_pair(leaves, extra_links=0):
    """Two copies of a star; hub 0 and the first *extra_links* leaves
    are identity links, everything else eligible."""
    g = Graph.from_edges([(0, i) for i in range(1, leaves + 1)])
    for i in range(1, extra_links):
        g.add_edge(i, i + 1)
    index = GraphPairIndex(g, g.copy())
    link = np.arange(max(extra_links, 1), dtype=np.int64)
    e = np.ones(index.n1, dtype=bool)
    e[link] = False
    return index, link, link.copy(), e, e.copy()


def dense_bipartite_pair(n_links, n_cands, first=None, n_total=None):
    """Every candidate is next to every link on both sides: each
    candidate reads every link's row, dense over its span.  Candidates
    are ids ``first..first + n_cands - 1``; any other id up to
    *n_total* is isolated, so the span can sit inside the id range."""
    first = n_links if first is None else first
    n_total = first + n_cands if n_total is None else n_total
    edges = [
        (u, first + c) for u in range(n_links) for c in range(n_cands)
    ]
    g = Graph.from_edges(edges, nodes=range(n_total))
    index = GraphPairIndex(g, g.copy())
    link = np.arange(n_links, dtype=np.int64)
    e = np.ones(index.n1, dtype=bool)
    e[link] = False
    return index, link, link.copy(), e, e.copy()


ADVERSARIAL = {
    # A hub link whose row is the whole graph, one run per community.
    "star-64": lambda: star_pair(64),
    # Right-side ids straddling the 64-bit bitmap word boundaries.
    "star-130": lambda: star_pair(130, extra_links=3),
    "bipartite-3x70": lambda: dense_bipartite_pair(3, 70),
    "bipartite-9x64": lambda: dense_bipartite_pair(9, 64),
    # Dense rows over words 1-3 of a 5-word id range.
    "bipartite-5x130-inner": lambda: dense_bipartite_pair(5, 130, 70, 300),
}


def adversarial_labels(n, k, rule):
    ids = np.arange(n)
    if rule == "unassigned":
        return np.full(n, -1, dtype=np.int64)
    if rule == "one-community":
        return np.zeros(n, dtype=np.int64)
    if rule == "alternating":
        return np.where(ids % 3 == 0, -1, ids % k).astype(np.int64)
    # "singletons": every node its own community, so every run has one
    # entry and almost nothing survives.
    return (ids % k).astype(np.int64)


class TestAdversarialInputs:
    @pytest.mark.parametrize("shape", sorted(ADVERSARIAL))
    @pytest.mark.parametrize(
        "rule", ["unassigned", "one-community", "alternating", "singletons"]
    )
    @pytest.mark.parametrize("min_count", [1, 2, 4, 100])
    def test_shape(self, nk, shape, rule, min_count):
        index, *args = ADVERSARIAL[shape]()
        k = index.n1 if rule == "singletons" else 5
        comm1 = adversarial_labels(index.n1, k, rule)
        comm2 = adversarial_labels(index.n2, k, rule)
        assert_pruned_join_equals_filter(
            nk, index, tuple(args), diagonal(comm1, comm2, k), min_count
        )

    @pytest.mark.parametrize("side", [1, 2, 0])
    def test_nothing_eligible(self, nk, side):
        index, link_l, link_r, e1, e2 = star_pair(10)
        if side in (1, 0):
            e1[:] = False
        if side in (2, 0):
            e2[:] = False
        assignment = diagonal(
            np.zeros(index.n1, dtype=np.int64),
            np.zeros(index.n2, dtype=np.int64),
            1,
        )
        assert_pruned_join_equals_filter(
            nk, index, (link_l, link_r, e1, e2), assignment, 1
        )

    def test_links_with_empty_rows(self, nk):
        # Isolated linked nodes: their filtered rows (and runs) are empty.
        g = Graph.from_edges([(0, 1), (1, 2)], nodes=range(6))
        index = GraphPairIndex(g, g.copy())
        link = np.array([3, 4, 5, 1], dtype=np.int64)
        e = np.ones(index.n1, dtype=bool)
        e[link] = False
        assignment = diagonal(
            np.array([0, -1, 0, 1, 1, 1]), np.array([0, -1, 1, 1, 1, 1]), 2
        )
        assert_pruned_join_equals_filter(
            nk, index, (link, link.copy(), e, e.copy()), assignment, 1
        )

    @pytest.mark.parametrize("min_count", [1, 2])
    def test_floor_counts_only_links_with_allowed_runs(self, nk, min_count):
        # Candidate 2 (community 0) is next to links 0 and 1, but only
        # link 0's row {2, 3} has an allowed entry (3); link 1's row
        # {2, 4} is all community 1.  One contributing link is below a
        # floor of 2, so nothing may be written for candidate 2.
        g = Graph.from_edges([(0, 2), (1, 2), (0, 3), (1, 4)])
        index = GraphPairIndex(g, g.copy())
        link = np.array([0, 1], dtype=np.int64)
        e = np.ones(index.n1, dtype=bool)
        e[link] = False
        comm = np.array([-1, -1, 0, 0, 1])
        assignment = diagonal(comm, np.array([-1, -1, 1, 0, 1]), 2)
        assert_pruned_join_equals_filter(
            nk, index, (link, link.copy(), e, e.copy()), assignment, min_count
        )
        scores, _ = count_witnesses(
            index,
            link,
            link.copy(),
            e,
            e.copy(),
            native=nk,
            min_count=min_count,
            communities=assignment,
        )
        pairs = set(zip(scores.left.tolist(), scores.right.tolist()))
        if min_count == 1:
            assert (2, 3) in pairs
        else:
            assert 2 not in scores.left.tolist()

    def test_no_communities_at_all(self, nk):
        # An assignment with K = 0 (no seeds): every label is -1.
        index, *args = star_pair(20)
        assignment = CommunityAssignment(
            np.full(index.n1, -1, dtype=np.int64),
            np.full(index.n2, -1, dtype=np.int64),
            0,
            0,
            np.empty(0, dtype=np.int64),
        )
        assert_pruned_join_equals_filter(nk, index, tuple(args), assignment, 1)
