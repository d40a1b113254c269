"""Unit tests for the bipartite (affiliation) substrate."""

import hashlib
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NodeNotFoundError
from repro.generators.affiliation import affiliation_graph
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.graph import Graph
from repro.sampling.community import correlated_community_copies
from repro.utils.rng import spawn_rngs


@pytest.fixture
def bip():
    b = BipartiteGraph()
    b.add_membership(0, "music")
    b.add_membership(1, "music")
    b.add_membership(1, "chess")
    b.add_membership(2, "chess")
    b.add_membership(3, "hiking")
    return b


class TestBipartiteBasics:
    def test_counts(self, bip):
        assert bip.num_users == 4
        assert bip.num_affiliations == 3
        assert bip.num_memberships == 5

    def test_duplicate_membership(self, bip):
        assert bip.add_membership(0, "music") is False
        assert bip.num_memberships == 5

    def test_affiliations_of(self, bip):
        assert bip.affiliations_of(1) == {"music", "chess"}

    def test_members_of(self, bip):
        assert bip.members_of("chess") == {1, 2}

    def test_missing_user_raises(self, bip):
        with pytest.raises(NodeNotFoundError):
            bip.affiliations_of(99)

    def test_missing_affiliation_raises(self, bip):
        with pytest.raises(NodeNotFoundError):
            bip.members_of("surfing")

    def test_isolated_user(self, bip):
        bip.add_user(9)
        assert bip.affiliations_of(9) == set()
        assert bip.num_users == 5

    def test_repr(self, bip):
        assert "num_users=4" in repr(bip)


class TestFold:
    def test_full_fold(self, bip):
        g = bip.fold()
        assert g.has_edge(0, 1)  # music
        assert g.has_edge(1, 2)  # chess
        assert not g.has_edge(0, 2)
        assert g.num_nodes == 4  # user 3 isolated but present
        assert g.degree(3) == 0

    def test_fold_subset(self, bip):
        g = bip.fold(["chess"])
        assert g.has_edge(1, 2)
        assert not g.has_edge(0, 1)
        assert g.num_nodes == 4

    def test_fold_empty_subset(self, bip):
        g = bip.fold([])
        assert g.num_edges == 0
        assert g.num_nodes == 4

    def test_fold_unknown_affiliation_raises(self, bip):
        with pytest.raises(NodeNotFoundError):
            bip.fold(["surfing"])

    def test_fold_single_member_community_no_edges(self, bip):
        g = bip.fold(["hiking"])
        assert g.num_edges == 0

    def test_fold_triangle_community(self):
        b = BipartiteGraph()
        for u in (0, 1, 2):
            b.add_membership(u, "club")
        g = b.fold()
        assert g.num_edges == 3  # a 3-clique


def loop_fold(bip, affiliations=None):
    """The fold as the per-edge loop built it — the array fold's oracle."""
    g = Graph()
    for user in bip._user_affs:
        g.add_node(user)
    if affiliations is None:
        selected = bip._aff_users
    else:
        selected = affiliations
    for aff in selected:
        members = bip._aff_users.get(aff)
        if members is None:
            raise NodeNotFoundError(aff)
        if len(members) < 2:
            continue
        for u, v in combinations(sorted(members, key=repr), 2):
            g.add_edge(u, v)
    return g


def assert_same_graph(got, want):
    """Equal in node order and every neighbor set's iteration order."""
    assert list(got.nodes()) == list(want.nodes())
    for u in want.nodes():
        assert list(got.neighbors(u)) == list(want.neighbors(u))
    assert got.num_edges == want.num_edges
    assert got.recorded_edges() is not None


def random_bipartite(rng, n_users, n_affs, ids):
    """Memberships over users named by *ids* ("int", "str", "tuple" or
    "mixed"), with empty, single-member and user-less affiliations."""
    names = {
        "int": lambda i: i,
        "str": lambda i: f"u{i}",
        "tuple": lambda i: (i % 3, f"t{i}"),
        "mixed": lambda i: (i, f"u{i}", (i, i))[i % 3],
    }[ids]
    b = BipartiteGraph()
    for i in rng.permutation(n_users).tolist():
        b.add_user(names(i))
    for a in range(n_affs):
        b.add_affiliation(f"a{a}")
        size = int(rng.integers(0, max(2, n_users // 2)))
        for i in rng.choice(n_users, size=min(size, n_users), replace=False):
            b.add_membership(names(int(i)), f"a{a}")
    return b


class TestArrayFold:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_users=st.integers(1, 40),
        n_affs=st.integers(0, 12),
        ids=st.sampled_from(["int", "str", "tuple", "mixed"]),
        subset=st.sampled_from(["all", "some", "duplicated", "none"]),
    )
    def test_equals_the_loop(self, seed, n_users, n_affs, ids, subset):
        rng = np.random.default_rng(seed)
        b = random_bipartite(rng, n_users, n_affs, ids)
        affs = list(b.affiliations())
        if subset == "all":
            selected = None
        elif subset == "some":
            selected = [a for a in affs if rng.random() < 0.5]
        elif subset == "duplicated":
            selected = affs + affs[::2]
        else:
            selected = []
        assert_same_graph(b.fold(selected), loop_fold(b, selected))

    def test_fixture_folds(self, bip):
        for selected in (None, ["chess"], ["hiking"], [], ["music"] * 2):
            assert_same_graph(bip.fold(selected), loop_fold(bip, selected))

    def test_users_without_memberships(self):
        b = BipartiteGraph()
        for u in ("z", 3, (1, 2)):
            b.add_user(u)
        b.add_affiliation("empty")
        assert_same_graph(b.fold(), loop_fold(b))
        assert b.fold().num_edges == 0

    def test_unknown_affiliation_still_raises(self, bip):
        with pytest.raises(NodeNotFoundError):
            bip.fold(["music", "surfing"])

    def test_recorded_edges_describe_the_graph(self, bip):
        g = bip.fold()
        nodes = list(g.nodes())
        src, dst = g.recorded_edges()
        recorded = {
            frozenset((nodes[s], nodes[d]))
            for s, d in zip(src.tolist(), dst.tolist())
        }
        assert recorded == {frozenset(e) for e in g.edges()}


#: sha256 over the node order, ``edges()`` order and every neighbor
#: set's order of the full fold and both copies of the perfbench
#: ``affiliation-pruned`` data set (affiliation_graph(1500, 120) and
#: keep 0.8 copies, both from ``spawn_rngs(0, 3)``), recorded with the
#: per-edge loop fold.
GOLDEN_AFFILIATION_PAIR = (
    "25868af87bcdd67fcc079e2f0e53f0cb7dcd3dbe6e8a6d10760233960066ff4e"
)


@pytest.mark.slow
def test_affiliation_dataset_pair_golden():
    rng_graph, rng_copies, _ = spawn_rngs(0, 3)
    network = affiliation_graph(1500, 120, seed=rng_graph)
    pair = correlated_community_copies(network, keep_prob=0.8, seed=rng_copies)
    h = hashlib.sha256()
    for g in (network.graph, pair.g1, pair.g2):
        h.update(repr(list(g.nodes())).encode())
        h.update(repr(list(g.edges())).encode())
        for v in g.nodes():
            h.update(repr(list(g.neighbors(v))).encode())
    assert (pair.g1.num_edges, pair.g2.num_edges) == (427863, 429456)
    assert h.hexdigest() == GOLDEN_AFFILIATION_PAIR
