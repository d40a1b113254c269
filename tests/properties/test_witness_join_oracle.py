"""The one serial witness counter against a brute-force oracle.

Every array-backend round scores its candidates through
:func:`repro.core.kernels.count_witnesses`: for each link ``(u1, u2)``
every eligible neighbor ``v1`` of ``u1`` pairs with every eligible
neighbor ``v2`` of ``u2``, one similarity witness per co-occurrence.
The oracle (``oracle_helpers.witness_join_oracle``) spells that
definition out as nested Python loops over the CSR rows and compares, for both implementations behind the
signature (the scipy sparse join and the compiled row-major join):

- the table itself, as an order-free ``{(v1, v2): count}`` map, with
  unique pairs and every count at least ``min_count``;
- the reported work ``Σ a_k · b_k``, which never depends on
  ``min_count`` or on pruning;
- community pruning, with the allowed relation re-derived from the
  assignment's raw ``comm1``/``comm2``/``allowed_keys`` arrays rather
  than from :meth:`CommunityAssignment.allowed_mask`.

The grid crosses five graph families (each with its own degree shape),
three eligibility masks and the ``min_count`` floors the sweep uses.
"""

from collections import Counter

import numpy as np
import pytest
from oracle_helpers import as_table, round_inputs
from oracle_helpers import witness_join_oracle as oracle

from repro.core.diagnostics import explain_pair
from repro.core.kernels import count_witnesses
from repro.core.native import load_native_library
from repro.generators.affiliation import affiliation_graph
from repro.generators.erdos_renyi import gnp_graph
from repro.generators.preferential_attachment import (
    preferential_attachment_graph,
)
from repro.generators.rmat import rmat_graph
from repro.generators.small_world import watts_strogatz_graph
from repro.graphs.communities import assign_communities
from repro.graphs.graph import Graph
from repro.graphs.pair_index import GraphPairIndex
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds

#: Family name -> underlying-graph builder (small enough for the loops).
FAMILIES = {
    "gnp": lambda: gnp_graph(90, 0.08, seed=3),
    "pa": lambda: preferential_attachment_graph(140, 3, seed=5),
    "rmat": lambda: rmat_graph(7, 700, seed=7),
    "small-world": lambda: watts_strogatz_graph(100, 6, 0.2, seed=11),
    "affiliation": lambda: affiliation_graph(80, 30, seed=13).graph,
}

ELIGIBILITY = ("all", "unlinked-floor2", "random")


def workload(family, s=0.75, link_prob=0.3):
    g = FAMILIES[family]()
    pair = independent_copies(g, s, seed=21)
    seeds = sample_seeds(pair, link_prob, seed=22)
    index = GraphPairIndex(pair.g1, pair.g2)
    link_l, link_r = index.intern_links(seeds)
    return index, link_l, link_r


def masks(index, link_l, link_r, mode):
    """The ``(eligible1, eligible2)`` pair for one eligibility mode."""
    if mode == "all":
        return (
            np.ones(index.n1, dtype=bool),
            np.ones(index.n2, dtype=bool),
        )
    if mode == "unlinked-floor2":
        eligible1, eligible2 = index.eligibility(2)
        eligible1, eligible2 = eligible1.copy(), eligible2.copy()
        eligible1[link_l] = False
        eligible2[link_r] = False
        return eligible1, eligible2
    rng = np.random.default_rng(31)
    return rng.random(index.n1) < 0.6, rng.random(index.n2) < 0.6


def kernel(name):
    """``None`` for the scipy join, the compiled handle for native."""
    if name == "csr":
        return None
    handle = load_native_library(warn=False)
    if handle is None:
        pytest.skip("no C toolchain in this environment")
    return handle


def allowed_rule(assignment):
    """The pruning relation, rebuilt from the assignment's raw arrays."""
    comm1 = assignment.comm1.tolist()
    comm2 = assignment.comm2.tolist()
    k = max(assignment.num_communities, 1)
    ring = set(assignment.allowed_keys.tolist())

    def allowed(v1, v2):
        c1, c2 = comm1[v1], comm2[v2]
        return c1 < 0 or c2 < 0 or c1 * k + c2 in ring

    return allowed


@pytest.mark.parametrize("kernel_name", ["csr", "native"])
@pytest.mark.parametrize("min_count", [1, 2, 3])
@pytest.mark.parametrize("mode", ELIGIBILITY)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_table_matches_oracle(family, mode, min_count, kernel_name):
    index, link_l, link_r = workload(family)
    eligible1, eligible2 = masks(index, link_l, link_r, mode)
    want, want_emitted = oracle(
        index, link_l, link_r, eligible1, eligible2, min_count
    )
    scores, emitted = count_witnesses(
        index, link_l, link_r, eligible1, eligible2,
        native=kernel(kernel_name), min_count=min_count,
    )
    got = as_table(scores)
    assert emitted == want_emitted
    assert got == want
    assert all(c >= min_count for c in got.values())
    if min_count == 1:
        # Every witness lands in exactly one pair's count.
        assert scores.total_score() == emitted


@pytest.mark.parametrize("kernel_name", ["csr", "native"])
@pytest.mark.parametrize("min_count", [1, 2])
@pytest.mark.parametrize("frontier", [0, 1])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_pruned_table_matches_oracle(family, frontier, min_count,
                                     kernel_name):
    index, link_l, link_r = workload(family)
    eligible1, eligible2 = masks(index, link_l, link_r, "unlinked-floor2")
    assignment = assign_communities(
        index, link_l, link_r, frontier=frontier
    )
    want, want_emitted = oracle(
        index, link_l, link_r, eligible1, eligible2, min_count,
        allowed=allowed_rule(assignment),
    )
    scores, emitted = count_witnesses(
        index, link_l, link_r, eligible1, eligible2,
        native=kernel(kernel_name), min_count=min_count,
        communities=assignment,
    )
    assert emitted == want_emitted
    assert as_table(scores) == want


@pytest.mark.parametrize("kernel_name", ["csr", "native"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_pruning_only_removes_pairs(family, kernel_name):
    """A pruned table is the unpruned one restricted to allowed pairs."""
    index, link_l, link_r = workload(family)
    eligible1, eligible2 = masks(index, link_l, link_r, "unlinked-floor2")
    assignment = assign_communities(index, link_l, link_r, frontier=0)
    handle = kernel(kernel_name)
    full, full_emitted = count_witnesses(
        index, link_l, link_r, eligible1, eligible2, native=handle
    )
    pruned, pruned_emitted = count_witnesses(
        index, link_l, link_r, eligible1, eligible2, native=handle,
        communities=assignment,
    )
    allowed = allowed_rule(assignment)
    assert pruned_emitted == full_emitted
    assert as_table(pruned) == {
        pair: c for pair, c in as_table(full).items() if allowed(*pair)
    }


@pytest.mark.parametrize("kernel_name", ["csr", "native"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_link_order_does_not_change_the_table(family, kernel_name):
    """The serial sweep visits links in one pass; their order is free."""
    index, link_l, link_r = workload(family)
    eligible1, eligible2 = masks(index, link_l, link_r, "unlinked-floor2")
    handle = kernel(kernel_name)
    ref, ref_emitted = count_witnesses(
        index, link_l, link_r, eligible1, eligible2, native=handle
    )
    order = np.random.default_rng(41).permutation(len(link_l))
    perm, perm_emitted = count_witnesses(
        index, link_l[order], link_r[order], eligible1, eligible2,
        native=handle,
    )
    assert perm_emitted == ref_emitted
    assert as_table(perm) == as_table(ref)


@pytest.mark.parametrize("kernel_name", ["csr", "native"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_split_links_sum_to_the_whole(family, kernel_name):
    """Witness counts are additive over any split of the link set."""
    index, link_l, link_r = workload(family)
    eligible1, eligible2 = masks(index, link_l, link_r, "unlinked-floor2")
    handle = kernel(kernel_name)
    whole, whole_emitted = count_witnesses(
        index, link_l, link_r, eligible1, eligible2, native=handle
    )
    cut = len(link_l) // 3
    total: Counter = Counter()
    emitted = 0
    for part in (slice(0, cut), slice(cut, None)):
        scores, part_emitted = count_witnesses(
            index, link_l[part], link_r[part], eligible1, eligible2,
            native=handle,
        )
        total.update(as_table(scores))
        emitted += part_emitted
    assert emitted == whole_emitted
    assert dict(total) == as_table(whole)


def two_triangles():
    """Two identical triangles with an extra pendant, same ids."""
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    return GraphPairIndex(Graph.from_edges(edges), Graph.from_edges(edges))


@pytest.mark.parametrize("kernel_name", ["csr", "native"])
class TestDefinitionOne:
    """Hand-checked rounds: the table over original ids, by example."""

    def scores(self, kernel_name, index, links, min_degree=1):
        args = round_inputs(index, links, min_degree)
        scores, emitted = count_witnesses(
            index, *args, native=kernel(kernel_name)
        )
        assert (as_table(scores), emitted) == oracle(index, *args)
        return scores.to_dict(), emitted

    def test_one_link_scores_each_neighbor_pair(self, kernel_name):
        table, emitted = self.scores(kernel_name, two_triangles(), {0: 0})
        assert table == {1: {1: 1, 2: 1}, 2: {1: 1, 2: 1}}
        assert emitted == 4

    def test_scores_match_explained_pairs(self, kernel_name, pa_pair,
                                          pa_seeds):
        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        table, _ = self.scores(kernel_name, index, pa_seeds)
        checked = 0
        for v1, row in list(table.items())[:20]:
            for v2, sc in list(row.items())[:5]:
                assert sc == explain_pair(
                    pa_pair.g1, pa_pair.g2, pa_seeds, v1, v2
                ).score
                checked += 1
        assert checked > 0

    def test_linked_nodes_are_not_candidates(self, kernel_name):
        table, _ = self.scores(kernel_name, two_triangles(), {0: 0, 2: 2})
        assert 0 not in table and 2 not in table
        for row in table.values():
            assert 0 not in row and 2 not in row

    def test_min_degree_filter(self, kernel_name):
        # Node 3 has degree 1: below the floor of 2 on both sides.
        table, _ = self.scores(kernel_name, two_triangles(), {2: 2}, 2)
        assert table == {0: {0: 1, 1: 1}, 1: {0: 1, 1: 1}}

    def test_empty_links(self, kernel_name):
        assert self.scores(kernel_name, two_triangles(), {}) == ({}, 0)

    def test_emitted_equals_total_score(self, kernel_name):
        table, emitted = self.scores(kernel_name, two_triangles(), {0: 0, 1: 1})
        assert emitted == sum(sum(row.values()) for row in table.values())
