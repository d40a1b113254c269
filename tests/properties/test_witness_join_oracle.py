"""The one serial witness counter against a brute-force oracle.

Every array-backend round scores its candidates through
:func:`repro.core.kernels.count_witnesses`: for each link ``(u1, u2)``
every eligible neighbor ``v1`` of ``u1`` pairs with every eligible
neighbor ``v2`` of ``u2``, one similarity witness per co-occurrence.
The oracle here spells that definition out as nested Python loops over
the CSR rows and compares, for both implementations behind the
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


def oracle(index, link_l, link_r, eligible1, eligible2, min_count,
           allowed=None):
    """Literal witness enumeration over the CSR neighbor rows."""
    ip1, ix1 = index.csr1.indptr, index.csr1.indices
    ip2, ix2 = index.csr2.indptr, index.csr2.indices
    counts: Counter = Counter()
    emitted = 0
    for u1, u2 in zip(link_l.tolist(), link_r.tolist()):
        near1 = [v for v in ix1[ip1[u1]:ip1[u1 + 1]].tolist() if eligible1[v]]
        near2 = [v for v in ix2[ip2[u2]:ip2[u2 + 1]].tolist() if eligible2[v]]
        emitted += len(near1) * len(near2)
        for v1 in near1:
            for v2 in near2:
                counts[(v1, v2)] += 1
    table = {
        pair: c
        for pair, c in counts.items()
        if c >= min_count and (allowed is None or allowed(*pair))
    }
    return table, emitted


def as_table(scores):
    """``{(v1, v2): count}`` with the uniqueness and floor checked."""
    left = scores.left.tolist()
    right = scores.right.tolist()
    table = dict(zip(zip(left, right), scores.score.tolist()))
    assert len(table) == scores.num_pairs, "duplicate pairs in the table"
    return table


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
