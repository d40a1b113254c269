"""Wall-clock and candidate-space curves for community pruning.

Benchmarks the csr-backend matcher end-to-end on the community-structured
affiliation workload (the workload where pruning has real structure to
exploit) under ``candidate_pruning`` in {``none``, ``community``},
recording for every mode both the wall-clock mean (the benchmark
statistic) and the quality/selectivity numbers of one run in
``extra_info`` (``candidate_pairs``, ``precision``, ``recall``) — so the
JSON committed as ``BENCH_pruning.json`` carries the cost *and* the
trade next to each other, not a bare speedup headline.

A kernel-level pair isolates the pruning machinery itself: building the
community assignment (``assign_communities``: wavefront label
propagation over the union graph) and applying the diagonal-first
allowance mask to a scored round (``kernels.prune_scores``), separate
from the matcher around them.

Unlike the blocked/parallel suites, links are *expected* to differ from
the unpruned baseline — pruning changes results by design.  What must
hold instead (and is asserted en route) is backend parity: dict, csr
and native produce identical links *to each other* under the same
pruning mode.  The quality side of the trade is gated separately by
``scripts/check_quality_regression.py`` against ``QUALITY_pruning.json``.
"""

import pytest

from repro.core.config import MatcherConfig
from repro.core.matcher import UserMatching
from repro.evaluation.metrics import evaluate
from repro.generators.affiliation import affiliation_graph
from repro.graphs.communities import assign_communities
from repro.graphs.pair_index import GraphPairIndex
from repro.sampling.community import correlated_community_copies
from repro.seeds.generators import sample_seeds

#: Same recipe as scripts/check_quality_regression.py, one notch larger
#: so the pruning win is measured where the pair space actually hurts.
N_USERS = 1500
N_INTERESTS = 120
KEEP_PROB = 0.8
LINK_PROB = 0.05

#: Benchmark grid: pruning mode (frontier is 0, the default ring).
MODES = ("none", "community")


def build_workload(n_users=N_USERS, n_interests=N_INTERESTS, seed=7):
    """The bench workload: affiliation pair + 5% seeds (Table-4 recipe)."""
    network = affiliation_graph(n_users, n_interests, seed=seed)
    pair = correlated_community_copies(
        network, keep_prob=KEEP_PROB, seed=seed + 4
    )
    seeds = sample_seeds(pair, LINK_PROB, seed=seed - 4)
    return pair, seeds


def run_matcher(pair, seeds, candidate_pruning, backend="csr"):
    """One User-Matching run under the given pruning mode."""
    matcher = UserMatching(
        MatcherConfig(
            threshold=2,
            iterations=2,
            backend=backend,
            candidate_pruning=candidate_pruning,
        )
    )
    return matcher.run(pair.g1, pair.g2, seeds)


@pytest.fixture(scope="module")
def workload():
    return build_workload()


@pytest.mark.parametrize("mode", MODES, ids=lambda m: f"pruning={m}")
def test_bench_matcher_pruning(benchmark, workload, mode):
    """End-to-end matcher per mode; trade numbers riding in extra_info."""
    pair, seeds = workload
    result = run_matcher(pair, seeds, mode)
    report = evaluate(result, pair)
    benchmark.extra_info["candidate_pruning"] = mode
    benchmark.extra_info["candidate_pairs"] = sum(
        p.candidates for p in result.phases
    )
    benchmark.extra_info["precision"] = round(report.precision, 4)
    benchmark.extra_info["recall"] = round(report.recall, 4)
    benchmark.extra_info["nodes"] = pair.g1.num_nodes
    timed = benchmark.pedantic(
        run_matcher, args=(pair, seeds, mode), rounds=3, iterations=1
    )
    assert timed.links == result.links
    assert timed.num_new_links > 0


def test_bench_matcher_pruning_native(benchmark, workload):
    """The pruned matcher on the native backend; parity asserted."""
    pair, seeds = workload
    reference = run_matcher(pair, seeds, "community", backend="csr")
    timed = benchmark.pedantic(
        run_matcher,
        args=(pair, seeds, "community"),
        kwargs=dict(backend="native"),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["candidate_pruning"] = "community"
    # Backend parity under pruning: the mask is computed once from the
    # union graph, so every backend must land on the same links.
    assert timed.links == reference.links


def test_bench_assignment(benchmark, workload):
    """The partitioner alone: union-graph label propagation + quotient."""
    pair, seeds = workload
    index = GraphPairIndex(pair.g1, pair.g2)
    seed_l, seed_r = index.intern_links(seeds)
    assignment = benchmark.pedantic(
        assign_communities,
        args=(index, seed_l, seed_r),
        rounds=5,
        iterations=1,
    )
    benchmark.extra_info["communities"] = assignment.num_communities
    assert assignment.num_communities > 1


def test_bench_prune_mask(benchmark, workload):
    """The mask computation alone on a synthetic scored round.

    ``allowed_mask`` (diagonal-first: ``c1 == c2`` or an unassigned
    endpoint, with a lookup only for the assigned off-diagonal rest,
    none at the default frontier 0) is the per-row cost pruning adds to
    every scored round; ``prune_scores`` around it is a plain boolean
    take.
    """
    import numpy as np

    pair, seeds = workload
    index = GraphPairIndex(pair.g1, pair.g2)
    seed_l, seed_r = index.intern_links(seeds)
    assignment = assign_communities(index, seed_l, seed_r)
    rng = np.random.default_rng(0)
    n_pairs = 500_000
    left = rng.integers(0, index.n1, size=n_pairs, dtype=np.int64)
    right = rng.integers(0, index.n2, size=n_pairs, dtype=np.int64)

    keep = benchmark.pedantic(
        assignment.allowed_mask, args=(left, right),
        rounds=5, iterations=1,
    )
    kept = int(keep.sum())
    benchmark.extra_info["input_pairs"] = n_pairs
    benchmark.extra_info["kept_pairs"] = kept
    assert 0 < kept < n_pairs
