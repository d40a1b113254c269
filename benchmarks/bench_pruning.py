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
from the matcher around them.  ``test_bench_pruned_join`` replays the
witness joins of one native pruned run two ways — pruned inside the
compiled join (``count_witnesses(..., communities=)``) and the full join
followed by ``allowed_mask`` — on identical inputs, so the two columns
differ only in where pruning happens.  ``test_bench_carried_round``
replays the carried score table's work in one native pruned run — its
folds and its 20 round extractions — through the compiled kernels or
the numpy bodies, with every round's table asserted equal.

Unlike the blocked/parallel suites, links are *expected* to differ from
the unpruned baseline — pruning changes results by design.  What must
hold instead (and is asserted en route) is backend parity: csr and
native produce identical links *to each other* under the same pruning
mode.  The quality side of the trade is gated separately by
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


@pytest.fixture(scope="module")
def pruned_joins(workload):
    """The ``count_witnesses`` calls of one native pruned matcher run."""
    from unittest import mock

    from repro.core import kernels
    from repro.core.native import load_native_library

    if load_native_library(warn=False) is None:
        pytest.skip("no C toolchain in this environment")
    pair, seeds = workload
    calls = []
    join = kernels.count_witnesses

    def record(index, *args, **kwargs):
        calls.append((index, args, kwargs))
        return join(index, *args, **kwargs)

    with mock.patch.object(kernels, "count_witnesses", record):
        run_matcher(pair, seeds, "community", backend="native")
    return calls


def join_then_mask(calls):
    """Each join in full, then the allowance mask over its rows."""
    from repro.core import kernels

    tables = []
    for index, args, kwargs in calls:
        kwargs = dict(kwargs)
        assignment = kwargs.pop("communities")
        scores, emitted = kernels.count_witnesses(index, *args, **kwargs)
        keep = assignment.allowed_mask(scores.left, scores.right)
        tables.append((kernels.prune_scores(scores, keep), emitted))
    return tables


def join_pruned(calls):
    """Each join with the pruning inside the compiled fill pass."""
    from repro.core import kernels

    return [
        kernels.count_witnesses(index, *args, **kwargs)
        for index, args, kwargs in calls
    ]


@pytest.mark.parametrize(
    "where", ["in_join", "after_join"], ids=lambda w: f"prune={w}"
)
def test_bench_pruned_join(benchmark, pruned_joins, where):
    """The pruned run's joins, pruned in the join vs. after it."""
    replay = join_pruned if where == "in_join" else join_then_mask
    tables = benchmark.pedantic(
        replay, args=(pruned_joins,), rounds=5, iterations=1
    )
    reference = join_then_mask(pruned_joins)
    for (got, emitted), (want, want_emitted) in zip(tables, reference):
        assert emitted == want_emitted
        assert got.left.tolist() == want.left.tolist()
        assert got.right.tolist() == want.right.tolist()
        assert got.score.tolist() == want.score.tolist()
    benchmark.extra_info["prune"] = where
    benchmark.extra_info["joins"] = len(tables)
    benchmark.extra_info["witness_pairs"] = sum(e for _, e in tables)
    benchmark.extra_info["kept_rows"] = sum(t.num_pairs for t, _ in tables)


@pytest.fixture(scope="module")
def carried_rounds(workload):
    """The carried table's work in one native pruned matcher run.

    A log of the run's folds (each join's rows) and round extractions
    (masks and threshold), in call order: replaying it rebuilds every
    round's table without keeping a copy of the dense buffer per round.
    """
    from unittest import mock

    from repro.core import kernels
    from repro.core.native import load_native_library

    nk = load_native_library(warn=False)
    if nk is None:
        pytest.skip("no C toolchain in this environment")
    pair, seeds = workload
    log = []
    fold = nk.carried_fold
    extract = kernels.extract_carried

    def record_fold(buf, n1, n2, left, right, counts):
        log.append(("fold", (left.copy(), right.copy(), counts.copy())))
        fold(buf, n1, n2, left, right, counts)

    def record_extract(buf, n1, n2, eligible1, eligible2, threshold, **kw):
        log.append(("extract", (eligible1, eligible2, threshold)))
        return extract(buf, n1, n2, eligible1, eligible2, threshold, **kw)

    with (
        mock.patch.object(nk, "carried_fold", record_fold),
        mock.patch.object(kernels, "extract_carried", record_extract),
    ):
        result = run_matcher(pair, seeds, "community", backend="native")
    n1, n2 = pair.g1.num_nodes, pair.g2.num_nodes
    return nk, n1, n2, log, len(result.phases)


def replay_carried(nk, n1, n2, log, native):
    """Fold and extract the logged rounds, compiled or in numpy."""
    import numpy as np

    from repro.core import kernels

    buf = np.zeros(n1 * n2, dtype=np.int32)
    tables = []
    for kind, args in log:
        if kind == "extract":
            tables.append(
                kernels.extract_carried(buf, n1, n2, *args, native=native)
            )
        elif native is not None:
            native.carried_fold(buf, n1, n2, *args)
        else:
            left, right, counts = args
            buf[left.astype(np.int64) * n2 + right] += counts
    return tables


@pytest.mark.parametrize(
    "extract", ["numpy", "native"], ids=lambda e: f"extract={e}"
)
def test_bench_carried_round(benchmark, carried_rounds, extract):
    """The pruned run's carried-table rounds: its folds and its round
    extractions, through the compiled kernels or the numpy bodies."""
    nk, n1, n2, log, rounds = carried_rounds
    native = nk if extract == "native" else None
    tables = benchmark.pedantic(
        replay_carried, args=(nk, n1, n2, log, native), rounds=5, iterations=1
    )
    reference = replay_carried(nk, n1, n2, log, None)
    assert len(tables) == rounds
    for got, want in zip(tables, reference):
        for have, expected in zip(got, want):
            assert have.dtype == expected.dtype
            assert have.tolist() == expected.tolist()
    benchmark.extra_info["extract"] = extract
    benchmark.extra_info["rounds"] = rounds
    benchmark.extra_info["folds"] = sum(kind == "fold" for kind, _ in log)
    benchmark.extra_info["rows"] = sum(len(t[0]) for t in tables)
