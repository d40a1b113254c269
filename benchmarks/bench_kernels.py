"""Micro-benchmarks of the hot kernels (multi-round, timing-stable).

These are the components whose cost the paper's complexity analysis talks
about: witness counting (the join), mutual-best selection, the MapReduce
engine, and the graph generators that feed every experiment.  Every
dict-backend kernel is benchmarked next to its ``backend="csr"`` array
twin on the same 3000-node preferential-attachment workload, so the JSON
emitted by ``--benchmark-json`` (committed as ``BENCH_kernels.json``)
records the dict-vs-csr trajectory over time; the acceptance floor is a
3x witness-counting speedup, which the sparse-matmul join clears.

The ``_native`` variants add the third backend column: the compiled
join/selection kernels of :mod:`repro.core.native`, benchmarked on
the same workload (floor: 2x witness join over the csr column).  On a
machine without a C toolchain they skip — the committed JSON then
records the honest fallback picture rather than a silent gap.  The
``_native_thresholded`` join is the sweep's recount join: floored at
``min_count=2``, with its output rows recorded next to the unfloored
join's (``extra_info["rows"]``).
"""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.config import MatcherConfig
from repro.core.matcher import UserMatching
from repro.core.policy import select_mutual_best
from repro.core.scoring import (
    count_similarity_witnesses,
    count_similarity_witnesses_arrays,
)
from repro.generators.erdos_renyi import gnp_graph
from repro.generators.preferential_attachment import (
    preferential_attachment_graph,
)
from repro.generators.rmat import rmat_graph
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph
from repro.graphs.pair_index import GraphPairIndex
from repro.mapreduce.engine import LocalMapReduce, MapReduceJob, sum_combiner
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds


@pytest.fixture(scope="module")
def workload():
    graph = preferential_attachment_graph(3000, 10, seed=1)
    pair = independent_copies(graph, 0.5, seed=2)
    seeds = sample_seeds(pair, 0.1, seed=3)
    return pair, seeds


@pytest.fixture(scope="module")
def pair_index(workload):
    """Interned view of the workload (built once, as in a real run)."""
    pair, seeds = workload
    index = GraphPairIndex(pair.g1, pair.g2)
    link_l, link_r = index.intern_links(seeds)
    linked1 = np.zeros(index.n1, dtype=bool)
    linked2 = np.zeros(index.n2, dtype=bool)
    linked1[link_l] = True
    linked2[link_r] = True
    floor1, floor2 = index.eligibility(2)
    return index, link_l, link_r, ~linked1 & floor1, ~linked2 & floor2


def test_bench_witness_counting(benchmark, workload):
    pair, seeds = workload
    scores, emitted = benchmark(
        count_similarity_witnesses, pair.g1, pair.g2, seeds, 2
    )
    assert emitted > 0


def test_bench_witness_counting_csr(benchmark, pair_index):
    """The csr join (scipy sparse incidence product)."""
    index, link_l, link_r, elig1, elig2 = pair_index
    scores, emitted = benchmark(
        kernels.count_witnesses, index, link_l, link_r, elig1, elig2
    )
    assert emitted > 0


@pytest.fixture(scope="module")
def native_kernels():
    from repro.core.native import load_native_library

    kernels_handle = load_native_library(warn=False)
    if kernels_handle is None:
        pytest.skip("no C toolchain: backend='native' falls back to csr")
    return kernels_handle


def test_bench_witness_counting_native(benchmark, pair_index, native_kernels):
    """The compiled row-major bitmap join (sort-free, direct-write)."""
    index, link_l, link_r, elig1, elig2 = pair_index

    def run():
        return kernels.count_witnesses(
            index, link_l, link_r, elig1, elig2, native=native_kernels
        )

    scores, emitted = benchmark(run)
    benchmark.extra_info["rows"] = scores.num_pairs
    assert emitted > 0


def test_bench_witness_counting_native_thresholded(
    benchmark, pair_index, native_kernels
):
    """The compiled join floored at the sweep's threshold of 2.

    Same input as the unfloored column; the rows below the floor are
    never written, so the recorded row count is what selection reads.
    """
    index, link_l, link_r, elig1, elig2 = pair_index

    def run():
        return kernels.count_witnesses(
            index,
            link_l,
            link_r,
            elig1,
            elig2,
            native=native_kernels,
            min_count=2,
        )

    scores, emitted = benchmark(run)
    benchmark.extra_info["rows"] = scores.num_pairs
    assert emitted > 0


def test_bench_mutual_best_selection(benchmark, workload):
    pair, seeds = workload
    scores, _ = count_similarity_witnesses(
        pair.g1, pair.g2, seeds, min_degree=2
    )
    links = benchmark(select_mutual_best, scores, 2)
    assert links


def test_bench_mutual_best_selection_csr(benchmark, workload):
    pair, seeds = workload
    index = GraphPairIndex(pair.g1, pair.g2)
    scores, _ = count_similarity_witnesses_arrays(index, seeds, min_degree=2)
    left, right, _cands = benchmark(
        kernels.select_mutual_best_arrays, scores, 2
    )
    assert len(left)


def test_bench_mutual_best_selection_native(
    benchmark, workload, native_kernels
):
    """The compiled single-pass argmax selection."""
    pair, seeds = workload
    index = GraphPairIndex(pair.g1, pair.g2)
    scores, _ = count_similarity_witnesses_arrays(
        index, seeds, min_degree=2, native=native_kernels
    )
    left, right, _cands = benchmark(
        kernels.select_mutual_best_arrays, scores, 2
    )
    assert len(left)


def test_bench_full_matcher(benchmark, workload):
    pair, seeds = workload
    matcher = UserMatching(MatcherConfig(threshold=2, iterations=1))
    result = benchmark(matcher.run, pair.g1, pair.g2, seeds)
    assert result.num_new_links > 0


def test_bench_full_matcher_csr(benchmark, workload):
    """End-to-end csr backend, interning included (the honest number)."""
    pair, seeds = workload
    matcher = UserMatching(
        MatcherConfig(threshold=2, iterations=1, backend="csr")
    )
    result = benchmark(matcher.run, pair.g1, pair.g2, seeds)
    assert result.num_new_links > 0


def test_bench_full_matcher_native(benchmark, workload, native_kernels):
    """End-to-end native backend (interning + compiled kernels)."""
    pair, seeds = workload
    matcher = UserMatching(
        MatcherConfig(threshold=2, iterations=1, backend="native")
    )
    result = benchmark(matcher.run, pair.g1, pair.g2, seeds)
    assert result.num_new_links > 0


def test_bench_csr_construction(benchmark, workload):
    """CSRGraph build from the copy's recorded edge arrays (both
    directions + one packed-key int sort; no walk over the sets)."""
    pair, _seeds = workload
    assert pair.g1.recorded_edges() is not None
    csr = benchmark(CSRGraph, pair.g1)
    assert csr.num_nodes == pair.g1.num_nodes


def test_bench_pair_index_build(benchmark, workload):
    """Full interning cost — what every array backend pays once per run.

    The sampled copies are bulk-built, so this takes the recorded-array
    source; :func:`test_bench_pair_index_build_set_walk` is the same
    pair without the arrays.
    """
    pair, _seeds = workload
    index = benchmark(GraphPairIndex, pair.g1, pair.g2)
    assert index.n1 == pair.g1.num_nodes


def test_bench_pair_index_build_set_walk(benchmark, workload):
    """Interning the same pair rebuilt in Python: no recorded arrays, so
    the CSR comes from the walk over the adjacency sets."""
    pair, _seeds = workload
    g1, g2 = (
        Graph.from_edges(g.edges(), nodes=g.nodes())
        for g in (pair.g1, pair.g2)
    )
    assert g1.recorded_edges() is None and g2.recorded_edges() is None
    index = benchmark(GraphPairIndex, g1, g2)
    assert index.n1 == pair.g1.num_nodes


def test_bench_generator_pa(benchmark):
    g = benchmark(preferential_attachment_graph, 2000, 10, 7)
    assert g.num_nodes == 2000


def test_bench_generator_gnp(benchmark):
    g = benchmark(gnp_graph, 2000, 0.01, 7)
    assert g.num_nodes == 2000


def test_bench_generator_rmat(benchmark):
    g = benchmark(rmat_graph, 11, 16 * (1 << 11), seed=7)
    assert g.num_nodes > 0


def test_bench_independent_copies(benchmark):
    """The copy-model half of setup, on the graph the R-MAT bench builds."""
    graph = rmat_graph(11, 16 * (1 << 11), seed=7)
    pair = benchmark(independent_copies, graph, 0.5, seed=2)
    assert pair.g1.num_nodes == graph.num_nodes


def test_bench_mapreduce_engine(benchmark):
    def map_fn(_k, text):
        for token in text:
            yield (token, 1)

    def reduce_fn(token, counts):
        yield (token, sum(counts))

    job = MapReduceJob("count", map_fn, reduce_fn, sum_combiner)
    records = [(i, "abcdefg" * 10) for i in range(300)]

    def run():
        return LocalMapReduce().run(job, records)

    out = benchmark(run)
    assert dict(out)["a"] == 3000
