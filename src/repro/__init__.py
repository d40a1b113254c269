"""repro — reproduction of Korula & Lattanzi (VLDB 2014),
*An efficient reconciliation algorithm for social networks*.

Every matcher — the paper's **User-Matching**, its MapReduce
formulation, four baselines, and the composable **Reconciler** pipeline
— implements one protocol (``run(g1, g2, seeds, *, progress=None)``) and
is resolvable by name from the registry, so experiments swap algorithms
by changing a string.

Primary API — the registry plus the pipeline::

    from repro import (
        preferential_attachment_graph, independent_copies, sample_seeds,
        get_matcher, reconcile, evaluate,
    )

    g = preferential_attachment_graph(n=5000, m=10, seed=1)
    pair = independent_copies(g, s1=0.5, seed=2)
    seeds = sample_seeds(pair, link_probability=0.1, seed=3)

    # Any registered matcher, by name (see available_matchers()):
    matcher = get_matcher("user-matching", threshold=2, iterations=2)
    result = matcher.run(pair.g1, pair.g2, seeds)
    report = evaluate(result, pair)
    print(report.precision, report.recall)

    # Or compose a pipeline stage-by-stage:
    from repro import Reconciler, degree_ratio_validator
    pipeline = Reconciler(threshold=2, rounds=3, selector="gale-shapley",
                          validators=[degree_ratio_validator(4.0)])
    result = pipeline.run(pair.g1, pair.g2, seeds)
    result.timings                      # per-stage wall-clock records

Shortcut — the legacy one-call path runs User-Matching directly and is
still the quickest way to the paper's algorithm::

    result = reconcile(pair.g1, pair.g2, seeds, threshold=2, iterations=2)

``reconcile`` also accepts a registry name or any constructed matcher:
``reconcile(g1, g2, seeds, "common-neighbors")``.

Every matcher also takes a ``backend`` — ``"native"`` (the default:
dense interning + compiled C hot kernels, falling back to ``"csr"``
without a C toolchain) or ``"csr"`` (dense interning + array kernels).
Output is identical across both; the MapReduce formulation
(``"mapreduce-user-matching"``) is the literal reference over original
node ids that the tests hold both to::

    result = reconcile(pair.g1, pair.g2, seeds, threshold=2, backend="csr")

See DESIGN.md §"Backends" for when interning pays off.

Live networks stream: :mod:`repro.incremental` absorbs
``GraphDelta`` batches (edge/seed arrivals) by re-scoring only the
delta's witness frontier — bit-identical to a cold run — and persists
warm-start state across processes (``MatcherConfig(checkpoint_path=,
warm_start=)``, ``repro stream``).  See docs/ARCHITECTURE.md for the
subsystem map.
"""

from repro.baselines import (
    CommonNeighborsMatcher,
    DegreeSequenceMatcher,
    NarayananShmatikovMatcher,
    StructuralFeatureMatcher,
)
from repro.core import (
    BACKENDS,
    ArrayScores,
    Matcher,
    MatcherConfig,
    MatchingResult,
    PhaseRecord,
    ProgressEvent,
    Reconciler,
    StageTiming,
    TiePolicy,
    UserMatching,
    degree_ratio_validator,
    reconcile,
    select_gale_shapley,
    select_greedy_top_score,
    select_mutual_best,
)
from repro.evaluation import (
    MatchingReport,
    compare_matchers,
    degree_stratified_report,
    evaluate,
    format_table,
    run_trial,
)
from repro.generators import (
    affiliation_graph,
    chung_lu_graph,
    gnm_graph,
    gnp_graph,
    power_law_weights,
    powerlaw_cluster_graph,
    preferential_attachment_graph,
    rmat_graph,
    watts_strogatz_graph,
)
from repro.graphs import (
    BipartiteGraph,
    CSRGraph,
    Graph,
    GraphPairIndex,
    TemporalGraph,
)
from repro.mapreduce import LocalMapReduce, MapReduceUserMatching
from repro.registry import (
    available_matchers,
    get_matcher,
    matcher_names,
    register_matcher,
)
from repro.sampling import (
    GraphPair,
    attacked_copies,
    cascade_copies,
    cascade_copy,
    correlated_community_copies,
    independent_copies,
    inject_sybils,
    sample_edges,
    split_by_parity,
)
from repro.seeds import (
    degree_biased_seeds,
    noisy_seeds,
    sample_seeds,
    top_degree_seeds,
)

__version__ = "1.2.0"

__all__ = [
    # graphs
    "Graph",
    "TemporalGraph",
    "BipartiteGraph",
    "CSRGraph",
    "GraphPairIndex",
    # generators
    "gnp_graph",
    "gnm_graph",
    "preferential_attachment_graph",
    "affiliation_graph",
    "rmat_graph",
    "chung_lu_graph",
    "power_law_weights",
    "watts_strogatz_graph",
    "powerlaw_cluster_graph",
    # sampling / copy models
    "GraphPair",
    "independent_copies",
    "sample_edges",
    "cascade_copy",
    "cascade_copies",
    "correlated_community_copies",
    "inject_sybils",
    "attacked_copies",
    "split_by_parity",
    # seeds
    "sample_seeds",
    "degree_biased_seeds",
    "top_degree_seeds",
    "noisy_seeds",
    # matcher protocol + registry
    "Matcher",
    "ProgressEvent",
    "register_matcher",
    "get_matcher",
    "matcher_names",
    "available_matchers",
    # core algorithm
    "MatcherConfig",
    "TiePolicy",
    "BACKENDS",
    "ArrayScores",
    "UserMatching",
    "MatchingResult",
    "PhaseRecord",
    "StageTiming",
    "reconcile",
    # composable pipeline
    "Reconciler",
    "degree_ratio_validator",
    "select_mutual_best",
    "select_greedy_top_score",
    "select_gale_shapley",
    # baselines
    "CommonNeighborsMatcher",
    "NarayananShmatikovMatcher",
    "DegreeSequenceMatcher",
    "StructuralFeatureMatcher",
    # mapreduce
    "LocalMapReduce",
    "MapReduceUserMatching",
    # evaluation
    "MatchingReport",
    "evaluate",
    "degree_stratified_report",
    "format_table",
    "run_trial",
    "compare_matchers",
    "__version__",
]
