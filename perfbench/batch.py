"""Batch workloads: one graph pair reconciled again and again.

Each run builds its inputs several times (``setup_s`` is the median),
runs an untimed ``backend="csr"`` reference and an untimed warm-up
(which pays the one-time native compile), then times
``UserMatching(cfg).run`` until the run's seconds are used up.  Every
call must return the reference's links.  ``reconcile_s`` is the median
call; ``reconcile_peak_mb`` the median over calls of the peak resident
memory during the call.
"""

from __future__ import annotations

import gc
import time
from typing import Callable

from perfbench.common import PeakMemoryProbe, Tally, median, pin_to_one_cpu
from perfbench.trace import NullTracer, Patches, Tracer, children_of, span_tree_totals

#: The median of at least this many calls is reported: a 2-vCPU host's
#: speed wanders by 20% within seconds, and three calls are too few.
MIN_TIMED_CALLS = 5
#: The affiliation network pair is a fixed data set; ``--seed`` draws the
#: seed links.  Drawing the copies per seed too swings the edge count
#: 2x and the witness-pair count 8x between seeds.
AFFILIATION_DATASET_SEED = 0

#: Per-layer metrics of the batch workloads, in the order reported.
LAYER_METRICS = {
    "generators.s": "s",
    "sampling.s": "s",
    "seeds.s": "s",
    "pair_index.intern.s": "s",
    "pair_index.nodes": "count",
    "pair_index.csr_bytes": "bytes",
    "communities.assign.s": "s",
    "communities.count": "count",
    "kernels.join.s": "s",
    "kernels.join.calls": "count",
    "kernels.join.witness_pairs": "count",
    "kernels.join.scored_pairs": "count",
    "kernels.prune.s": "s",
    "kernels.prune.kept_ratio": "ratio",
    "kernels.select.s": "s",
    "kernels.select.candidates": "count",
    "kernels.select.accept_ratio": "ratio",
    "pair_index.export.s": "s",
    "matcher.self.s": "s",
    "trace.overhead_ratio": "ratio",
}


def _rmat_inputs(seed: int, tracer: "Tracer | NullTracer") -> tuple:
    from repro.generators.rmat import rmat_graph
    from repro.sampling.edge_sampling import independent_copies
    from repro.seeds.generators import sample_seeds
    from repro.utils.rng import spawn_rngs

    rng_graph, rng_copies, rng_seeds = spawn_rngs(seed, 3)
    with tracer.span("generators"):
        graph = rmat_graph(16, 16 << 16, seed=rng_graph)
    with tracer.span("sampling"):
        pair = independent_copies(graph, s1=0.5, seed=rng_copies)
    with tracer.span("seeds"):
        seeds = sample_seeds(pair, 0.10, seed=rng_seeds)
    return pair, seeds


def _affiliation_inputs(seed: int, tracer: "Tracer | NullTracer") -> tuple:
    from repro.generators.affiliation import affiliation_graph
    from repro.sampling.community import correlated_community_copies
    from repro.seeds.generators import sample_seeds
    from repro.utils.rng import spawn_rngs

    rng_graph, rng_copies, _ = spawn_rngs(AFFILIATION_DATASET_SEED, 3)
    rng_seeds = spawn_rngs(seed, 3)[2]
    with tracer.span("generators"):
        network = affiliation_graph(1500, 120, seed=rng_graph)
    with tracer.span("sampling"):
        pair = correlated_community_copies(network, keep_prob=0.8, seed=rng_copies)
    with tracer.span("seeds"):
        seeds = sample_seeds(pair, 0.05, seed=rng_seeds)
    return pair, seeds


#: name -> (input factory, set-ups per run, MatcherConfig keyword
#: arguments).  One R-MAT set-up takes 4-11 s on a 2-vCPU box, so that
#: workload sets up twice to keep every run of the benchmark in budget;
#: the affiliation set-up takes under a second, and its median needs
#: more samples to hold still.
WORKLOADS: dict[str, tuple[Callable, int, dict]] = {
    "rmat-native": (
        _rmat_inputs,
        2,
        {"threshold": 2, "iterations": 1, "backend": "native"},
    ),
    "affiliation-pruned": (
        _affiliation_inputs,
        7,
        {
            "threshold": 2,
            "iterations": 2,
            "backend": "native",
            "candidate_pruning": "community",
        },
    ),
}


def _index_sizes(attrs: dict, args: tuple, kwargs: dict, result: object) -> None:
    index = args[0]
    attrs["nodes"] = index.n1 + index.n2
    attrs["csr_bytes"] = sum(
        a.nbytes
        for a in (
            index.csr1.indptr, index.csr1.indices,
            index.csr2.indptr, index.csr2.indices,
            index.deg1, index.deg2, index.exp1, index.exp2,
        )
    )


def _communities(attrs: dict, args: tuple, kwargs: dict, result: object) -> None:
    attrs["count"] = result.num_communities


def _join(attrs: dict, args: tuple, kwargs: dict, result: tuple) -> None:
    scores, emitted = result
    attrs["calls"] = 1
    attrs["witness_pairs"] = int(emitted)
    attrs["scored_pairs"] = scores.num_pairs


def _prune(attrs: dict, args: tuple, kwargs: dict, result: object) -> None:
    attrs["in"] = args[0].num_pairs
    attrs["kept"] = result.num_pairs


def _select(attrs: dict, args: tuple, kwargs: dict, result: tuple) -> None:
    new_left, _new_right, candidates = result
    attrs["candidates"] = int(candidates)
    attrs["accepted"] = len(new_left)


def install_layer_wrappers(patches: Patches) -> None:
    """Wrap every layer the array sweep of ``core.matcher`` calls into."""
    from repro.core import kernels
    from repro.graphs import communities
    from repro.graphs.pair_index import GraphPairIndex

    patches.wrap(GraphPairIndex, "__init__", "pair_index.intern", _index_sizes)
    patches.wrap(GraphPairIndex, "export_links", "pair_index.export")
    patches.wrap(communities, "assign_communities", "communities.assign", _communities)
    patches.wrap(kernels, "count_witnesses", "kernels.join", _join)
    patches.wrap(kernels, "prune_scores", "kernels.prune", _prune)
    patches.wrap(kernels, "select_mutual_best_arrays", "kernels.select", _select)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.export()
    kids = children_of(spans)
    setups = [i for i, s in enumerate(spans) if s[0] == "setup" and s[3] == -1]
    calls = [i for i, s in enumerate(spans) if s[0] == "reconcile" and s[3] == -1]
    per_setup = [span_tree_totals(spans, kids, i)[0] for i in setups]
    per_call = [span_tree_totals(spans, kids, i) for i in calls]

    def med_s(rows: list[dict], key: str) -> float:
        return median([row.get(key, 0) for row in rows]) / 1e9

    times = [t for t, _ in per_call]
    counts = [c for _, c in per_call]

    def med_count(key: str) -> float:
        return median([c.get(key, 0) for c in counts])

    return {
        "generators.s": med_s(per_setup, "generators"),
        "sampling.s": med_s(per_setup, "sampling"),
        "seeds.s": med_s(per_setup, "seeds"),
        "pair_index.intern.s": med_s(times, "pair_index.intern"),
        "pair_index.nodes": med_count("pair_index.intern.nodes"),
        "pair_index.csr_bytes": med_count("pair_index.intern.csr_bytes"),
        "communities.assign.s": med_s(times, "communities.assign"),
        "communities.count": med_count("communities.assign.count"),
        "kernels.join.s": med_s(times, "kernels.join"),
        "kernels.join.calls": med_count("kernels.join.calls"),
        "kernels.join.witness_pairs": med_count("kernels.join.witness_pairs"),
        "kernels.join.scored_pairs": med_count("kernels.join.scored_pairs"),
        "kernels.prune.s": med_s(times, "kernels.prune"),
        "kernels.prune.kept_ratio": _ratio(
            med_count("kernels.prune.kept"), med_count("kernels.prune.in")
        ),
        "kernels.select.s": med_s(times, "kernels.select"),
        "kernels.select.candidates": med_count("kernels.select.candidates"),
        "kernels.select.accept_ratio": _ratio(
            med_count("kernels.select.accepted"),
            med_count("kernels.select.candidates"),
        ),
        "pair_index.export.s": med_s(times, "pair_index.export"),
        "matcher.self.s": med_s(times, "reconcile"),
    }


def run(name: str, seed: int, seconds: float, traced: bool, tally: Tally) -> dict:
    """Run batch workload *name*, counting operations in *tally*.

    Returns the metrics and counters of the result document.
    """
    from repro.core.config import MatcherConfig
    from repro.core.matcher import UserMatching
    from repro.evaluation.metrics import evaluate

    build, setups, params = WORKLOADS[name]
    pin_to_one_cpu()
    tracer: "Tracer | NullTracer" = Tracer() if traced else NullTracer()

    setup_times: list[float] = []
    fingerprint = None
    pair = seeds = None
    for _ in range(setups):
        pair = seeds = None
        gc.collect()
        tally.attempted += 1
        began = time.perf_counter()
        with tracer.span("setup"):
            pair, seeds = build(seed, tracer)
        setup_times.append(time.perf_counter() - began)
        shape = (
            pair.g1.num_nodes, pair.g1.num_edges,
            pair.g2.num_nodes, pair.g2.num_edges,
            sorted(seeds.items()),
        )
        # The same seed must give the same inputs.
        tally.check(fingerprint is None or shape == fingerprint)
        fingerprint = shape

    config = MatcherConfig(**params)
    tally.attempted += 1
    reference = UserMatching(MatcherConfig(**{**params, "backend": "csr"})).run(
        pair.g1, pair.g2, seeds
    )

    def reconcile(span: "str | None" = None) -> float:
        """Time one call; count it failed unless it matches the reference."""
        tally.attempted += 1
        gc.collect()
        began = time.perf_counter()
        if span is None:
            links = UserMatching(config).run(pair.g1, pair.g2, seeds).links
        else:
            with tracer.span(span):
                links = UserMatching(config).run(pair.g1, pair.g2, seeds).links
        elapsed = time.perf_counter() - began
        tally.check(links == reference.links)
        return elapsed

    reconcile()  # untimed warm-up: loads (or compiles) the native kernels
    patches = Patches(tracer) if isinstance(tracer, Tracer) else None
    probe = PeakMemoryProbe()
    plain: list[float] = []
    with_spans: list[float] = []
    peaks: list[float] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(plain) < MIN_TIMED_CALLS:
        probe.reset()
        plain.append(reconcile())
        peaks.append(probe.peak_mb())
        if patches is not None:
            install_layer_wrappers(patches)
            try:
                with_spans.append(reconcile(span="reconcile"))
            finally:
                patches.restore()

    if patches is None:
        report = evaluate(reference, pair)
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "reconcile_s": (median(plain), "s"),
            "reconcile_peak_mb": (median(peaks), "MB"),
            "precision": (report.precision, "ratio"),
            "recall": (report.recall, "ratio"),
        }
    else:
        layers = _layer_metrics(tracer)
        layers["trace.overhead_ratio"] = median(with_spans) / median(plain)
        metrics = {k: (layers[k], unit) for k, unit in LAYER_METRICS.items()}
    return {
        "metrics": metrics,
        "counters": {
            "links": len(reference.links),
            "calls_s": [round(t, 4) for t in plain],
        },
    }
