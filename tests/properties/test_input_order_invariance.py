"""Input order never changes a reconciliation.

The sweep is serial: one pass over the links per round, one witness
join, one selection.  Nothing in the inputs' *order* is information —
the seed dict's insertion order, the order edges were added to a graph,
the order nodes first appeared — so every registry matcher on every
backend must return the same ``MatchingResult`` (links, seeds and
per-round ``PhaseRecord``s) when only that order changes.  Each case
rebuilds an equal input in a shuffled order and compares against the
run on the original input.
"""

import random
import warnings

import pytest
from oracle_helpers import MATCHER_CONFIGS

from repro.core.native import NativeFallbackWarning
from repro.generators.preferential_attachment import (
    preferential_attachment_graph,
)
from repro.graphs.graph import Graph
from repro.registry import get_matcher, matcher_names
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds


def workload(n=220, m=4, s=0.6, link_prob=0.1, seed=17):
    g = preferential_attachment_graph(n, m, seed=seed)
    pair = independent_copies(g, s, seed=seed + 1)
    seeds = sample_seeds(pair, link_prob, seed=seed + 2)
    return pair.g1, pair.g2, seeds


def reordered_graph(graph, seed):
    """An equal graph built with nodes, edges and endpoints shuffled."""
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    rng.shuffle(nodes)
    edges = [
        (v, u) if rng.random() < 0.5 else (u, v) for u, v in graph.edges()
    ]
    rng.shuffle(edges)
    out = Graph.from_edges(edges, nodes=nodes)
    assert out == graph
    return out


def reversed_seeds(g1, g2, seeds):
    return g1, g2, dict(reversed(list(seeds.items())))


def shuffled_seeds(g1, g2, seeds):
    items = list(seeds.items())
    random.Random(3).shuffle(items)
    return g1, g2, dict(items)


def reordered_graphs(g1, g2, seeds):
    return reordered_graph(g1, 1), reordered_graph(g2, 2), seeds


PERTURBATIONS = {
    "reversed-seeds": reversed_seeds,
    "shuffled-seeds": shuffled_seeds,
    "reordered-graphs": reordered_graphs,
}


def run(name, backend, g1, g2, seeds):
    with warnings.catch_warnings():
        # A missing toolchain makes "native" a csr run; still valid here.
        warnings.simplefilter("ignore", NativeFallbackWarning)
        matcher = get_matcher(name, backend=backend, **MATCHER_CONFIGS[name])
        return matcher.run(g1, g2, seeds)


def test_sweep_covers_registry():
    assert sorted(MATCHER_CONFIGS) == matcher_names()


@pytest.mark.parametrize("perturbation", sorted(PERTURBATIONS))
@pytest.mark.parametrize("backend", ["csr", "native"])
@pytest.mark.parametrize("name", sorted(MATCHER_CONFIGS))
def test_result_independent_of_input_order(name, backend, perturbation):
    g1, g2, seeds = workload()
    ref = run(name, backend, g1, g2, seeds)
    got = run(name, backend, *PERTURBATIONS[perturbation](g1, g2, seeds))
    assert len(ref.links) > len(seeds)  # the matcher linked something
    assert got.links == ref.links
    assert got.seeds == ref.seeds
    assert got.phases == ref.phases
