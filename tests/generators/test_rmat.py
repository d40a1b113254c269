"""Unit tests for the R-MAT generator."""

import hashlib

import numpy as np
import pytest

from repro.errors import GeneratorParameterError
from repro.generators.rmat import (
    DEFAULT_QUADRANTS,
    rmat_graph,
    rmat_scale_series,
)
from repro.graphs.graph import Graph
from repro.graphs.stats import gini_coefficient
from repro.utils.rng import ensure_numpy_rng


class TestRmat:
    def test_nodes_within_address_space(self):
        g = rmat_graph(8, 1000, seed=1)
        for node in g.nodes():
            assert 0 <= node < 256

    def test_edges_bounded_by_attempts(self):
        g = rmat_graph(10, 5000, seed=1)
        assert 0 < g.num_edges <= 5000

    def test_reproducible(self):
        assert rmat_graph(9, 2000, seed=5) == rmat_graph(9, 2000, seed=5)

    def test_different_seeds_differ(self):
        assert rmat_graph(9, 2000, seed=5) != rmat_graph(9, 2000, seed=6)

    def test_skewed_degrees_with_default_quadrants(self):
        g = rmat_graph(11, 16 * (1 << 11), seed=2)
        assert gini_coefficient(g) > 0.4

    def test_uniform_quadrants_are_not_skewed(self):
        g = rmat_graph(
            11, 16 * (1 << 11), quadrants=(0.25, 0.25, 0.25, 0.25), seed=2
        )
        assert gini_coefficient(g) < 0.35

    def test_no_self_loops(self):
        g = rmat_graph(8, 2000, seed=3)
        for u, v in g.edges():
            assert u != v

    def test_zero_edges(self):
        g = rmat_graph(5, 0, seed=1)
        assert g.num_edges == 0

    def test_invalid_quadrants_sum(self):
        with pytest.raises(GeneratorParameterError):
            rmat_graph(5, 10, quadrants=(0.5, 0.5, 0.5, 0.5))

    def test_negative_quadrant(self):
        with pytest.raises(GeneratorParameterError):
            rmat_graph(5, 10, quadrants=(1.2, -0.1, 0.0, -0.1))

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            rmat_graph(0, 10)

    @pytest.mark.parametrize("scale", [64, 80])
    def test_scale_beyond_int64_rejected(self, scale):
        # 1 << 63 overflows the int64 quadrant weights: ids would wrap
        # negative instead of staying in [0, 2^scale).
        with pytest.raises(GeneratorParameterError):
            rmat_graph(scale, 20, seed=1)

    def test_max_scale_ids_stay_in_range(self):
        g = rmat_graph(63, 200, seed=1)
        assert g.num_edges > 0
        assert all(0 <= v < 1 << 63 for v in g.nodes())

    def test_zero_edges_include_isolated(self):
        g = rmat_graph(5, 0, seed=1, include_isolated=True)
        assert list(g.nodes()) == list(range(32))
        assert g.num_edges == 0


def rmat_reference(scale, n_edges, seed, include_isolated=False):
    """The sequential build: ``np.unique(axis=0)`` rows, then one
    ``add_edge`` per row."""
    rng = ensure_numpy_rng(seed)
    g = Graph()
    if include_isolated:
        for node in range(1 << scale):
            g.add_node(node)
    choices = rng.choice(
        4, size=(n_edges, scale), p=list(DEFAULT_QUADRANTS)
    ).astype(np.int64)
    weights = (1 << np.arange(scale - 1, -1, -1)).astype(np.int64)
    u = (choices >> 1) @ weights
    v = (choices & 1) @ weights
    mask = u != v
    lo = np.minimum(u[mask], v[mask])
    hi = np.maximum(u[mask], v[mask])
    for x, y in np.unique(np.stack([lo, hi], axis=1), axis=0):
        g.add_edge(int(x), int(y))
    return g


class TestMatchesSequentialBuild:
    @pytest.mark.parametrize(
        "scale,n_edges,include_isolated",
        [
            (6, 400, False),  # ids double as dense ids
            (9, 300, True),  # pre-added isolated nodes
            (20, 3000, False),  # packed key, densified ids
            (31, 3000, False),  # widest packed key
            (40, 3000, False),  # lexsort path
        ],
    )
    def test_same_iteration_order(self, scale, n_edges, include_isolated):
        got = rmat_graph(
            scale, n_edges, seed=4, include_isolated=include_isolated
        )
        want = rmat_reference(scale, n_edges, 4, include_isolated)
        assert fingerprint(got) == fingerprint(want)
        assert got.num_edges == want.num_edges


class TestScaleSeries:
    def test_series_lengths(self):
        graphs = rmat_scale_series((6, 8), edge_factor=8, seed=1)
        assert len(graphs) == 2
        assert graphs[0].num_nodes < graphs[1].num_nodes

    def test_series_edge_growth(self):
        graphs = rmat_scale_series((6, 8, 10), edge_factor=8, seed=1)
        assert graphs[0].num_edges < graphs[1].num_edges < graphs[2].num_edges


def fingerprint(g):
    """sha256 of the node order, the ``edges()`` order and every
    neighbor set's iteration order — pins iteration order, not just
    content."""
    h = hashlib.sha256()
    h.update(repr(list(g.nodes())).encode())
    h.update(repr(list(g.edges())).encode())
    for v in g.nodes():
        h.update(repr(list(g.neighbors(v))).encode())
    return h.hexdigest()


#: Digests recorded with the per-edge ``add_edge`` generator; a faster
#: builder must reproduce them bit for bit.
GOLDEN_RMAT12 = (
    "001d3f457e9147fd5d4d03aa938761b7c4a38ef6fa74fe1bed9be5002acd2392"
)
GOLDEN_RMAT8_ISOLATED = (
    "7c069e37a7ab2920bc4e2d10750b83fbc918db635c327aaf7cd3d8c9581c4d30"
)


class TestGoldenFingerprints:
    def test_rmat12(self):
        g = rmat_graph(12, 16 << 12, seed=3)
        assert (g.num_nodes, g.num_edges) == (3341, 48552)
        assert fingerprint(g) == GOLDEN_RMAT12

    def test_rmat8_include_isolated(self):
        g = rmat_graph(8, 500, seed=1, include_isolated=True)
        assert (g.num_nodes, g.num_edges) == (256, 406)
        assert fingerprint(g) == GOLDEN_RMAT8_ISOLATED
