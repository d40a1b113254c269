"""R-MAT recursive matrix graphs (Chakrabarti–Zhan–Faloutsos, SDM 2004).

The paper's scalability study (Table 2) runs on RMAT24/26/28.  R-MAT drops
each edge into the adjacency matrix by recursively descending into one of
four quadrants with probabilities ``(a, b, c, d)``; ``scale`` recursion
levels address ``2^scale`` nodes.  The sampler runs at array speed: one
``(n_edges, scale)`` quadrant draw places every edge, one sort of a packed
``lo << scale | hi`` key deduplicates them, and
:meth:`~repro.graphs.graph.Graph.from_dense_edges` builds the graph in
bulk — the same graph, in the same iteration order, as adding the sorted
unique edges one ``add_edge`` at a time.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeneratorParameterError
from repro.graphs.graph import Graph
from repro.utils.rng import ensure_numpy_rng
from repro.utils.validation import check_non_negative, check_positive

#: Canonical R-MAT quadrant probabilities from the original paper.
DEFAULT_QUADRANTS = (0.57, 0.19, 0.19, 0.05)

#: Largest scale whose node ids ``[0, 2^scale)`` fit in int64.
MAX_SCALE = 63


def rmat_graph(
    scale: int,
    n_edges: int,
    quadrants: tuple[float, float, float, float] = DEFAULT_QUADRANTS,
    seed=None,
    include_isolated: bool = False,
) -> Graph:
    """Sample an undirected R-MAT graph with ``2^scale`` addressable nodes.

    Self-loops and duplicate edges are discarded (no resampling), so the
    returned edge count is somewhat below *n_edges* — the standard
    behaviour for R-MAT kernels (Graph500 does the same).  By default
    nodes that receive no edge do not appear in the graph;
    ``include_isolated=True`` materializes the full ``2^scale`` vertex
    set instead (the paper's copy model shares one fixed vertex set
    across realizations, and the scale rungs quote node counts of the
    *addressable* space — RMAT24 "is" 16.8M nodes even though the skewed
    quadrants leave many of them isolated).

    Args:
        scale: recursion depth; addresses ``2^scale`` node ids
            (at most :data:`MAX_SCALE`).
        n_edges: number of edge insertions attempted.
        quadrants: ``(a, b, c, d)`` probabilities, must sum to 1.
        seed: RNG seed.
        include_isolated: also add every edge-less id in
            ``[0, 2^scale)``, fixing ``num_nodes`` at ``2^scale``.
    """
    check_positive("scale", scale)
    check_non_negative("n_edges", n_edges)
    if scale > MAX_SCALE:
        raise GeneratorParameterError(
            f"scale must be at most {MAX_SCALE} (node ids are int64), "
            f"got {scale}"
        )
    a, b, c, d = quadrants
    if any(q < 0 for q in quadrants) or abs(a + b + c + d - 1.0) > 1e-9:
        raise GeneratorParameterError(
            f"quadrant probabilities must be non-negative and sum to 1, "
            f"got {quadrants}"
        )
    rng = ensure_numpy_rng(seed)
    if n_edges:
        lo, hi = _sorted_unique_edges(rng, scale, n_edges, [a, b, c, d])
    else:
        lo = hi = np.empty(0, dtype=np.int64)
    num_ids = 1 << scale
    # Node ids double as dense ids while the address space is small next
    # to the edge list; otherwise densify the ids that occur.
    if include_isolated or num_ids <= 4 * len(lo):
        ids = np.arange(num_ids)
    else:
        ids, dense = np.unique(np.concatenate((lo, hi)), return_inverse=True)
        lo, hi = np.split(dense, 2)
    first = ids if include_isolated else ()
    return Graph.from_dense_edges(ids.tolist(), lo, hi, first)


def _sorted_unique_edges(
    rng: np.random.Generator, scale: int, n_edges: int, p: list[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Draw *n_edges* R-MAT edges; return the distinct non-loop ones as
    ``(lo, hi)`` arrays sorted by ``(lo, hi)`` — the order the graph
    adds them in."""
    # One multinomial draw per (edge, level): quadrant 0..3.
    choices = rng.choice(4, size=(n_edges, scale), p=p).astype(np.uint8)
    # Shift in one bit per level, the first level most significant.
    u = np.zeros(n_edges, dtype=np.int64)
    v = np.zeros(n_edges, dtype=np.int64)
    for level in choices.T:
        u <<= 1
        u |= level >> 1  # quadrants 2,3 pick the lower row half
        v <<= 1
        v |= level & 1  # quadrants 1,3 pick the right column half
    del choices
    mask = u != v
    u, v = u[mask], v[mask]
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    fresh = np.ones(len(lo), dtype=bool)
    if 2 * scale < 64:
        # One sort of a packed int64 key; adjacent repeats are duplicates.
        key = lo << scale
        key |= hi
        key.sort()
        np.not_equal(key[1:], key[:-1], out=fresh[1:])
        lo, hi = key >> scale, key & ((1 << scale) - 1)
    else:
        # Ids wider than 31 bits overflow the packed key: lexsort instead.
        perm = np.lexsort((hi, lo))
        lo, hi = lo[perm], hi[perm]
        fresh[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return lo[fresh], hi[fresh]


def rmat_scale_series(
    scales: tuple[int, ...],
    edge_factor: int = 16,
    seed=None,
) -> list[Graph]:
    """Generate a doubling series of R-MAT graphs (Table 2 workload).

    Each graph attempts ``edge_factor * 2^scale`` edge insertions, matching
    the Graph500 convention of a fixed edge/node ratio across scales.
    """
    rng = ensure_numpy_rng(seed)
    return [rmat_graph(s, edge_factor * (1 << s), seed=rng) for s in scales]
