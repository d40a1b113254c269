"""Incremental reconciliation: graph deltas, warm starts, persistence.

The batch algorithm answers "who matches whom on these two snapshots?";
this subsystem answers the serving-shaped question "the snapshots just
changed — what *now*?" without starting over:

- :class:`~repro.incremental.delta.GraphDelta` — one batch of edge
  additions/removals plus newly confirmed seed links.
- :class:`~repro.incremental.delta_index.DeltaIndex` — a
  :class:`~repro.graphs.pair_index.GraphPairIndex` that absorbs deltas
  by appending new nodes and splicing each delta into fresh CSR arrays
  instead of re-interning.
- :class:`~repro.incremental.engine.IncrementalReconciler` — warm-start
  engine: re-scores only links whose witness neighborhoods intersect
  the delta, bit-identical to a cold run on the final graphs; persists
  and resumes via :mod:`repro.core.links_io` checkpoints.
- :func:`~repro.incremental.stream.run_stream` — the ``repro stream``
  driver replaying an edge stream in batches.
"""

from repro.incremental.delta import (
    DeltaError,
    GraphDelta,
    apply_delta_to_graphs,
    delta_from_payload,
    delta_to_payload,
    split_edge_stream,
)
from repro.incremental.delta_index import AppliedDelta, DeltaIndex
from repro.incremental.engine import DeltaOutcome, IncrementalReconciler

__all__ = [
    "GraphDelta",
    "DeltaError",
    "apply_delta_to_graphs",
    "delta_from_payload",
    "delta_to_payload",
    "split_edge_stream",
    "DeltaIndex",
    "AppliedDelta",
    "DeltaOutcome",
    "IncrementalReconciler",
]
