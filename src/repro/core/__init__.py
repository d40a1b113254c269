"""The paper's primary contribution: the **User-Matching** algorithm.

Public surface:

- :class:`~repro.core.protocol.Matcher` — the protocol every matcher
  implements (``run(g1, g2, seeds, *, progress=None)``).
- :class:`~repro.core.config.MatcherConfig` — tuning knobs (threshold ``T``,
  iterations ``k``, degree bucketing on/off, tie policy).
- :class:`~repro.core.matcher.UserMatching` — the algorithm itself.
- :class:`~repro.core.reconciler.Reconciler` — composable pipeline with
  pluggable candidate/scoring/selection/validation stages.
- :mod:`~repro.core.selectors` — selection policies (mutual-best, greedy,
  Gale–Shapley).
- :class:`~repro.core.result.MatchingResult` — links plus per-phase history.
- :func:`~repro.core.pipeline.reconcile` — one-call convenience wrapper.
- :mod:`~repro.core.kernels` — numpy array kernels behind
  ``backend="csr"`` (CSR-join witness counting, vectorized selection).
- :mod:`~repro.core.native` — compiled C hot kernels behind
  ``backend="native"`` (on-demand build, graceful csr fallback).
"""

from repro.core.config import BACKENDS, MatcherConfig, TiePolicy
from repro.core.diagnostics import explain_pair, margin, rank_candidates
from repro.core.kernels import (
    ArrayScores,
    count_witnesses,
    select_greedy_arrays,
    select_mutual_best_arrays,
)
from repro.core.links_io import read_links, write_links
from repro.core.matcher import UserMatching
from repro.core.native import (
    NativeFallbackWarning,
    load_native_library,
    native_available,
)
from repro.core.ordering import node_sort_key
from repro.core.pipeline import reconcile
from repro.core.protocol import Matcher, ProgressCallback, ProgressEvent
from repro.core.reconciler import (
    Reconciler,
    common_neighbor_candidates,
    degree_ratio_validator,
    normalized_witness_kernel,
    validated_seeds,
)
from repro.core.result import MatchingResult, PhaseRecord, StageTiming
from repro.core.selectors import (
    SELECTORS,
    get_selector,
    select_gale_shapley,
    select_greedy_top_score,
    select_mutual_best,
)

__all__ = [
    "Matcher",
    "ProgressCallback",
    "ProgressEvent",
    "MatcherConfig",
    "TiePolicy",
    "BACKENDS",
    "ArrayScores",
    "count_witnesses",
    "select_mutual_best_arrays",
    "select_greedy_arrays",
    "UserMatching",
    "Reconciler",
    "MatchingResult",
    "PhaseRecord",
    "StageTiming",
    "reconcile",
    "node_sort_key",
    "select_mutual_best",
    "select_greedy_top_score",
    "select_gale_shapley",
    "get_selector",
    "SELECTORS",
    "validated_seeds",
    "common_neighbor_candidates",
    "normalized_witness_kernel",
    "degree_ratio_validator",
    "explain_pair",
    "rank_candidates",
    "margin",
    "read_links",
    "write_links",
    "NativeFallbackWarning",
    "load_native_library",
    "native_available",
]
