"""Configuration for the User-Matching algorithm.

Mirrors the inputs of the paper's pseudocode: the minimum matching score
``T``, the number of outer iterations ``k``, and the maximum degree ``D``
controlling the bucket schedule — plus two implementation knobs the paper
leaves open (tie handling and disabling bucketing for the ablation study).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

from repro.errors import MatcherConfigError


class TiePolicy(enum.Enum):
    """What to do when a node's top similarity score is not unique.

    The paper's pseudocode adds "the pair with highest score"; with a tie
    there is no such pair.  ``SKIP`` refuses to match the node this round
    (it usually resolves in a later round once more neighbors are linked)
    — this favors precision and is the default.  ``LOWEST_ID`` breaks ties
    deterministically by id order, trading precision for recall.
    """

    SKIP = "skip"
    LOWEST_ID = "lowest_id"


#: Execution backends every matcher accepts: ``"csr"`` interns both
#: graphs to dense ids once and runs the array kernels in
#: :mod:`repro.core.kernels`; ``"native"`` runs the same dataflow with
#: the hot kernels (witness join, carried table, selection) in a small C
#: library compiled on demand (:mod:`repro.core.native`), degrading to
#: the ``csr`` kernels with a warning when no toolchain is available.
#: Output is identical across both.  Matchers with a single path
#: (the MapReduce formulation and the narayanan-shmatikov,
#: structural-features and degree-sequence baselines) validate the
#: value and ignore it.
BACKENDS: tuple[str, ...] = ("csr", "native")

#: The backend every matcher and driver runs when none is named.
DEFAULT_BACKEND = "native"


def validate_backend(backend: str) -> str:
    """Validate a backend name; shared by matchers without a config."""
    if backend not in BACKENDS:
        raise MatcherConfigError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    return backend


#: Candidate-pruning modes: ``"none"`` scores every candidate pair the
#: bucket sweep produces (the paper's algorithm); ``"community"`` first
#: partitions the union graph with seeded label propagation
#: (:mod:`repro.graphs.communities`) and drops candidate pairs whose
#: communities are further than ``pruning_frontier`` hops apart in the
#: community quotient graph.  Pruning changes the links versus
#: ``"none"`` (that cost is measured, never hidden) but is applied
#: identically by every backend and by the MapReduce formulation, so
#: they stay link-identical to each other.
PRUNING_MODES: tuple[str, ...] = ("none", "community")


def validate_candidate_pruning(candidate_pruning: str) -> str:
    """Validate a pruning mode; shared by matchers without a config."""
    if candidate_pruning not in PRUNING_MODES:
        raise MatcherConfigError(
            f"candidate_pruning must be one of {PRUNING_MODES}, "
            f"got {candidate_pruning!r}"
        )
    return candidate_pruning


def validate_pruning_frontier(pruning_frontier: int) -> int:
    """Validate a frontier ring radius; shared across matchers.

    0 keeps only same-community pairs; ``r`` additionally allows pairs
    whose communities are within ``r`` hops in the community quotient
    graph of the union graph.
    """
    if (
        not isinstance(pruning_frontier, int)
        or isinstance(pruning_frontier, bool)
        or pruning_frontier < 0
    ):
        raise MatcherConfigError(
            "pruning_frontier must be an integer >= 0, "
            f"got {pruning_frontier!r}"
        )
    return pruning_frontier


def validate_checkpoint_path(
    checkpoint_path: "str | Path | None",
) -> "str | Path | None":
    """Validate a checkpoint path; shared by matchers without a config.

    ``None`` disables persistence; otherwise any path-like is accepted
    (the file need not exist yet — a missing checkpoint means "cold
    run, then persist").
    """
    if checkpoint_path is None:
        return None
    if not isinstance(checkpoint_path, (str, Path)):
        raise MatcherConfigError(
            "checkpoint_path must be a str, Path, or None, "
            f"got {checkpoint_path!r}"
        )
    return checkpoint_path


@dataclass(frozen=True)
class MatcherConfig:
    """Tuning parameters of :class:`~repro.core.matcher.UserMatching`.

    Attributes
    ----------
    threshold : int
        Minimum matching score ``T`` (a similarity-witness count);
        pairs scoring below it are never linked.  The paper uses 2–3
        for high precision on dense graphs, 9 for the PA theory, 3 for
        the ER theory.
    iterations : int
        Outer iteration count ``k``; the paper notes ``k`` of 1 or 2
        already gives "very interesting results".
    max_degree : int, optional
        The ``D`` parameter; ``None`` (default) uses the max degree
        observed across both input graphs.
    use_degree_buckets : bool
        Sweep degree buckets ``2^j`` from high to low (the paper's
        algorithm).  ``False`` reproduces the ablation: all degrees
        matched at once.
    min_bucket_exponent : int
        Smallest ``j`` of the sweep.  The paper stops at ``j = 1``
        (degree >= 2), the default; set 0 to let degree-1 nodes
        participate (only useful with ``threshold=1``, since a
        degree-1 node can never have 2 witnesses).
    tie_policy : TiePolicy
        See :class:`TiePolicy`.
    backend : {"csr", "native"}
        Execution substrate: ``"csr"`` (dense interning + array
        kernels) or ``"native"`` (:data:`DEFAULT_BACKEND`: the csr
        dataflow with compiled C hot kernels, see
        :mod:`repro.core.native`; falls back to the csr kernels with a
        :class:`~repro.core.native.NativeFallbackWarning` when no C
        toolchain is available).  Output is identical across both.
    candidate_pruning : {"none", "community"}
        Candidate-pair pruning mode.  ``"none"`` (default) scores every
        pair the degree-bucket sweep produces.  ``"community"``
        partitions the *union graph* (both graphs glued at the seed
        links) once per run with deterministic seeded label propagation
        (:mod:`repro.graphs.communities`) and discards candidate pairs
        whose communities are more than ``pruning_frontier`` hops apart
        in the community quotient graph — shrinking the pair space that
        dominates past the million-node rung.  Pruning changes results
        versus ``"none"`` (the recall cost is reported by the harness
        as ``pruning_recall_cost``, and gated in CI by
        ``scripts/check_quality_regression.py``); both backends and
        the MapReduce formulation apply the identical filter, so they
        remain link-identical *to each other* under pruning.
    pruning_frontier : int
        Frontier ring radius for ``candidate_pruning="community"``:
        0 (default) keeps only same-community pairs, ``r`` also allows
        pairs whose communities are within ``r`` hops in the community
        quotient graph.  On dense workloads the quotient graph is close
        to complete, so already ``r=1`` can allow nearly every pair —
        widen the ring only when the measured recall cost of 0 is too
        high.  Ignored under ``candidate_pruning="none"``.
    checkpoint_path : str or Path, optional
        npz file persisting the reconciliation's warm-start state
        (graphs, seeds, per-round score tables) through
        :mod:`repro.core.links_io`.  When set, every run saves its
        state there; combined with ``warm_start=True`` a run *resumes*
        from it — the persisted state is diffed against the given
        graphs/seeds and only the difference is re-scored
        (:mod:`repro.incremental`).  Links are identical to an
        unpersisted run either way; the knob only changes where the
        time goes.
    warm_start : bool
        Resume from ``checkpoint_path`` when it exists (requires
        ``checkpoint_path``).  A missing checkpoint file degrades to
        "cold run, then persist" — safe to leave on for the first run
        of a pipeline.
    """

    threshold: int = 2
    iterations: int = 1
    max_degree: int | None = None
    use_degree_buckets: bool = True
    min_bucket_exponent: int = 1
    tie_policy: TiePolicy = TiePolicy.SKIP
    backend: str = DEFAULT_BACKEND
    candidate_pruning: str = "none"
    pruning_frontier: int = 0
    checkpoint_path: "str | Path | None" = None
    warm_start: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.threshold, int) or self.threshold < 1:
            raise MatcherConfigError(
                f"threshold must be an integer >= 1, got {self.threshold!r}"
            )
        if not isinstance(self.iterations, int) or self.iterations < 1:
            raise MatcherConfigError(
                f"iterations must be an integer >= 1, got {self.iterations!r}"
            )
        if self.max_degree is not None and self.max_degree < 1:
            raise MatcherConfigError(
                f"max_degree must be >= 1 or None, got {self.max_degree!r}"
            )
        if not isinstance(self.use_degree_buckets, bool):
            raise MatcherConfigError(
                "use_degree_buckets must be a bool, "
                f"got {self.use_degree_buckets!r}"
            )
        if self.min_bucket_exponent < 0:
            raise MatcherConfigError(
                "min_bucket_exponent must be >= 0, "
                f"got {self.min_bucket_exponent!r}"
            )
        if not isinstance(self.tie_policy, TiePolicy):
            raise MatcherConfigError(
                f"tie_policy must be a TiePolicy, got {self.tie_policy!r}"
            )
        if self.backend not in BACKENDS:
            raise MatcherConfigError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        validate_candidate_pruning(self.candidate_pruning)
        validate_pruning_frontier(self.pruning_frontier)
        validate_checkpoint_path(self.checkpoint_path)
        if not isinstance(self.warm_start, bool):
            raise MatcherConfigError(
                f"warm_start must be a bool, got {self.warm_start!r}"
            )
        if self.warm_start and self.checkpoint_path is None:
            raise MatcherConfigError(
                "warm_start=True requires a checkpoint_path to resume "
                "from"
            )
        if (
            self.candidate_pruning != "none"
            and self.checkpoint_path is not None
        ):
            raise MatcherConfigError(
                "candidate_pruning is not supported together with "
                "checkpoint_path: the incremental engine's delta "
                "corrections assume the unpruned candidate space, so a "
                "warm resume could silently diverge from a cold pruned "
                "run"
            )
