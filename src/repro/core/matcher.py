"""The **User-Matching** algorithm (paper §3.2).

Pseudocode from the paper::

    For i = 1, ..., k
      For j = log D, ..., 1
        For all pairs (u, v), u ∈ G1, v ∈ G2,
            with d_G1(u) >= 2^j and d_G2(v) >= 2^j:
          score(u, v) = number of similarity witnesses between u and v
          If (u, v) is the pair with highest score in which either u or v
             appear, and the score is above T: add (u, v) to L
    Output L

High-degree nodes are matched first (outer sweep over degree buckets
``2^j``), which the paper shows cuts the error rate by more than a third;
newly-found links immediately become witnesses for the next bucket/round.

Implementation note — one array sweep.  Both graphs are interned to
dense integers once (:class:`~repro.graphs.pair_index.GraphPairIndex`),
witnesses are counted with the CSR join of
:func:`repro.core.kernels.count_witnesses`, and selection is the
vectorized mutual-best kernel.  A literal reading recounts every
similarity witness in every (iteration, bucket) round, as the MapReduce
formulation (:mod:`repro.mapreduce.matcher_mr`) does.  Because links
only grow and node degrees never change, a link's witnesses for an
eligible pair never change either: when the dense key space ``n1 * n2``
fits the scatter cap, the score table is carried across rounds
(:class:`~repro.core.kernels.CarriedWitnessTable`) and each round joins
only the links added since the last join and, when the degree floor
drops, the older links against the newly eligible band.  Larger key
spaces recount every link in every round, the MapReduce dataflow at
array speed.  Either way each round selects from exactly the scores the
paper's per-round recount produces for the eligible pairs; the
MapReduce formulation is the oracle the tests compare every
``MatchingResult`` against, phase records included.

Backends.  ``MatcherConfig(backend="native")`` — the default — runs the
sweep with the compiled hot kernels of :mod:`repro.core.native`
(row-major witness join, carried-table upkeep and selection) and
degrades to the ``"csr"`` kernels (scipy's sparse product and numpy)
with a warning, never an error, when no C toolchain exists.  The two
are bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from repro.core.config import MatcherConfig
from repro.core.protocol import ProgressCallback, ProgressReporter
from repro.core.result import MatchingResult, PhaseRecord
from repro.errors import MatcherConfigError
from repro.graphs.graph import Graph
from repro.registry import register_matcher

if TYPE_CHECKING:
    from repro.core.native import NativeKernels
    from repro.graphs.pair_index import GraphPairIndex

Node = Hashable

@register_matcher(
    "user-matching",
    description="the paper's User-Matching algorithm (§3.2)",
)
class UserMatching:
    """The paper's reconciliation algorithm.

    Example::

        from repro import MatcherConfig, UserMatching
        matcher = UserMatching(MatcherConfig(threshold=2, iterations=2))
        result = matcher.run(g1, g2, seeds)
        result.links       # seeds + everything newly identified
    """

    def __init__(self, config: MatcherConfig | None = None) -> None:
        self.config = config or MatcherConfig()

    @classmethod
    def from_params(
        cls, config: MatcherConfig | None = None, **params: object
    ) -> "UserMatching":
        """Registry hook: build from raw :class:`MatcherConfig` kwargs."""
        if config is not None and params:
            raise MatcherConfigError(
                "pass either config= or raw MatcherConfig kwargs, not both"
            )
        return cls(config or MatcherConfig(**params))

    # ------------------------------------------------------------------
    def bucket_exponents(self, g1: Graph, g2: Graph) -> list[int]:
        """The descending list of bucket exponents ``j`` for these graphs.

        ``D`` is the configured max degree (default: the max over both
        copies); the sweep is ``floor(log2 D), ..., min_bucket_exponent``.
        With bucketing disabled this is a single pseudo-bucket at the
        minimum exponent.
        """
        return self._bucket_schedule(max(g1.max_degree(), g2.max_degree()))

    def bucket_exponents_index(
        self, index: "GraphPairIndex"
    ) -> list[int]:
        """:meth:`bucket_exponents` from an index's degree arrays.

        Used by the array sweep and the incremental engine: the observed
        maximum degree is an ``O(n)`` reduction over arrays the index
        already holds.
        """
        return self._bucket_schedule(
            max(
                int(index.deg1.max(initial=0)),
                int(index.deg2.max(initial=0)),
            )
        )

    def _bucket_schedule(self, observed_max_degree: int) -> list[int]:
        """The bucket exponents given the pair's observed max degree."""
        cfg = self.config
        if not cfg.use_degree_buckets:
            return [cfg.min_bucket_exponent]
        d = cfg.max_degree
        if d is None:
            d = max(observed_max_degree, 1)
        top = max(d.bit_length() - 1, cfg.min_bucket_exponent)
        return list(range(top, cfg.min_bucket_exponent - 1, -1))

    def run(
        self,
        g1: Graph,
        g2: Graph,
        seeds: dict[Node, Node],
        *,
        progress: ProgressCallback | None = None,
    ) -> MatchingResult:
        """Run User-Matching and return the expanded link set.

        Parameters
        ----------
        g1, g2 : Graph
            The two networks.
        seeds : dict
            Initial identification links ``L`` (g1-node -> g2-node);
            must be one-to-one and reference existing nodes.
        progress : callable, optional
            Invoked once per (iteration, bucket) round with a
            :class:`~repro.core.protocol.ProgressEvent`.

        Returns
        -------
        MatchingResult
            ``links`` extend (and include) the seeds; ``phases`` holds
            one record per (iteration, bucket) round with witness-pair
            counts (the paper's cost unit).
        """
        self._validate_seeds(g1, g2, seeds)
        reporter = ProgressReporter("user-matching", progress)
        if self.config.checkpoint_path is not None:
            return self._run_checkpointed(g1, g2, seeds, reporter)
        return self._sweep(g1, g2, seeds, reporter)

    # ------------------------------------------------------------------
    def _run_checkpointed(
        self,
        g1: Graph,
        g2: Graph,
        seeds: dict[Node, Node],
        reporter: ProgressReporter,
    ) -> MatchingResult:
        """Persist (and optionally warm-resume) through a checkpoint.

        With ``warm_start`` and an existing checkpoint, the persisted
        state is rebuilt, diffed against the given graphs/seeds, and
        only the difference is re-scored by the incremental engine —
        then the refreshed state is saved back.  Otherwise the run is
        cold (captured by the engine so the next run *can* warm-start)
        and saved.  Either way the links are bit-identical to an
        unpersisted run on the same inputs, and the caller's graphs
        are never mutated (the engine owns reconstructed copies).

        The engine replays rounds without a live callback, so progress
        events are emitted from the phase history after the run — the
        caller sees the same one-event-per-round stream as an
        unpersisted run, just not interleaved in real time.
        """
        import dataclasses
        from pathlib import Path

        from repro.incremental.delta import delta_between
        from repro.incremental.engine import IncrementalReconciler

        cfg = self.config
        path = Path(cfg.checkpoint_path)
        base_cfg = dataclasses.replace(
            cfg, checkpoint_path=None, warm_start=False
        )
        if cfg.warm_start and path.exists():
            engine = IncrementalReconciler.resume(path)
            engine.require_config(base_cfg)
            delta = delta_between(
                engine.g1, engine.g2, engine.seeds, g1, g2, seeds
            )
            outcome = engine.apply(delta)
            engine.save_checkpoint(path)
            result = outcome.result
        else:
            engine = IncrementalReconciler(base_cfg)
            # The engine keeps graph references and mutates them on
            # later deltas; hand it copies so this matcher's caller
            # keeps undisturbed graphs.
            result = engine.start(g1.copy(), g2.copy(), seeds)
            engine.save_checkpoint(path)
        links_total = len(result.seeds)
        for phase in result.phases:
            links_total += phase.links_added
            reporter.emit(
                "bucket",
                links_total=links_total,
                links_added=phase.links_added,
            )
        return result

    def _sweep(
        self,
        g1: Graph,
        g2: Graph,
        seeds: dict[Node, Node],
        reporter: ProgressReporter,
    ) -> MatchingResult:
        """Array-backed sweep: dense interning + CSR witness joins.

        Links only grow and degrees never change, so a link's witnesses
        for an eligible pair never change either.  When the key space
        ``n1 * n2`` fits the dense scatter cap, the sweep carries one
        score table across rounds
        (:class:`~repro.core.kernels.CarriedWitnessTable`) and joins
        only new links and newly eligible degree bands; larger key
        spaces recount every bucket against the full link set (the
        MapReduce formulation's dataflow).  Both yield exactly the
        eligible-pair scores of a full recount, so the links and every
        ``PhaseRecord`` field equal the MapReduce formulation's.

        ``backend="native"`` runs the same sweep with the compiled
        kernels of :mod:`repro.core.native` plugged into every join,
        table fold, and selection; the handle is resolved once here, so a
        missing toolchain warns once
        (:class:`~repro.core.native.NativeFallbackWarning`) and the
        sweep proceeds on the csr kernels — links identical either way.
        """
        import functools

        import numpy as np

        from repro.core import kernels
        from repro.graphs.pair_index import GraphPairIndex

        index = GraphPairIndex(g1, g2)
        cfg = self.config
        native: "NativeKernels | None" = None
        if cfg.backend == "native":
            from repro.core.native import load_native_library

            native = load_native_library()
        link_l, link_r = index.intern_links(seeds)
        assignment = None
        if cfg.candidate_pruning == "community":
            # Built once from the union graph and the *initial* seed
            # links — the same assignment the MapReduce formulation
            # consults, so the filter (and the links) are identical.
            from repro.graphs.communities import assign_communities

            assignment = assign_communities(
                index, link_l, link_r, frontier=cfg.pruning_frontier
            )
        # Every join floors at the caller's ``min_count`` and leaves out
        # the pairs community pruning does not allow.
        count = functools.partial(
            kernels.count_witnesses,
            index,
            native=native,
            communities=assignment,
        )
        linked1 = np.zeros(index.n1, dtype=bool)
        linked2 = np.zeros(index.n2, dtype=bool)
        linked1[link_l] = True
        linked2[link_r] = True
        links: dict[Node, Node] = dict(seeds)
        phases: list[PhaseRecord] = []
        exponents = self.bucket_exponents_index(index)
        # Small key spaces carry one score table across rounds and join
        # only new links and newly eligible degree bands; larger ones
        # recount every round.
        table = kernels.CarriedWitnessTable.for_index(
            index, exponents, count, native=native
        )

        for iteration in range(1, cfg.iterations + 1):
            added_this_iteration = 0
            for j in exponents:
                min_degree = 1 << j
                if table is not None:
                    scores, emitted = table.round(
                        link_l, link_r, linked1, linked2, j, cfg.threshold
                    )
                else:
                    # Each recount is complete per pair, so a row below
                    # the threshold can never be selected.
                    floor1, floor2 = index.eligibility(min_degree)
                    scores, emitted = count(
                        link_l,
                        link_r,
                        ~linked1 & floor1,
                        ~linked2 & floor2,
                        min_count=cfg.threshold,
                    )
                new_l, new_r, candidates = (
                    kernels.select_mutual_best_arrays(
                        scores, cfg.threshold, cfg.tie_policy
                    )
                )
                if len(new_l):
                    linked1[new_l] = True
                    linked2[new_r] = True
                    link_l = np.concatenate([link_l, new_l])
                    link_r = np.concatenate([link_r, new_r])
                    links.update(index.export_links(new_l, new_r))
                added_this_iteration += len(new_l)
                phases.append(
                    PhaseRecord(
                        iteration=iteration,
                        bucket_exponent=(
                            j if cfg.use_degree_buckets else None
                        ),
                        min_degree=min_degree,
                        candidates=candidates,
                        witnesses_emitted=emitted,
                        links_added=len(new_l),
                    )
                )
                reporter.emit(
                    "bucket",
                    links_total=len(links),
                    links_added=len(new_l),
                )
            if added_this_iteration == 0:
                break
        return MatchingResult(links=links, seeds=dict(seeds), phases=phases)

    # ------------------------------------------------------------------
    @staticmethod
    def _validate_seeds(g1: Graph, g2: Graph, seeds: dict[Node, Node]) -> None:
        if len(set(seeds.values())) != len(seeds):
            raise MatcherConfigError("seed links must be one-to-one")
        for v1, v2 in seeds.items():
            if not g1.has_node(v1):
                raise MatcherConfigError(
                    f"seed {v1!r} -> {v2!r}: {v1!r} not in g1"
                )
            if not g2.has_node(v2):
                raise MatcherConfigError(
                    f"seed {v1!r} -> {v2!r}: {v2!r} not in g2"
                )
