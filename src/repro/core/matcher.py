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

Implementation note — deferred incremental witness table.  A literal
reading recounts every similarity witness in every (iteration, bucket)
round, as the MapReduce formulation (:mod:`repro.mapreduce.matcher_mr`)
does.  Because links only grow and node degrees never change, this class
instead materializes each link's witness contribution to a candidate pair
exactly once — at the first bucket where that pair is degree-eligible —
into a running score table, and filters by current match state at
emission.  Contributions to pairs that can never be eligible (an endpoint
below the bucket floor) are never materialized at all.  Each selection
round therefore sees exactly the scores the paper's per-round recount
would produce for the eligible pairs (tests assert link-for-link equality
with the MapReduce reference), while hub neighborhoods are not re-joined
``log D`` times per iteration.

Backends.  The above describes ``backend="dict"``, the reference
implementation over Python dicts keyed by original node ids.  With
``MatcherConfig(backend="csr")`` the same sweep runs over a
:class:`~repro.graphs.pair_index.GraphPairIndex`: node ids are interned
to dense integers once, witnesses are counted with the sparse incidence
product of :func:`repro.core.kernels.count_witnesses`, and selection is
the vectorized mutual-best kernel.  When the dense key space ``n1 * n2``
fits the scatter cap, the score table is carried across rounds
(:class:`~repro.core.kernels.CarriedWitnessTable`): each round joins
only the links added since the last join and, when the degree floor
drops, the older links against the newly eligible band, then extracts
the pairs that are unlinked and at or above the round's floor.  Larger
key spaces recount every link in every round, the MapReduce dataflow at
array speed.  Either way each round selects from exactly the
eligible-pair scores of the incremental table, so the two backends are
link-identical — the same equality the MapReduce tests already pin
down.
``MatcherConfig(backend="native")`` — the default — is the same sweep
again with the compiled hot kernels of :mod:`repro.core.native`
(hash-accumulated witness join, compiled merges and selection) and
degrades to the csr kernels — with a warning, never an error — when no
C toolchain exists; the three-way property wall pins all backends
bit-identical.

Parallelism.  ``MatcherConfig(backend="csr", workers=N)`` additionally
fans each round's joins out to a shared-memory worker pool
(:mod:`repro.core.parallel`); the merge is deterministic, so any worker
count produces bit-identical links to ``workers=1``.

Memory budgeting.  ``MatcherConfig(backend="csr", memory_budget_mb=M)``
bounds each round's transient witness-join working set: the round's
links are split into column blocks sized from per-link degree-product
estimates (:mod:`repro.core.shards`) and streamed through
:func:`repro.core.kernels.count_witnesses_blocked`, whose canonical
block merge is the same summation as the worker-shard merge — so any
budget, with or without workers, produces bit-identical links.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Callable, Hashable

from repro.core.config import MatcherConfig, TiePolicy
from repro.core.ordering import node_sort_key
from repro.core.protocol import ProgressCallback, ProgressReporter
from repro.core.result import MatchingResult, PhaseRecord
from repro.errors import MatcherConfigError
from repro.graphs.graph import Graph
from repro.registry import register_matcher

if TYPE_CHECKING:
    import numpy as np

    from repro.core.native import NativeKernels
    from repro.core.parallel import WitnessPool
    from repro.graphs.pair_index import GraphPairIndex

Node = Hashable

#: Sentinel marking a right-side best that is tied (SKIP policy drops it).
_TIED = object()


class _LinkRecord:
    """Pending witness emissions of one identification link.

    Candidates on each side are grouped by degree exponent (``floor(log2
    deg)``); a candidate pair ``(v1, v2)`` becomes eligible — and is
    emitted — at bucket ``min(exp1, exp2)``.  ``advance(j)`` emits every
    stratum from the last emitted bucket down to ``j``, so creation inside
    bucket ``j`` emits all already-eligible pairs at once and each later
    bucket adds exactly its own stratum.
    """

    __slots__ = (
        "left_by_exp",
        "right_by_exp",
        "left_acc",
        "right_acc",
        "emitted_down_to",
    )

    def __init__(
        self,
        left_by_exp: dict[int, list[Node]],
        right_by_exp: dict[int, list[Node]],
        top_exponent: int,
    ) -> None:
        self.left_by_exp = left_by_exp
        self.right_by_exp = right_by_exp
        self.left_acc: list[Node] = []
        self.right_acc: list[Node] = []
        self.emitted_down_to = top_exponent + 1

    def advance(
        self,
        j: int,
        links: dict[Node, Node],
        linked_right: set[Node],
        rows: dict[Node, dict[Node, int]],
    ) -> int:
        """Emit all strata in ``[j, emitted_down_to)``; return pair count."""
        if j >= self.emitted_down_to:
            return 0
        new_left: list[Node] = []
        new_right: list[Node] = []
        for exp in range(self.emitted_down_to - 1, j - 1, -1):
            new_left.extend(self.left_by_exp.pop(exp, ()))
            new_right.extend(self.right_by_exp.pop(exp, ()))
        self.emitted_down_to = j
        # Drop candidates matched since the record was built.
        new_left = [v for v in new_left if v not in links]
        new_right = [v for v in new_right if v not in linked_right]
        left_acc = [v for v in self.left_acc if v not in links]
        right_acc = [v for v in self.right_acc if v not in linked_right]
        emitted = 0
        # new pairs = new_left x (right_acc + new_right) + left_acc x new_right
        if new_left:
            right_all = right_acc + new_right
            if right_all:
                emitted += len(new_left) * len(right_all)
                for v1 in new_left:
                    row = rows.get(v1)
                    if row is None:
                        row = rows[v1] = {}
                    get = row.get
                    for v2 in right_all:
                        row[v2] = get(v2, 0) + 1
        if new_right and left_acc:
            emitted += len(left_acc) * len(new_right)
            for v1 in left_acc:
                row = rows.get(v1)
                if row is None:
                    row = rows[v1] = {}
                get = row.get
                for v2 in new_right:
                    row[v2] = get(v2, 0) + 1
        self.left_acc = left_acc + new_left
        self.right_acc = right_acc + new_right
        return emitted

    @property
    def exhausted(self) -> bool:
        """True once every stratum has been emitted."""
        return not self.left_by_exp and not self.right_by_exp


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

        The graph-free twin used by the array sweep and the incremental
        engine — a memory-mapped index
        (:meth:`~repro.graphs.pair_index.GraphPairIndex.open_mmap`) has
        no backing :class:`Graph` objects, and the observed maximum
        degree is already an ``O(n)`` array reduction.
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
        cfg = self.config
        if cfg.checkpoint_path is not None:
            return self._run_checkpointed(g1, g2, seeds, reporter)
        if cfg.backend in ("csr", "native"):
            return self._run_csr(g1, g2, seeds, reporter)
        prune = None
        if cfg.candidate_pruning == "community":
            # The dict backend pays one dense interning to compute the
            # *same* community assignment as the array backends — the
            # price of an identical filter, and so identical links.
            from repro.graphs.communities import assignment_for
            from repro.graphs.pair_index import GraphPairIndex

            index = GraphPairIndex(g1, g2)
            assignment = assignment_for(
                g1, g2, seeds,
                frontier=cfg.pruning_frontier,
                index=index,
            )
            cmap1, cmap2 = assignment.community_maps(index)
            del index

            def prune(v1: Node, v2: Node) -> bool:
                return assignment.allowed_communities(
                    cmap1[v1], cmap2[v2]
                )

        adj1 = g1.adjacency()
        adj2 = g2.adjacency()
        floor_exp = cfg.min_bucket_exponent
        links: dict[Node, Node] = dict(seeds)
        linked_right: set[Node] = set(links.values())
        rows: dict[Node, dict[Node, int]] = {}
        records: list[_LinkRecord] = []
        pending: list[tuple[Node, Node]] = list(links.items())
        phases: list[PhaseRecord] = []
        exponents = self.bucket_exponents(g1, g2)
        top_exponent = exponents[0]

        for iteration in range(1, cfg.iterations + 1):
            added_this_iteration = 0
            for j in exponents:
                min_degree = 1 << j
                emitted = 0
                # Materialize records for links created last round.
                for u1, u2 in pending:
                    record = self._build_record(
                        adj1, adj2, u1, u2, links, linked_right,
                        floor_exp, top_exponent,
                    )
                    if record is not None:
                        emitted += record.advance(j, links, linked_right, rows)
                        if not record.exhausted:
                            records.append(record)
                pending = []
                # Emit this bucket's stratum of every live record.
                live: list[_LinkRecord] = []
                for record in records:
                    emitted += record.advance(j, links, linked_right, rows)
                    if not record.exhausted:
                        live.append(record)
                records = live
                new_links, candidates = self._select(
                    adj1, adj2, linked_right, rows, min_degree,
                    prune=prune,
                )
                for v1, v2 in new_links.items():
                    links[v1] = v2
                    linked_right.add(v2)
                    rows.pop(v1, None)
                    pending.append((v1, v2))
                added_this_iteration += len(new_links)
                phases.append(
                    PhaseRecord(
                        iteration=iteration,
                        bucket_exponent=(
                            j if cfg.use_degree_buckets else None
                        ),
                        min_degree=min_degree,
                        candidates=candidates,
                        witnesses_emitted=emitted,
                        links_added=len(new_links),
                    )
                )
                reporter.emit(
                    "bucket",
                    links_total=len(links),
                    links_added=len(new_links),
                )
            if added_this_iteration == 0:
                break  # a full sweep found nothing; more sweeps won't.
        return MatchingResult(links=links, seeds=dict(seeds), phases=phases)

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

    def _run_csr(
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
        eligible-pair scores of the dict backend's incremental table,
        and the same ``PhaseRecord`` values.

        With ``workers > 1`` every join is fanned out to a
        :class:`~repro.core.parallel.WitnessPool`: the CSR arrays go
        into shared memory once, each join's links are LPT-sharded, and
        the per-shard tables are summed deterministically — selection
        then sees exactly the serial table, so the links are
        bit-identical for any worker count.

        ``backend="native"`` runs the same sweep with the compiled
        kernels of :mod:`repro.core.native` plugged into every join,
        merge, and selection; the handle is resolved once here, so a
        missing toolchain warns once
        (:class:`~repro.core.native.NativeFallbackWarning`) and the
        sweep proceeds on the csr kernels — links identical either way.
        """
        from repro.graphs.pair_index import GraphPairIndex

        cfg = self.config
        index = GraphPairIndex(g1, g2)
        if cfg.mmap:
            # Out-of-core execution: spill the interning to an
            # uncompressed npz and reopen it memory-mapped, so the
            # sweep (and the block planner under memory_budget_mb)
            # streams adjacency pages from disk.  The in-memory arrays
            # are dropped before the sweep starts; links are
            # bit-identical either way.
            import tempfile

            with tempfile.TemporaryDirectory(
                prefix="repro-mmap-"
            ) as tmpdir:
                spill = Path(tmpdir) / "pair_index.npz"
                index.save_npz(spill)
                del index
                with GraphPairIndex.open_mmap(spill) as mapped:
                    return self._run_index(mapped, seeds, reporter)
        return self._run_index(index, seeds, reporter)

    def run_index(
        self,
        index: "GraphPairIndex",
        seeds: dict[Node, Node],
        *,
        progress: ProgressCallback | None = None,
    ) -> MatchingResult:
        """Run the array sweep directly over a prebuilt pair index.

        The out-of-core entry point: pass a
        :class:`~repro.graphs.pair_index.MmapGraphPairIndex` from
        :meth:`~repro.graphs.pair_index.GraphPairIndex.open_mmap` and
        the whole reconciliation runs without the original
        :class:`Graph` objects ever existing in this process.  Requires
        an array backend (``"csr"``/``"native"``) and no
        ``checkpoint_path`` (the incremental engine needs the mutable
        graphs); links are bit-identical to :meth:`run` on the graphs
        the index was built from.
        """
        cfg = self.config
        if cfg.backend not in ("csr", "native"):
            raise MatcherConfigError(
                "run_index requires backend='csr' or 'native'; the "
                f"'{cfg.backend}' backend needs the original Graph "
                "objects — use run(g1, g2, seeds)"
            )
        if cfg.checkpoint_path is not None:
            raise MatcherConfigError(
                "run_index does not support checkpoint_path: the "
                "incremental engine needs the mutable graphs — use "
                "run(g1, g2, seeds)"
            )
        if len(set(seeds.values())) != len(seeds):
            raise MatcherConfigError("seed links must be one-to-one")
        reporter = ProgressReporter("user-matching", progress)
        return self._run_index(index, seeds, reporter)

    def _run_index(
        self,
        index: "GraphPairIndex",
        seeds: dict[Node, Node],
        reporter: ProgressReporter,
    ) -> MatchingResult:
        """Open the worker pool and sweep over *index*."""
        from repro.core.parallel import open_witness_pool

        cfg = self.config
        native = None
        if cfg.backend == "native":
            from repro.core.native import load_native_library

            native = load_native_library()
        pool = open_witness_pool(
            index, cfg.workers, use_native=native is not None
        )
        try:
            return self._sweep_csr(
                index, pool, seeds, reporter, native=native
            )
        finally:
            if pool is not None:
                pool.close()

    def _sweep_csr(
        self,
        index: "GraphPairIndex",
        pool: "WitnessPool | None",
        seeds: dict[Node, Node],
        reporter: ProgressReporter,
        native: "NativeKernels | None" = None,
    ) -> MatchingResult:
        """The bucket sweep over dense ids (serial or pooled joins)."""
        import numpy as np

        from repro.core import kernels

        cfg = self.config
        # One dense scatter buffer shared by every round's fold/merge
        # (sort-free when the key space is small); pointless when the
        # compiled hash merge is available.
        workspace = (
            kernels.ScatterWorkspace.for_index(index)
            if native is None
            else None
        )
        link_l, link_r = index.intern_links(seeds)
        assignment = None
        if cfg.candidate_pruning == "community":
            # Built once from the union graph and the *initial* seed
            # links — every backend consults the same assignment, so
            # the filter (and the links) are identical across
            # dict/csr/native.
            from repro.graphs.communities import assign_communities

            assignment = assign_communities(
                index, link_l, link_r, frontier=cfg.pruning_frontier
            )

        def allowed(
            scores: "kernels.ArrayScores",
        ) -> "kernels.ArrayScores":
            if assignment is None:
                return scores
            return kernels.prune_scores(
                scores, assignment.allowed_mask(scores.left, scores.right)
            )

        # Every counter takes the recount's floor (``min_count``) and
        # leaves out the pairs community pruning does not allow.  The
        # pooled and blocked ones sum partial tables, so they keep every
        # count, selection applies the threshold to the sums, and they
        # prune the joined table.
        if cfg.memory_budget_mb is not None:
            # Memory-budgeted streaming: each round's links are split
            # into degree-product-sized blocks; with a pool, every block
            # is additionally sharded across the workers.  Both merges
            # are the same canonical summation, so blocked x workers is
            # bit-identical to the monolithic serial recount.
            def count(
                ll: "np.ndarray",
                lr: "np.ndarray",
                e1: "np.ndarray",
                e2: "np.ndarray",
                *,
                min_count: int = 1,
            ) -> "tuple[kernels.ArrayScores, int]":
                scores, emitted = kernels.count_witnesses_blocked(
                    index,
                    ll,
                    lr,
                    e1,
                    e2,
                    cfg.memory_budget_mb,
                    counter=(
                        pool.count_witnesses if pool is not None else None
                    ),
                    native=native,
                    workspace=workspace,
                )
                return allowed(scores), emitted

        elif pool is not None:

            def count(
                ll: "np.ndarray",
                lr: "np.ndarray",
                e1: "np.ndarray",
                e2: "np.ndarray",
                *,
                min_count: int = 1,
            ) -> "tuple[kernels.ArrayScores, int]":
                scores, emitted = pool.count_witnesses(ll, lr, e1, e2)
                return allowed(scores), emitted

        else:

            def count(
                ll: "np.ndarray",
                lr: "np.ndarray",
                e1: "np.ndarray",
                e2: "np.ndarray",
                *,
                min_count: int = 1,
            ) -> "tuple[kernels.ArrayScores, int]":
                return kernels.count_witnesses(
                    index,
                    ll,
                    lr,
                    e1,
                    e2,
                    native=native,
                    min_count=min_count,
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
    def _build_record(
        adj1: dict[Node, set[Node]],
        adj2: dict[Node, set[Node]],
        u1: Node,
        u2: Node,
        links: dict[Node, Node],
        linked_right: set[Node],
        floor_exp: int,
        top_exponent: int,
    ) -> _LinkRecord | None:
        """Group the unmatched neighbors of a link by degree exponent.

        Candidates whose degree exponent is below the bucket floor can
        never be matched and are skipped outright.
        """
        if u2 not in adj2:
            return None
        # Strata are clamped to the sweep's top bucket: a candidate whose
        # degree exceeds 2^(top+1) is eligible from the very first bucket,
        # exactly like one at 2^top (matters when max_degree is configured
        # below the observed maximum, or when bucketing is disabled).
        left_by_exp: dict[int, list[Node]] = {}
        for v1 in adj1[u1]:
            if v1 in links:
                continue
            exp = len(adj1[v1]).bit_length() - 1
            if exp < floor_exp:
                continue
            left_by_exp.setdefault(min(exp, top_exponent), []).append(v1)
        if not left_by_exp:
            return None
        right_by_exp: dict[int, list[Node]] = {}
        for v2 in adj2[u2]:
            if v2 in linked_right:
                continue
            exp = len(adj2[v2]).bit_length() - 1
            if exp < floor_exp:
                continue
            right_by_exp.setdefault(min(exp, top_exponent), []).append(v2)
        if not right_by_exp:
            return None
        return _LinkRecord(left_by_exp, right_by_exp, top_exponent)

    def _select(
        self,
        adj1: dict[Node, set[Node]],
        adj2: dict[Node, set[Node]],
        linked_right: set[Node],
        rows: dict[Node, dict[Node, int]],
        min_degree: int,
        prune: "Callable[[Node, Node], bool] | None" = None,
    ) -> tuple[dict[Node, Node], int]:
        """Mutual-best selection restricted to the current degree bucket.

        With *prune* set (``candidate_pruning="community"``) a pair is
        additionally skipped — before it can count as a candidate or
        influence any best — unless the filter allows it; the exact
        mirror of the array backends masking the score table before
        selection.

        Returns ``(new_links, candidates_considered)``.
        """
        cfg = self.config
        threshold = cfg.threshold
        lowest_id = cfg.tie_policy is TiePolicy.LOWEST_ID
        left_best: dict[Node, Node] = {}
        right_score: dict[Node, int] = {}
        right_left: dict[Node, object] = {}
        candidates = 0
        for v1, row in rows.items():
            if len(adj1[v1]) < min_degree:
                continue
            best_v2 = None
            best_sc = 0
            tied = False
            for v2, sc in row.items():
                if (
                    sc < threshold
                    or v2 in linked_right
                    or len(adj2[v2]) < min_degree
                ):
                    continue
                if prune is not None and not prune(v1, v2):
                    continue
                candidates += 1
                # Left-side best for v1.
                if sc > best_sc:
                    best_v2, best_sc, tied = v2, sc, False
                elif sc == best_sc:
                    if lowest_id:
                        if node_sort_key(v2) < node_sort_key(best_v2):
                            best_v2 = v2
                    else:
                        tied = True
                # Right-side best for v2 (over all in-bucket rows).
                prev = right_score.get(v2)
                if prev is None or sc > prev:
                    right_score[v2] = sc
                    right_left[v2] = v1
                elif sc == prev and right_left[v2] != v1:
                    if lowest_id:
                        if node_sort_key(v1) < node_sort_key(right_left[v2]):
                            right_left[v2] = v1
                    else:
                        right_left[v2] = _TIED
            if best_v2 is not None and not tied:
                left_best[v1] = best_v2
        new_links = {
            v1: v2
            for v1, v2 in left_best.items()
            if right_left.get(v2) == v1
        }
        return new_links, candidates

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
