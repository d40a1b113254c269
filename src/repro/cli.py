"""Command-line interface: run any paper experiment and print its table.

Examples::

    repro list
    repro matchers
    repro run fig2 --seed 7
    repro run table2 --backend csr
    repro run fig2 --checkpoint state.npz --resume
    repro run table3-facebook
    repro run ablation-wikipedia --matcher common-neighbors
    repro run all
    repro stream --batches 5 --compare-cold
    repro stream --checkpoint stream.npz --resume
    repro serve --demo --checkpoint serve.npz
    repro serve --checkpoint serve.npz --resume
    repro serve --replica-of serve.npz.jsonl --port 8724
    repro datasets
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Callable

from repro.core.config import BACKENDS, PRUNING_MODES
from repro.datasets.registry import DATASETS
from repro.evaluation.tables import format_table
from repro.experiments import (
    ablation,
    attack,
    fig2_pa,
    fig3_cascade,
    fig4_degree,
    percolation,
    robustness,
    table2_rmat,
    table3_fb_enron,
    table4_affiliation,
    table5_realworld,
    theory_validation,
)
from repro.experiments.common import ExperimentResult

#: experiment id -> (driver, one-line description)
EXPERIMENTS: dict[str, tuple[Callable[..., ExperimentResult], str]] = {
    "fig2": (fig2_pa.run, "PA + random deletion recall sweep"),
    "table2": (table2_rmat.run, "R-MAT scaling ladder"),
    "table2-million": (
        table2_rmat.run_million,
        "million-node R-MAT rung (serial sweep, peak RSS recorded)",
    ),
    "table3-facebook": (
        table3_fb_enron.run_facebook,
        "Facebook-like random deletion grid",
    ),
    "table3-enron": (
        table3_fb_enron.run_enron,
        "Enron-like sparse random deletion",
    ),
    "fig3": (fig3_cascade.run, "Independent cascade copies"),
    "table4": (
        table4_affiliation.run,
        "Affiliation networks, correlated interest deletion",
    ),
    "table5-dblp": (
        table5_realworld.run_dblp,
        "DBLP-like even/odd years",
    ),
    "table5-gowalla": (
        table5_realworld.run_gowalla,
        "Gowalla-like odd/even month co-location",
    ),
    "table5-wikipedia": (
        table5_realworld.run_wikipedia,
        "Wikipedia-like interlanguage pair",
    ),
    "fig4-dblp": (
        lambda **kw: fig4_degree.run(dataset="dblp", **kw),
        "precision/recall vs degree (DBLP-like)",
    ),
    "fig4-gowalla": (
        lambda **kw: fig4_degree.run(dataset="gowalla", **kw),
        "precision/recall vs degree (Gowalla-like)",
    ),
    "attack": (attack.run, "sybil attack robustness"),
    "ablation-bucketing": (
        ablation.run_bucketing,
        "degree bucketing on/off",
    ),
    "ablation-wikipedia": (
        ablation.run_simple_on_wikipedia,
        "simple baseline vs full algorithm on Wikipedia-like",
    ),
    "ablation-iterations": (
        ablation.run_iterations,
        "outer iteration count sweep",
    ),
    "ablation-tie-policy": (
        ablation.run_tie_policy,
        "tie policy SKIP vs LOWEST_ID",
    ),
    "robustness-noise": (
        robustness.run_noise_edges,
        "spurious noise edges per copy (§3.1 generalization)",
    ),
    "robustness-vertex-deletion": (
        robustness.run_vertex_deletion,
        "per-copy vertex deletion (§3.1 generalization)",
    ),
    "robustness-noisy-seeds": (
        robustness.run_noisy_seeds,
        "corrupted seed links",
    ),
    "robustness-scale": (
        robustness.run_scale_trend,
        "error rate vs graph size (0-error claim is asymptotic)",
    ),
    "robustness-small-world": (
        robustness.run_small_world,
        "Watts–Strogatz substrate (flat degrees)",
    ),
    "percolation": (
        percolation.run,
        "recall vs absolute seed count (the [31] phase transition)",
    ),
    "theory-validation": (
        theory_validation.run,
        "Theorem 1's witness-count gap, measured vs predicted",
    ),
}


def _cmd_list() -> int:
    rows = [[name, desc] for name, (_fn, desc) in EXPERIMENTS.items()]
    print(format_table(["experiment", "description"], rows))
    return 0


def _cmd_matchers() -> int:
    from repro.registry import available_matchers

    rows = [[name, desc] for name, desc in available_matchers().items()]
    print(
        format_table(
            ["matcher", "description"],
            rows,
            title="registered matchers (get_matcher(name) / --matcher)",
        )
    )
    return 0


def _cmd_datasets() -> int:
    rows = [
        [
            spec.name,
            spec.kind,
            f"{spec.paper_nodes:,}",
            f"{spec.paper_edges:,}",
            spec.notes,
        ]
        for spec in DATASETS.values()
    ]
    print(
        format_table(
            ["dataset", "kind", "paper nodes", "paper edges", "stand-in"],
            rows,
            title="Table 1 analog: paper datasets vs reproduction stand-ins",
        )
    )
    return 0


def _cmd_run(
    name: str,
    seed: int,
    chart: bool,
    matcher: str | None = None,
    backend: str | None = None,
    candidate_pruning: str | None = None,
    pruning_frontier: int | None = None,
    track_memory: bool = False,
    checkpoint: str | None = None,
    resume: bool = False,
) -> int:
    if name == "all":
        # The million-node rung is minutes + GiB by design; it only
        # runs when named explicitly.
        names = [n for n in EXPERIMENTS if n != "table2-million"]
    elif name in EXPERIMENTS:
        names = [name]
    else:
        print(
            f"unknown experiment {name!r}; try: {', '.join(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    if matcher is not None:
        from repro.registry import matcher_names

        if matcher not in matcher_names():
            print(
                f"unknown matcher {matcher!r}; "
                f"try: {', '.join(matcher_names())}",
                file=sys.stderr,
            )
            return 2
    if pruning_frontier is not None and pruning_frontier < 0:
        print(
            f"--pruning-frontier must be >= 0, got {pruning_frontier}",
            file=sys.stderr,
        )
        return 2
    if resume and checkpoint is None:
        print("--resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    for option, value in (
        ("matcher", matcher),
        ("backend", backend),
        ("candidate_pruning", candidate_pruning),
        ("pruning_frontier", pruning_frontier),
        ("track_memory", track_memory or None),
        ("checkpoint_path", checkpoint),
        ("warm_start", resume or None),
    ):
        if value is None:
            continue
        unsupported = [
            exp_name
            for exp_name in names
            if option
            not in inspect.signature(EXPERIMENTS[exp_name][0]).parameters
        ]
        if unsupported:
            print(
                f"--{option.replace('_', '-')} is not supported by: "
                + ", ".join(unsupported),
                file=sys.stderr,
            )
            return 2
    for exp_name in names:
        fn, _desc = EXPERIMENTS[exp_name]
        kwargs: dict[str, object] = {"seed": seed}
        if matcher is not None:
            kwargs["matcher"] = matcher
        if backend is not None:
            kwargs["backend"] = backend
        if candidate_pruning is not None:
            kwargs["candidate_pruning"] = candidate_pruning
        if pruning_frontier is not None:
            kwargs["pruning_frontier"] = pruning_frontier
        if track_memory:
            kwargs["track_memory"] = True
        if checkpoint is not None:
            kwargs["checkpoint_path"] = checkpoint
        if resume:
            kwargs["warm_start"] = True
        result = fn(**kwargs)
        print(result.to_table())
        if chart and result.rows:
            rendered = _chart_for(result)
            if rendered:
                print()
                print(rendered)
        print()
    return 0


def _chart_for(result: ExperimentResult) -> str | None:
    """Pick a sensible bar-chart rendering for an experiment's rows."""
    from repro.evaluation.charts import horizontal_bar_chart, series_chart

    columns = result.columns()
    if "recall" not in columns:
        return None
    if "seed_prob" in columns and "threshold" in columns:
        return series_chart(
            result.rows,
            "seed_prob",
            "recall",
            group_key="threshold",
            title="recall by seed probability",
        )
    if "degree" in columns:
        return horizontal_bar_chart(
            [str(r["degree"]) for r in result.rows],
            [float(r["recall"]) for r in result.rows],
            title="recall by degree bucket",
        )
    first = columns[0]
    return horizontal_bar_chart(
        [str(r[first]) for r in result.rows],
        [float(r["recall"]) for r in result.rows],
        title=f"recall by {first}",
    )


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.incremental.stream import run_stream

    if args.resume and args.checkpoint is None:
        print("--resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    try:
        result = run_stream(
            n=args.n,
            m=args.m,
            s=args.s,
            link_prob=args.link_prob,
            stream_fraction=args.stream_fraction,
            batches=args.batches,
            threshold=args.threshold,
            iterations=args.iterations,
            seed=args.seed,
            compare_cold=args.compare_cold,
            checkpoint_path=args.checkpoint,
            warm_start=args.resume,
        )
    except ReproError as exc:
        print(f"stream failed: {exc}", file=sys.stderr)
        return 1
    print(result.to_table())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from repro.core.config import MatcherConfig
    from repro.errors import ReproError
    from repro.graphs.graph import Graph
    from repro.incremental.engine import IncrementalReconciler
    from repro.serving import (
        ReconciliationService,
        ReplicaService,
        ServerThread,
    )

    if args.resume and args.checkpoint is None:
        print("--resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    if args.replica_of is not None:
        # A replica's whole state is derived from the primary's log;
        # the primary-only knobs make no sense here.
        for flag, value in (
            ("--resume", args.resume),
            ("--checkpoint", args.checkpoint is not None),
            ("--demo", args.demo),
        ):
            if value:
                print(
                    f"--replica-of is incompatible with {flag} (a "
                    "replica bootstraps from the primary's checkpoint "
                    "and log)",
                    file=sys.stderr,
                )
                return 2
    try:
        if args.replica_of is not None:
            service = ReplicaService.follow(
                args.replica_of,
                config=MatcherConfig(
                    threshold=args.threshold,
                    iterations=args.iterations,
                ),
                follow_interval=args.follow_interval,
                max_lag_batches=args.max_lag_batches,
            )
        elif args.resume:
            service = ReconciliationService.resume(
                args.checkpoint,
                checkpoint_every=args.checkpoint_every,
                max_pending=args.max_pending,
                fsync=not args.no_fsync,
            )
        else:
            config = MatcherConfig(
                threshold=args.threshold, iterations=args.iterations
            )
            engine = IncrementalReconciler(config)
            if args.demo:
                from repro.incremental.stream import build_stream_workload

                pair, seeds, _deltas = build_stream_workload(
                    n=args.n, m=args.m, seed=args.seed
                )
                engine.start(pair.g1, pair.g2, seeds)
            else:
                # The engine starts on empty graphs; the whole state
                # arrives as POST /delta batches.
                engine.start(Graph(), Graph(), {})
            service = ReconciliationService(
                engine,
                checkpoint_path=args.checkpoint,
                checkpoint_every=args.checkpoint_every,
                max_pending=args.max_pending,
                fsync=not args.no_fsync,
            )
        harness = ServerThread(service, host=args.host, port=args.port)
        harness.start()
    except ReproError as exc:
        print(f"serve failed: {exc}", file=sys.stderr)
        return 1
    role = "replica" if args.replica_of is not None else "primary"
    print(
        f"repro serve [{role}] listening on "
        f"http://{args.host}:{harness.port}\n"
        "routes: GET /health /links /links/<id> /scores/<id> /stats; "
        "POST /delta /checkpoint\n"
        + (
            f"replicating {args.replica_of} (writes answer 403)\n"
            "Ctrl-C stops the follower."
            if role == "replica"
            else "Ctrl-C stops gracefully (drain + flush + checkpoint)."
        )
    )
    try:
        threading.Event().wait(args.serve_seconds or None)
    except KeyboardInterrupt:
        print("\nshutting down (draining queued writes)...")
    harness.stop()
    stats = service.stats_payload()
    print(
        f"served {stats['requests']['total']} requests, "
        f"{stats['applied_batches']} delta batches, "
        f"{stats['links']} links at shutdown"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse CLI (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Korula & Lattanzi, 'An efficient "
            "reconciliation algorithm for social networks' (VLDB 2014)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("matchers", help="list registered matchers")
    sub.add_parser("datasets", help="show the Table 1 analog")
    run_p = sub.add_parser("run", help="run an experiment (or 'all')")
    run_p.add_argument("experiment", help="experiment id from 'list'")
    run_p.add_argument(
        "--seed", type=int, default=0, help="base RNG seed (default 0)"
    )
    run_p.add_argument(
        "--matcher",
        default=None,
        help=(
            "registered matcher name (see 'repro matchers'); only for "
            "experiments that support matcher substitution"
        ),
    )
    run_p.add_argument(
        "--backend",
        default=None,
        choices=list(BACKENDS),
        help=(
            "matcher execution backend (dense interning + numpy kernels "
            "with 'csr'; compiled C hot kernels with 'native', falling "
            "back to csr when no toolchain is available); only for "
            "experiments that support it"
        ),
    )
    run_p.add_argument(
        "--candidate-pruning",
        default=None,
        choices=list(PRUNING_MODES),
        dest="candidate_pruning",
        help=(
            "candidate-pair pruning mode: 'community' restricts "
            "candidate generation to pairs whose endpoints share a "
            "community of the seeded union graph (plus a frontier "
            "ring); changes results — pruned rows report the recall "
            "cost explicitly; only for experiments that support it"
        ),
    )
    run_p.add_argument(
        "--pruning-frontier",
        type=int,
        default=None,
        dest="pruning_frontier",
        metavar="R",
        help=(
            "frontier ring radius for --candidate-pruning community "
            "(default 0 = same-community pairs only); only for "
            "experiments that support it"
        ),
    )
    run_p.add_argument(
        "--track-memory",
        action="store_true",
        dest="track_memory",
        help=(
            "also record each trial's peak allocation in a peak_mb "
            "column (tracemalloc; adds tracing overhead to elapsed_s); "
            "only for experiments that support it"
        ),
    )
    run_p.add_argument(
        "--chart",
        action="store_true",
        help="also render an ASCII chart of the result",
    )
    run_p.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help=(
            "persist the matcher's warm-start state (npz) after the "
            "run; only for experiments that support it"
        ),
    )
    run_p.add_argument(
        "--resume",
        action="store_true",
        help=(
            "warm-start from --checkpoint when it exists (only the "
            "difference since the checkpoint is re-scored; links are "
            "identical to a cold run)"
        ),
    )
    stream_p = sub.add_parser(
        "stream",
        help=(
            "replay an edge-arrival stream in delta batches through "
            "the incremental reconciler"
        ),
    )
    stream_p.add_argument("--n", type=int, default=4000, help="PA graph size")
    stream_p.add_argument(
        "--m", type=int, default=8, help="PA attachment parameter"
    )
    stream_p.add_argument(
        "--s", type=float, default=0.6, help="copy edge retention"
    )
    stream_p.add_argument(
        "--link-prob",
        type=float,
        default=0.05,
        dest="link_prob",
        help="seed link probability",
    )
    stream_p.add_argument(
        "--stream-fraction",
        type=float,
        default=0.2,
        dest="stream_fraction",
        help="fraction of each copy's edges held back as the stream",
    )
    stream_p.add_argument(
        "--batches", type=int, default=5, help="delta batch count"
    )
    stream_p.add_argument(
        "--threshold", type=int, default=2, help="matching score floor"
    )
    stream_p.add_argument(
        "--iterations", type=int, default=1, help="outer iterations"
    )
    stream_p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    stream_p.add_argument(
        "--compare-cold",
        action="store_true",
        dest="compare_cold",
        help=(
            "also time a cold run after every batch and assert link "
            "identity (cold_ms / speedup columns)"
        ),
    )
    stream_p.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="persist engine state here after every batch",
    )
    stream_p.add_argument(
        "--resume",
        action="store_true",
        help="continue a checkpointed stream (skips applied batches)",
    )
    serve_p = sub.add_parser(
        "serve",
        help=(
            "serve the incremental reconciler over HTTP (POST deltas, "
            "GET links/scores; reconciliation-as-a-service)"
        ),
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve_p.add_argument(
        "--port",
        type=int,
        default=8723,
        help="bind port (0 picks a free one)",
    )
    serve_p.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help=(
            "enable durability: periodic npz checkpoints here plus a "
            "JSONL event log at PATH.jsonl"
        ),
    )
    serve_p.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume from --checkpoint, replaying the logged delta "
            "tail; served links are identical to never having stopped"
        ),
    )
    serve_p.add_argument(
        "--checkpoint-every",
        type=int,
        default=8,
        dest="checkpoint_every",
        help="checkpoint every N applied batches (default 8)",
    )
    serve_p.add_argument(
        "--max-pending",
        type=int,
        default=64,
        dest="max_pending",
        help=(
            "admission-control bound on queued writes; beyond it "
            "POST /delta returns 429 with Retry-After (default 64)"
        ),
    )
    serve_p.add_argument(
        "--no-fsync",
        action="store_true",
        dest="no_fsync",
        help=(
            "skip fsync on event-log appends (throughput over "
            "power-loss durability)"
        ),
    )
    serve_p.add_argument(
        "--threshold", type=int, default=2, help="matching score floor"
    )
    serve_p.add_argument(
        "--iterations", type=int, default=1, help="outer iterations"
    )
    serve_p.add_argument(
        "--demo",
        action="store_true",
        help=(
            "start on the stream-demo workload instead of empty "
            "graphs (see 'repro stream')"
        ),
    )
    serve_p.add_argument(
        "--n", type=int, default=4000, help="demo PA graph size"
    )
    serve_p.add_argument(
        "--m", type=int, default=8, help="demo PA attachment parameter"
    )
    serve_p.add_argument(
        "--seed", type=int, default=0, help="demo base RNG seed"
    )
    serve_p.add_argument(
        "--replica-of",
        default=None,
        dest="replica_of",
        metavar="LOG",
        help=(
            "run as a read replica tailing a primary's delta log "
            "(PATH.jsonl next to its checkpoint); serves the same "
            "read routes, answers writes with 403"
        ),
    )
    serve_p.add_argument(
        "--follow-interval",
        type=float,
        default=0.05,
        dest="follow_interval",
        metavar="SECONDS",
        help=(
            "replica: poll interval for an idle primary log "
            "(default 0.05)"
        ),
    )
    serve_p.add_argument(
        "--max-lag-batches",
        type=int,
        default=None,
        dest="max_lag_batches",
        metavar="N",
        help=(
            "replica: GET /health degrades to 503 when more than N "
            "logged batches are unapplied (default: no bound)"
        ),
    )
    serve_p.add_argument(
        "--serve-seconds",
        type=float,
        default=0,
        dest="serve_seconds",
        help=(
            "stop gracefully after this many seconds (0 = run until "
            "Ctrl-C); used by the CI smoke test"
        ),
    )
    lint_p = sub.add_parser(
        "lint",
        help=(
            "run the repro-lint static checks (determinism, ordered "
            "iteration, dtype discipline, ...)"
        ),
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint_p)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "matchers":
        return _cmd_matchers()
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "run":
        return _cmd_run(
            args.experiment,
            args.seed,
            args.chart,
            args.matcher,
            args.backend,
            args.candidate_pruning,
            args.pruning_frontier,
            args.track_memory,
            args.checkpoint,
            args.resume,
        )
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "lint":
        from repro.analysis.cli import run_lint_command

        return run_lint_command(args)
    return 2  # unreachable: argparse enforces the sub-command set


if __name__ == "__main__":
    sys.exit(main())
