"""Figure 2 — PA graph, independent deletion: recall vs seed probability.

Paper setup: PA graph with 1M nodes and m = 20; each copy keeps edges with
s = 0.5; seed link probability sweeps a few percent; thresholds T ∈ {1,2,3}.
Result: the algorithm makes **zero errors at every threshold and seed
probability** and recovers almost the entire graph; lowering T raises
recall without hurting precision.

Reproduction: same workload at reduced scale (default n = 20,000, same
m = 20).  Shape checks: precision ≈ 1 everywhere, recall high and
increasing in the seed probability, recall(T=1) >= recall(T=2) >=
recall(T=3).
"""

from __future__ import annotations

from repro.core.config import DEFAULT_BACKEND, MatcherConfig
from repro.evaluation.harness import run_trial
from repro.experiments.common import ExperimentResult, checkpoint_for
from repro.generators.preferential_attachment import (
    preferential_attachment_graph,
)
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds
from repro.utils.rng import spawn_rngs


def run(
    n: int = 20_000,
    m: int = 20,
    s: float = 0.5,
    seed_probs: tuple[float, ...] = (0.01, 0.02, 0.05, 0.10, 0.20),
    thresholds: tuple[int, ...] = (1, 2, 3),
    iterations: int = 2,
    seed=0,
    backend: str = DEFAULT_BACKEND,
    candidate_pruning: str = "none",
    pruning_frontier: int = 0,
    checkpoint_path: str | None = None,
    warm_start: bool = False,
) -> ExperimentResult:
    """Reproduce the Figure 2 series at reduced scale.

    With *checkpoint_path* every grid cell persists its warm-start
    state to a per-cell file (see
    :func:`repro.experiments.common.checkpoint_for`); *warm_start*
    resumes from those files on a re-run, re-scoring only what changed
    (nothing, for an identical seed — which is exactly the instant-replay
    case).

    With ``candidate_pruning="community"`` every cell additionally runs
    an unpruned reference and reports the quality trade explicitly: the
    ``candidate_pairs`` column shows the pair-space shrink and
    ``pruning_recall_cost`` the recall given up for it.  (Pruning does
    not compose with *checkpoint_path*.)
    """
    rng_graph, rng_copies, rng_seeds = spawn_rngs(seed, 3)
    graph = preferential_attachment_graph(n, m, seed=rng_graph)
    pair = independent_copies(graph, s1=s, seed=rng_copies)
    result = ExperimentResult(
        name="fig2",
        description=(
            "PA + independent deletion: correct pairs vs seed link "
            "probability, per threshold (paper: precision always 100%)"
        ),
        notes=f"scale: n={n}, m={m} (paper: n=1M, m=20), s={s}",
    )
    for link_prob in seed_probs:
        seeds = sample_seeds(pair, link_prob, seed=rng_seeds)
        for threshold in thresholds:
            config = MatcherConfig(
                threshold=threshold,
                iterations=iterations,
                # T=1 can identify degree-1 nodes; let it try them.
                min_bucket_exponent=0 if threshold == 1 else 1,
                backend=backend,
                candidate_pruning=candidate_pruning,
                pruning_frontier=pruning_frontier,
                checkpoint_path=checkpoint_for(
                    checkpoint_path, f"p{link_prob}-t{threshold}"
                ),
                warm_start=warm_start and checkpoint_path is not None,
            )
            trial = run_trial(
                pair,
                seeds,
                config=config,
                params={
                    "seed_prob": link_prob,
                    "threshold": threshold,
                },
                measure_pruning_cost=candidate_pruning != "none",
            )
            report = trial.report
            row = {
                "seed_prob": link_prob,
                "threshold": threshold,
                "seeds": len(seeds),
                "correct_pairs": report.good,
                "wrong_pairs": report.bad,
                "precision": round(report.precision, 5),
                "recall": round(report.recall, 4),
                "identifiable": report.identifiable,
                "elapsed_s": round(trial.elapsed, 3),
                "candidate_pairs": sum(
                    p.candidates for p in trial.result.phases
                ),
            }
            if trial.pruning_recall_cost is not None:
                row["pruning_recall_cost"] = round(
                    trial.pruning_recall_cost, 4
                )
            result.rows.append(row)
    return result
