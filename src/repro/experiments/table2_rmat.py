"""Table 2 — scalability: relative running time on an R-MAT ladder.

Paper setup: RMAT24 (8.9M nodes), RMAT26 (32.8M), RMAT28 (121.2M); copies
with s = 0.5 and seed probability 0.10.  Reported: running time *relative
to the smallest graph* — 1, 1.199, 12.544 — i.e. gentle growth for one 4x
step, steeper for the next.

Reproduction: the same ladder at laptop scale (three R-MAT graphs, scale
step 2 → 4x node count per rung, Graph500-style fixed edge factor).  We
report measured relative wall-clock of the matcher per rung.

:func:`run_million` is the rung that actually reaches the paper's scale
regime on one machine: RMAT20 (2^20 = 1,048,576 addressable nodes) on
the default backend's serial sweep, with the process peak RSS recorded
next to the quality numbers.  CI runs it in a smoke size (``scale ~
14``) nightly; the full rung is what EXPERIMENTS.md and
``BENCH_blocked.json`` report.
"""

from __future__ import annotations

from repro.core.config import DEFAULT_BACKEND, MatcherConfig
from repro.evaluation.harness import run_trial
from repro.experiments.common import ExperimentResult, checkpoint_for
from repro.generators.rmat import rmat_graph
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds
from repro.utils.memory import peak_rss_mb
from repro.utils.rng import spawn_rngs


def run(
    scales: tuple[int, ...] = (11, 13, 15),
    edge_factor: int = 16,
    s: float = 0.5,
    link_prob: float = 0.10,
    threshold: int = 2,
    iterations: int = 1,
    seed=0,
    backend: str = DEFAULT_BACKEND,
    candidate_pruning: str = "none",
    pruning_frontier: int = 0,
    track_memory: bool = False,
    checkpoint_path: str | None = None,
    warm_start: bool = False,
) -> ExperimentResult:
    """Reproduce the Table 2 relative-running-time ladder at reduced scale.

    *checkpoint_path*/*warm_start* persist and resume each rung's
    reconciliation state (per-scale files); see
    :func:`repro.experiments.common.checkpoint_for`.

    With ``candidate_pruning="community"`` every rung reports the pair
    space actually scored (``candidate_pairs``) and the recall given up
    versus an unpruned reference run (``pruning_recall_cost``); pruning
    does not compose with *checkpoint_path*.
    """
    result = ExperimentResult(
        name="table2",
        description=(
            "R-MAT ladder: matcher running time relative to the smallest "
            "graph (paper: 1 / 1.199 / 12.544)"
        ),
        notes=(
            f"scales={scales} edge_factor={edge_factor} "
            f"backend={backend} "
            "(paper: RMAT24/26/28 on MapReduce)"
        ),
    )
    rngs = spawn_rngs(seed, 3 * len(scales))
    base_elapsed: float | None = None
    for idx, scale in enumerate(scales):
        graph = rmat_graph(
            scale, edge_factor * (1 << scale), seed=rngs[3 * idx]
        )
        pair = independent_copies(graph, s1=s, seed=rngs[3 * idx + 1])
        seeds = sample_seeds(pair, link_prob, seed=rngs[3 * idx + 2])
        trial = run_trial(
            pair,
            seeds,
            config=MatcherConfig(
                threshold=threshold,
                iterations=iterations,
                backend=backend,
                candidate_pruning=candidate_pruning,
                pruning_frontier=pruning_frontier,
                checkpoint_path=checkpoint_for(
                    checkpoint_path, f"scale{scale}"
                ),
                warm_start=warm_start and checkpoint_path is not None,
            ),
            params={"scale": scale},
            measure_pruning_cost=candidate_pruning != "none",
            track_memory=track_memory,
        )
        if base_elapsed is None:
            base_elapsed = max(trial.elapsed, 1e-9)
        row = {
            "scale": scale,
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "seeds": len(seeds),
            "correct_pairs": trial.report.good,
            "wrong_pairs": trial.report.bad,
            "elapsed_s": round(trial.elapsed, 3),
            "relative_time": round(trial.elapsed / base_elapsed, 3),
            "candidate_pairs": sum(
                p.candidates for p in trial.result.phases
            ),
        }
        if trial.pruning_recall_cost is not None:
            row["pruning_recall_cost"] = round(
                trial.pruning_recall_cost, 4
            )
        if trial.peak_mb is not None:
            row["peak_mb"] = round(trial.peak_mb, 1)
        result.rows.append(row)
    return result


def run_million(
    scale: int = 20,
    edge_factor: int = 8,
    s: float = 0.5,
    link_prob: float = 0.05,
    threshold: int = 2,
    iterations: int = 1,
    seed=0,
    backend: str = DEFAULT_BACKEND,
    candidate_pruning: str = "none",
    pruning_frontier: int = 0,
    track_memory: bool = False,
) -> ExperimentResult:
    """The million-node rung: one RMAT *scale* graph, peak RSS recorded.

    Defaults reach the paper's scale regime on a single machine: RMAT20
    addresses 2^20 = 1,048,576 nodes (the paper's smallest rung, RMAT24,
    is 16x that on a MapReduce cluster), the default backend's row-major
    join never materializes the witness expansion, and the row
    records the process-lifetime peak RSS next to the quality numbers.
    CI's nightly job runs this driver at a smoke ``scale``; the full
    default takes minutes and a few GiB (graph construction dominates).
    Nightly also re-runs the smoke with
    ``candidate_pruning="community"`` — at this rung the row carries
    ``candidate_pairs`` and ``pruning_recall_cost`` so the scale win
    and its quality price are visible side by side.
    """
    result = ExperimentResult(
        name="table2-million",
        description=(
            "million-node R-MAT rung: serial sweep on the default "
            "backend, peak RSS recorded"
        ),
        notes=(
            f"scale={scale} edge_factor={edge_factor} backend={backend}"
        ),
    )
    rngs = spawn_rngs(seed, 3)
    # include_isolated fixes the vertex set at the full 2^scale ids —
    # the paper's copy model shares one vertex set across realizations,
    # and "million-node" means the id space, not just the R-MAT core.
    graph = rmat_graph(
        scale,
        edge_factor * (1 << scale),
        seed=rngs[0],
        include_isolated=True,
    )
    pair = independent_copies(graph, s1=s, seed=rngs[1])
    seeds = sample_seeds(pair, link_prob, seed=rngs[2])
    trial = run_trial(
        pair,
        seeds,
        config=MatcherConfig(
            threshold=threshold,
            iterations=iterations,
            backend=backend,
            candidate_pruning=candidate_pruning,
            pruning_frontier=pruning_frontier,
        ),
        params={"scale": scale},
        measure_pruning_cost=candidate_pruning != "none",
        track_memory=track_memory,
    )
    row = {
        "scale": scale,
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "seeds": len(seeds),
        "correct_pairs": trial.report.good,
        "wrong_pairs": trial.report.bad,
        "precision": trial.report.precision,
        "elapsed_s": round(trial.elapsed, 3),
        "candidate_pairs": sum(
            p.candidates for p in trial.result.phases
        ),
    }
    if trial.pruning_recall_cost is not None:
        row["pruning_recall_cost"] = round(trial.pruning_recall_cost, 4)
    rss = peak_rss_mb()
    if rss is not None:
        row["peak_rss_mb"] = round(rss, 1)
    if trial.peak_mb is not None:
        row["peak_mb"] = round(trial.peak_mb, 1)
    result.rows.append(row)
    return result
