"""Empirical validation of Theorem 1 (the witness-count gap on ER graphs).

Section 4.1 proves the algorithm correct on G(n, p) by separating two
distributions: a *correct* pair expects ``(n-1)·p·s²·l`` first-phase
similarity witnesses while a *wrong* pair expects ``(n-2)·p²·s²·l`` — a
factor ``p`` fewer.  This driver samples both distributions on a concrete
instance and reports measured means against the formulas, plus the
fraction of wrong pairs that would beat the paper's threshold.
"""

from __future__ import annotations

from repro.core.diagnostics import explain_pair
from repro.experiments.common import ExperimentResult
from repro.generators.erdos_renyi import gnp_graph
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds
from repro.theory.predictions import (
    er_expected_witnesses_correct,
    er_expected_witnesses_wrong,
    er_gap_regime,
)
from repro.utils.rng import ensure_rng, spawn_rngs


def run(
    n: int = 1500,
    p: float = 0.05,
    s: float = 0.6,
    l: float = 0.2,
    sample_pairs: int = 400,
    threshold: int = 3,
    seed=0,
) -> ExperimentResult:
    """Measure first-phase witness counts for correct and wrong pairs."""
    rng_graph, rng_copies, rng_seeds, rng_sample = spawn_rngs(seed, 4)
    graph = gnp_graph(n, p, seed=rng_graph)
    pair = independent_copies(graph, s1=s, seed=rng_copies)
    seeds = sample_seeds(pair, l, seed=rng_seeds)
    rng = ensure_rng(rng_sample)
    nodes = [v for v in range(n) if v not in seeds]
    correct_scores = []
    wrong_scores = []
    for _ in range(sample_pairs):
        v = nodes[rng.randrange(len(nodes))]
        w = nodes[rng.randrange(len(nodes))]
        correct_scores.append(
            explain_pair(pair.g1, pair.g2, seeds, v, v).score
        )
        if w != v:
            wrong_scores.append(
                explain_pair(pair.g1, pair.g2, seeds, v, w).score
            )
    result = ExperimentResult(
        name="theory-validation",
        description=(
            "Theorem 1 empirically: measured witness means vs the "
            "paper's formulas for correct and wrong pairs"
        ),
        notes=(
            f"G(n={n}, p={p}), s={s}, l={l}; regime: "
            f"{er_gap_regime(n, p, s, l)}"
        ),
    )
    mean_correct = sum(correct_scores) / len(correct_scores)
    mean_wrong = sum(wrong_scores) / len(wrong_scores)
    wrong_above = sum(
        1 for x in wrong_scores if x >= threshold
    ) / len(wrong_scores)
    result.rows.append(
        {
            "pair_type": "correct (u_i, v_i)",
            "measured_mean": round(mean_correct, 3),
            "predicted_mean": round(
                er_expected_witnesses_correct(n, p, s, l), 3
            ),
            f"frac >= T={threshold}": round(
                sum(1 for x in correct_scores if x >= threshold)
                / len(correct_scores),
                4,
            ),
        }
    )
    result.rows.append(
        {
            "pair_type": "wrong (u_i, v_j)",
            "measured_mean": round(mean_wrong, 3),
            "predicted_mean": round(
                er_expected_witnesses_wrong(n, p, s, l), 3
            ),
            f"frac >= T={threshold}": round(wrong_above, 4),
        }
    )
    return result
