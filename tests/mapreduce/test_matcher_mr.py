"""Oracle wall: the shipped sweep against the MapReduce formulation.

The MR matcher is the literal 4-rounds-per-bucket transcription of the
paper over original node ids; the sequential matcher is the array sweep
with its carried witness table, on ``backend="csr"`` and ``"native"``.
They must produce the same ``MatchingResult`` — links, seeds and every
``PhaseRecord`` field — under every configuration.
"""

import pytest
from oracle_helpers import assert_matches_oracle

from repro.core.config import MatcherConfig, TiePolicy
from repro.core.matcher import UserMatching
from repro.generators.erdos_renyi import gnp_graph
from repro.generators.preferential_attachment import (
    preferential_attachment_graph,
)
from repro.mapreduce.engine import LocalMapReduce
from repro.mapreduce.matcher_mr import MapReduceUserMatching
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds

CONFIGS = [
    MatcherConfig(threshold=2, iterations=1),
    MatcherConfig(threshold=2, iterations=2),
    MatcherConfig(threshold=1, iterations=2, min_bucket_exponent=0),
    MatcherConfig(threshold=3, iterations=2),
    MatcherConfig(threshold=2, iterations=2, use_degree_buckets=False),
    MatcherConfig(
        threshold=2,
        iterations=2,
        use_degree_buckets=False,
        min_bucket_exponent=0,
    ),
    MatcherConfig(
        threshold=2, iterations=2, tie_policy=TiePolicy.LOWEST_ID
    ),
    MatcherConfig(threshold=2, iterations=2, max_degree=8),
    MatcherConfig(threshold=2, iterations=2, candidate_pruning="community"),
    MatcherConfig(
        threshold=2,
        iterations=1,
        tie_policy=TiePolicy.LOWEST_ID,
        candidate_pruning="community",
        pruning_frontier=1,
    ),
]
#: Short, stable test ids for CONFIGS (threshold, iterations, then what
#: differs), so adding a config field renames no case.
CONFIG_IDS = [
    "t2-i1",
    "t2-i2",
    "t1-i2-minexp0",
    "t3-i2",
    "t2-i2-nobuckets",
    "t2-i2-nobuckets-minexp0",
    "t2-i2-lowest-id",
    "t2-i2-maxdeg8",
    "t2-i2-pruned",
    "t2-i1-lowest-id-pruned-ring1",
]


@pytest.fixture(scope="module")
def workloads():
    out = []
    pa = preferential_attachment_graph(500, 5, seed=7)
    pair = independent_copies(pa, 0.6, seed=8)
    out.append((pair, sample_seeds(pair, 0.1, seed=9)))
    er = gnp_graph(250, 0.06, seed=10)
    pair2 = independent_copies(er, 0.7, seed=11)
    out.append((pair2, sample_seeds(pair2, 0.12, seed=12)))
    return out


class TestEquivalence:
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_results_identical(self, workloads, config):
        for pair, seeds in workloads:
            assert_matches_oracle(pair.g1, pair.g2, seeds, config)

    def test_phase_structure_matches(self, workloads):
        pair, seeds = workloads[0]
        mr = MapReduceUserMatching(
            MatcherConfig(threshold=2, iterations=1)
        ).run(pair.g1, pair.g2, seeds)
        # The buckets actually compete: some pairs reach the threshold.
        assert sum(p.candidates for p in mr.phases) > 0
        for backend in ("csr", "native"):
            seq = UserMatching(
                MatcherConfig(threshold=2, iterations=1, backend=backend)
            ).run(pair.g1, pair.g2, seeds)
            assert len(seq.phases) == len(mr.phases)
            for a, b in zip(seq.phases, mr.phases):
                assert a == b, backend


class TestRoundAccounting:
    def test_four_rounds_per_bucket(self, workloads):
        """The paper's claim: each bucket pass is 4 MapReduce rounds."""
        pair, seeds = workloads[0]
        engine = LocalMapReduce()
        config = MatcherConfig(threshold=2, iterations=1)
        matcher = MapReduceUserMatching(config, engine=engine)
        result = matcher.run(pair.g1, pair.g2, seeds)
        assert engine.rounds_executed == 4 * len(result.phases)

    def test_round_names_cycle(self, workloads):
        pair, seeds = workloads[0]
        engine = LocalMapReduce()
        matcher = MapReduceUserMatching(
            MatcherConfig(threshold=2, iterations=1),
            engine=engine,
        )
        matcher.run(pair.g1, pair.g2, seeds)
        names = [s.name for s in engine.history[:4]]
        assert names == [
            "expand-left",
            "expand-right",
            "left-best",
            "right-best",
        ]

    def test_o_k_log_d_rounds(self, workloads):
        """Total rounds = 4 * k * (log D - floor + 1) when no early stop."""
        pair, seeds = workloads[0]
        engine = LocalMapReduce()
        config = MatcherConfig(threshold=2, iterations=1)
        matcher = MapReduceUserMatching(config, engine=engine)
        matcher.run(pair.g1, pair.g2, seeds)
        d = max(pair.g1.max_degree(), pair.g2.max_degree())
        buckets = d.bit_length() - 1  # logD ... 1
        assert engine.rounds_executed == 4 * buckets
