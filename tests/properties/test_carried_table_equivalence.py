"""Carried score table ↔ per-round recount: identical links and phases.

The array sweep carries one dense score table across its (iteration,
bucket) rounds when the packed key space fits the scatter cap, joining
only new links and newly eligible degree bands.  Patching the cap to 0
forces the per-round recount instead, which is the reference: every
config case must give the same ``MatchingResult.links`` *and* the
same ``phases`` (candidates, the recount's ``witnesses_emitted``, links
added) either way.
"""

import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.config import MatcherConfig, TiePolicy
from repro.core.matcher import UserMatching
from repro.core.native import NativeFallbackWarning
from repro.generators.erdos_renyi import gnp_graph
from repro.generators.preferential_attachment import (
    preferential_attachment_graph,
)
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds

#: One case per sweep option, each on top of threshold=2, 2 iterations.
CASES = {
    "default": {},
    "community": {"candidate_pruning": "community"},
    "lowest-id": {"tie_policy": TiePolicy.LOWEST_ID},
    "no-buckets": {"use_degree_buckets": False},
    "max-degree-below-observed": {"max_degree": 6},
    "one-iteration": {"iterations": 1},
    "three-iterations": {"iterations": 3},
    "threshold-1-floor-0": {"threshold": 1, "min_bucket_exponent": 0},
    # The recount floors its join at the threshold: from 3 up, the
    # join's one- and two-link paths write nothing.
    "threshold-3": {"threshold": 3},
    "threshold-4": {"threshold": 4},
}


#: The cases the randomized graphs run.
RANDOM_CASES = [
    "default",
    "community",
    "lowest-id",
    "no-buckets",
    "max-degree-below-observed",
    "three-iterations",
    "threshold-3",
    "threshold-4",
]


def workload(n=220, m=4, s=0.6, link_prob=0.1, seed=0):
    g = preferential_attachment_graph(n, m, seed=seed)
    pair = independent_copies(g, s, seed=seed + 1)
    seeds = sample_seeds(pair, link_prob, seed=seed + 2)
    return pair, seeds


def run(pair, seeds, *, recount: bool, **config):
    """One sweep; *recount* disables the carried table via the cap."""
    params = {"threshold": 2, "iterations": 2, **config}
    cap = 0 if recount else kernels._SCATTER_KEYSPACE_CAP
    with (
        mock.patch.object(kernels, "_SCATTER_KEYSPACE_CAP", cap),
        warnings.catch_warnings(),
    ):
        # Without a toolchain backend="native" is the csr fallback —
        # still a valid (if redundant) row of the wall.
        warnings.simplefilter("ignore", NativeFallbackWarning)
        return UserMatching(MatcherConfig(**params)).run(
            pair.g1, pair.g2, seeds
        )


class TestCarriedTableWall:
    @pytest.mark.parametrize("backend", ["csr", "native"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_links_and_phases_identical(self, case, backend):
        pair, seeds = workload(seed=7)
        config = dict(CASES[case], backend=backend)
        recount = run(pair, seeds, recount=True, **config)
        carried = run(pair, seeds, recount=False, **config)
        assert carried.num_new_links > 0
        assert carried.links == recount.links
        assert carried.phases == recount.phases

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(30, 120),
        p=st.floats(0.03, 0.2),
        s=st.floats(0.4, 0.9),
        link_prob=st.floats(0.05, 0.3),
        seed=st.integers(0, 10_000),
        case=st.sampled_from(RANDOM_CASES),
    )
    def test_random_graphs(self, n, p, s, link_prob, seed, case):
        g = gnp_graph(n, p, seed=seed)
        pair = independent_copies(g, s, seed=seed + 1)
        seeds = sample_seeds(pair, link_prob, seed=seed + 2)
        config = dict(CASES[case], backend="native")
        recount = run(pair, seeds, recount=True, **config)
        carried = run(pair, seeds, recount=False, **config)
        assert carried.links == recount.links
        assert carried.phases == recount.phases


class TestCarriedTableSavesJoinWork:
    @pytest.mark.parametrize("backend", ["csr", "native"])
    def test_join_emission_strictly_lower(self, backend):
        """Summed join output shrinks; the phase records do not move.

        Guards the delta joins against silently degrading back into a
        full recount, which would keep every equivalence green.
        """
        pair, seeds = workload(seed=7)
        counted = kernels.count_witnesses

        def joined(recount: bool) -> tuple[int, int]:
            emitted = []

            def spy(*args, **kwargs):
                scores, work = counted(*args, **kwargs)
                emitted.append(work)
                return scores, work

            with mock.patch.object(kernels, "count_witnesses", spy):
                result = run(pair, seeds, recount=recount, backend=backend)
            assert result.num_new_links > 0
            return sum(emitted), result.total_witnesses

        recount_joined, recount_total = joined(recount=True)
        carried_joined, carried_total = joined(recount=False)
        assert recount_joined == recount_total
        assert carried_total == recount_total
        assert carried_joined < recount_joined
