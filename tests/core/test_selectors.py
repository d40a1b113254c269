"""Unit tests for the selection policies over the flat score table.

Every case is written as a ``scores[v1][v2]`` dict for readability and
handed to the selector as :meth:`ArrayScores.from_dict` of it.
"""

import dataclasses

import pytest

from repro.core.config import TiePolicy
from repro.core.kernels import ArrayScores
from repro.core.native import load_native_library
from repro.core.selectors import (
    SELECTORS,
    get_selector,
    select_gale_shapley,
    select_greedy_top_score,
    select_mutual_best,
)
from repro.errors import MatcherRegistryError
from repro.graphs.graph import Graph
from repro.graphs.pair_index import GraphPairIndex


def from_rows(rows, native=None):
    """*rows* interned over two edgeless graphs holding its nodes."""
    g1, g2 = Graph(), Graph()
    for v1, row in rows.items():
        g1.add_node(v1)
        for v2 in row:
            g2.add_node(v2)
    scores = ArrayScores.from_dict(GraphPairIndex(g1, g2), rows)
    return dataclasses.replace(scores, native=native)


@pytest.fixture(params=["numpy", "native"])
def table(request):
    """Build a table selected by the numpy kernels or the compiled ones."""
    native = None
    if request.param == "native":
        native = load_native_library(warn=False)
        if native is None:
            pytest.skip("no C toolchain in this environment")
    return lambda rows: from_rows(rows, native)


class TestSelectMutualBest:
    def test_simple_mutual_best(self, table):
        scores = {1: {10: 5, 11: 2}, 2: {11: 4}}
        out = select_mutual_best(table(scores), threshold=2)
        assert out == {1: 10, 2: 11}

    def test_threshold_filters(self, table):
        scores = {1: {10: 1}}
        assert select_mutual_best(table(scores), threshold=2) == {}

    def test_left_tie_skipped(self, table):
        scores = {1: {10: 3, 11: 3}}
        assert select_mutual_best(table(scores), threshold=2) == {}

    def test_left_tie_lowest_id(self, table):
        scores = {1: {10: 3, 11: 3}}
        out = select_mutual_best(
            table(scores), threshold=2, tie_policy=TiePolicy.LOWEST_ID
        )
        assert out == {1: 10}

    def test_right_contention_resolved_by_score(self, table):
        # Both 1 and 2 prefer 10, but 1 scores higher: 10 goes to 1.
        # Node 2 gets nothing this round (no fallback to its runner-up —
        # the paper's rule only links a node to its own best pair).
        scores = {1: {10: 5}, 2: {10: 3, 11: 2}}
        out = select_mutual_best(table(scores), threshold=2)
        assert out[1] == 10
        assert 2 not in out

    def test_right_tie_skipped(self, table):
        scores = {1: {10: 3}, 2: {10: 3}}
        assert select_mutual_best(table(scores), threshold=2) == {}

    def test_right_tie_lowest_id(self, table):
        scores = {1: {10: 3}, 2: {10: 3}}
        out = select_mutual_best(
            table(scores), threshold=2, tie_policy=TiePolicy.LOWEST_ID
        )
        assert out == {1: 10}

    def test_output_one_to_one(self, table):
        scores = {
            1: {10: 5, 11: 4},
            2: {10: 4, 11: 5},
            3: {10: 3, 11: 3, 12: 6},
        }
        out = select_mutual_best(table(scores), threshold=1)
        assert len(set(out.values())) == len(out)

    def test_empty_scores(self, table):
        assert select_mutual_best(table({}), threshold=1) == {}

    def test_non_mutual_pair_rejected(self, table):
        # 1's best is 10; but 10's best is 2 -> no link for 1
        scores = {1: {10: 3}, 2: {10: 7, 11: 1}}
        out = select_mutual_best(table(scores), threshold=1)
        assert 1 not in out
        assert out[2] == 10

    def test_higher_threshold_subset(self, table):
        scores = {
            1: {10: 5, 11: 2},
            2: {11: 3},
            3: {12: 2},
        }
        low = select_mutual_best(table(scores), threshold=2)
        high = select_mutual_best(table(scores), threshold=4)
        assert set(high.items()) <= set(low.items())


class TestGreedyTopScore:
    def test_highest_score_wins_contention(self, table):
        scores = {1: {10: 5}, 2: {10: 3, 11: 2}}
        out = select_greedy_top_score(table(scores), threshold=2)
        assert out == {1: 10, 2: 11}

    def test_threshold_filters(self, table):
        scores = {1: {10: 1}}
        assert select_greedy_top_score(table(scores), threshold=2) == {}

    def test_never_reuses_endpoints(self, table):
        scores = {1: {10: 5, 11: 4}, 2: {10: 4, 11: 5}}
        out = select_greedy_top_score(table(scores), threshold=1)
        assert out == {1: 10, 2: 11}
        assert len(set(out.values())) == len(out)

    def test_matches_where_mutual_best_abstains(self, table):
        # 1 and 2 tie on 10: mutual-best (SKIP) refuses both, greedy
        # still links the canonically-first one.
        scores = {1: {10: 3}, 2: {10: 3}}
        out = select_greedy_top_score(table(scores), threshold=2)
        assert out == {1: 10}

    def test_deterministic_under_ties(self, table):
        scores = {2: {11: 3, 10: 3}, 1: {10: 3, 11: 3}}
        a = select_greedy_top_score(table(scores), threshold=1)
        b = select_greedy_top_score(table(dict(reversed(scores.items()))), 1)
        assert a == b == {1: 10, 2: 11}

    def test_empty(self, table):
        assert select_greedy_top_score(table({}), threshold=1) == {}


class TestGaleShapley:
    def test_simple_assignment(self, table):
        scores = {1: {10: 5, 11: 2}, 2: {11: 4}}
        out = select_gale_shapley(table(scores), threshold=2)
        assert out == {1: 10, 2: 11}

    def test_right_side_trades_up(self, table):
        # Both want 10; 1 scores higher, so 2 falls back to 11.
        scores = {1: {10: 5, 11: 1}, 2: {10: 3, 11: 2}}
        out = select_gale_shapley(table(scores), threshold=1)
        assert out == {1: 10, 2: 11}

    def test_no_blocking_pair(self, table):
        scores = {
            1: {10: 5, 11: 4, 12: 1},
            2: {10: 4, 11: 5, 12: 2},
            3: {10: 3, 11: 3, 12: 6},
        }
        out = select_gale_shapley(table(scores), threshold=1)
        assert len(set(out.values())) == len(out)
        # Stability: no (v1, v2) where both strictly prefer each other
        # over their assigned partners.
        matched_right = {v2: v1 for v1, v2 in out.items()}
        for v1, row in scores.items():
            own = row.get(out.get(v1), 0)
            for v2, sc in row.items():
                if sc <= own:
                    continue
                holder = matched_right.get(v2)
                held = scores[holder][v2] if holder else 0
                assert held >= sc, f"blocking pair ({v1}, {v2})"

    def test_threshold_filters(self, table):
        scores = {1: {10: 1}}
        assert select_gale_shapley(table(scores), threshold=2) == {}

    def test_displaced_proposer_continues(self, table):
        # 2 takes 10 from 1; 1 must then win 11.
        scores = {1: {10: 3, 11: 2}, 2: {10: 5}}
        out = select_gale_shapley(table(scores), threshold=1)
        assert out == {2: 10, 1: 11}

    def test_empty(self, table):
        assert select_gale_shapley(table({}), threshold=1) == {}

    def test_deterministic_under_ties(self, table):
        scores = {1: {10: 3}, 2: {10: 3}}
        out = select_gale_shapley(table(scores), threshold=1)
        assert out == {1: 10}


class TestSelectorLookup:
    def test_three_policies_registered(self):
        assert set(SELECTORS) == {
            "mutual-best",
            "greedy",
            "gale-shapley",
        }

    def test_get_selector_resolves(self):
        assert get_selector("greedy") is select_greedy_top_score

    def test_unknown_policy_raises(self):
        with pytest.raises(MatcherRegistryError, match="mutual-best"):
            get_selector("optimal")

    def test_uniform_signature(self, table):
        scores = {1: {10: 5}}
        for name, selector in SELECTORS.items():
            out = selector(table(scores), 2, TiePolicy.SKIP)
            assert out == {1: 10}, name

    @pytest.mark.parametrize("name", sorted(SELECTORS))
    def test_threshold_is_inclusive(self, table, name):
        """A pair scoring exactly the threshold links; one below never."""
        selector = SELECTORS[name]
        assert selector(table({1: {10: 2}}), 2) == {1: 10}
        assert selector(table({1: {10: 2}}), 3) == {}
        # Float scores (a custom scorer's) select through numpy.
        assert selector(from_rows({1: {10: 2.5, 11: 2.4}}), 2.5) == {1: 10}
