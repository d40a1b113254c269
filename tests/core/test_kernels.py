"""Unit tests for the numpy array kernels behind ``backend="csr"``."""

import numpy as np
import pytest
from oracle_helpers import as_table, round_inputs, witness_join_oracle

from repro.core import kernels
from repro.core.config import TiePolicy
from repro.core.kernels import (
    ArrayScores,
    count_witnesses,
    segmented_gather,
    select_greedy_arrays,
    select_mutual_best_arrays,
)
from repro.core.selectors import select_greedy_top_score, select_mutual_best
from repro.errors import KernelInputError, NodeNotFoundError
from repro.graphs.graph import Graph
from repro.graphs.pair_index import GraphPairIndex


def join_handle(join: str):
    """``native=`` argument selecting one of the two witness joins."""
    if join == "sparse":
        return None
    from repro.core.native import load_native_library

    nk = load_native_library(warn=False)
    if nk is None:
        pytest.skip("no C toolchain in this environment")
    return nk


#: The two implementations behind ``count_witnesses``.
JOINS = ["sparse", "native"]


class TestSegmentedGather:
    def test_concatenates_slices(self):
        g = Graph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3)])
        index = GraphPairIndex(g, g.copy())
        csr = index.csr1
        targets = np.array([2, 0], dtype=np.int64)
        values, segments = segmented_gather(csr.indptr, csr.indices, targets)
        assert values.tolist() == (
            csr.neighbors(2).tolist() + csr.neighbors(0).tolist()
        )
        assert segments.tolist() == [0] * csr.degree(2) + [1] * csr.degree(0)

    def test_empty_targets(self):
        g = Graph.from_edges([(0, 1)])
        index = GraphPairIndex(g, g.copy())
        values, segments = segmented_gather(
            index.csr1.indptr,
            index.csr1.indices,
            np.empty(0, dtype=np.int64),
        )
        assert values.size == 0 and segments.size == 0


class TestCountWitnesses:
    @pytest.mark.parametrize("join", JOINS)
    def test_matches_oracle(self, pa_pair, pa_seeds, join):
        native = join_handle(join)
        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        for min_degree in (1, 2, 4):
            args = round_inputs(index, pa_seeds, min_degree)
            expected, emitted = witness_join_oracle(index, *args)
            scores, got_emitted = count_witnesses(
                index, *args, native=native
            )
            assert got_emitted == emitted
            assert as_table(scores) == expected

    def test_no_links(self, pa_pair):
        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        scores, emitted = count_witnesses(
            index,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.ones(index.n1, dtype=bool),
            np.ones(index.n2, dtype=bool),
        )
        assert emitted == 0 and scores.num_pairs == 0
        assert scores.to_dict() == {}

    def test_all_ineligible(self, pa_pair, pa_seeds):
        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        link_l, link_r = index.intern_links(pa_seeds)
        scores, emitted = count_witnesses(
            index,
            link_l,
            link_r,
            np.zeros(index.n1, dtype=bool),
            np.zeros(index.n2, dtype=bool),
        )
        assert emitted == 0 and scores.num_pairs == 0


class TestMaskValidation:
    """Both joins refuse the same malformed eligibility masks."""

    @staticmethod
    def star_round():
        """Link (0, 0) of two 3-leaf stars: 3 x 3 = 9 witnessed pairs."""
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
        index = GraphPairIndex(g, g.copy())
        link = np.zeros(1, dtype=np.int64)
        eligible = np.ones(index.n1, dtype=bool)
        eligible[0] = False
        return index, link, eligible

    @pytest.mark.parametrize("join", JOINS)
    def test_well_formed_round(self, join):
        index, link, eligible = self.star_round()
        scores, emitted = count_witnesses(
            index, link, link, eligible, eligible, native=join_handle(join)
        )
        assert emitted == 9 and scores.num_pairs == 9

    @pytest.mark.parametrize("join", JOINS)
    @pytest.mark.parametrize("side", [1, 2])
    @pytest.mark.parametrize(
        "malform",
        [
            pytest.param(lambda m: m.astype(np.int64), id="int64"),
            pytest.param(lambda m: m.view(np.uint8), id="uint8"),
            pytest.param(lambda m: m[:-1], id="short"),
            pytest.param(lambda m: np.append(m, True), id="long"),
            pytest.param(lambda m: m[None, :], id="2d"),
        ],
    )
    def test_malformed_mask_refused(self, join, side, malform):
        index, link, eligible = self.star_round()
        masks = [eligible, eligible.copy()]
        masks[side - 1] = malform(masks[side - 1])
        with pytest.raises(KernelInputError, match=f"eligible{side}"):
            count_witnesses(
                index, link, link, *masks, native=join_handle(join)
            )

    def test_error_is_a_value_error(self):
        assert issubclass(KernelInputError, ValueError)


def _scores_fixture(pa_pair, pa_seeds):
    index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
    scores, _ = count_witnesses(index, *round_inputs(index, pa_seeds))
    return scores


def mutual_best_by_definition(scores, threshold, tie_policy):
    """Pairs that are the best of their row and of their column.

    Under SKIP a tied best abstains; under LOWEST_ID the smallest id of
    the tied bests wins (dense ids are in canonical order).
    """
    rows: dict = {}
    cols: dict = {}
    for v1, v2, sc in zip(
        scores.left.tolist(), scores.right.tolist(), scores.score.tolist()
    ):
        if sc >= threshold:
            rows.setdefault(v1, []).append((sc, v2))
            cols.setdefault(v2, []).append((sc, v1))

    def best(options):
        top = max(sc for sc, _ in options)
        winners = sorted(other for sc, other in options if sc == top)
        if len(winners) > 1 and tie_policy is TiePolicy.SKIP:
            return None
        return winners[0]

    col_best = {v2: best(options) for v2, options in cols.items()}
    return {
        v1: v2
        for v1, options in rows.items()
        if (v2 := best(options)) is not None and col_best[v2] == v1
    }


class TestArraySelection:
    @pytest.mark.parametrize(
        "tie_policy", [TiePolicy.SKIP, TiePolicy.LOWEST_ID]
    )
    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_mutual_best_matches_definition(
        self, pa_pair, pa_seeds, threshold, tie_policy
    ):
        scores = _scores_fixture(pa_pair, pa_seeds)
        expected = mutual_best_by_definition(scores, threshold, tie_policy)
        left, right, cands = select_mutual_best_arrays(
            scores, threshold, tie_policy
        )
        assert dict(zip(left.tolist(), right.tolist())) == expected
        assert cands == int((scores.score >= threshold).sum())
        assert select_mutual_best(
            scores, threshold, tie_policy
        ) == scores.index.export_links(left, right)

    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_greedy_takes_pairs_in_rank_order(
        self, pa_pair, pa_seeds, threshold
    ):
        scores = _scores_fixture(pa_pair, pa_seeds)
        ranked = sorted(
            (-sc, v1, v2)
            for v1, v2, sc in zip(
                scores.left.tolist(),
                scores.right.tolist(),
                scores.score.tolist(),
            )
            if sc >= threshold
        )
        expected: dict = {}
        for _neg, v1, v2 in ranked:
            if v1 not in expected and v2 not in expected.values():
                expected[v1] = v2
        left, right = select_greedy_arrays(scores, threshold)
        assert dict(zip(left.tolist(), right.tolist())) == expected
        assert select_greedy_top_score(
            scores, threshold
        ) == scores.index.export_links(left, right)

    def test_skip_drops_tied_groups(self):
        g1 = Graph.from_edges([(0, 1), (0, 2), (3, 1), (3, 2)])
        g2 = g1.copy()
        index = GraphPairIndex(g1, g2)
        # candidate 0 ties between right 0 and right 3
        scores = ArrayScores(
            index,
            left=np.array([0, 0], dtype=np.int64),
            right=np.array([0, 3], dtype=np.int64),
            score=np.array([2, 2], dtype=np.int64),
        )
        left, right, _ = select_mutual_best_arrays(scores, 1, TiePolicy.SKIP)
        assert len(left) == 0
        left, right, _ = select_mutual_best_arrays(
            scores, 1, TiePolicy.LOWEST_ID
        )
        assert index.export_links(left, right) == {0: 0}

    def test_empty_scores(self, pa_pair):
        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        empty = ArrayScores(
            index,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        left, right, cands = select_mutual_best_arrays(empty, 1)
        assert len(left) == 0 and cands == 0
        left, right = select_greedy_arrays(empty, 1)
        assert len(left) == 0

    def test_total_score_and_num_pairs(self, pa_pair, pa_seeds):
        scores = _scores_fixture(pa_pair, pa_seeds)
        assert scores.num_pairs == len(scores.score)
        assert scores.total_score() == int(scores.score.sum())


class TestFromDict:
    """A custom scorer's ``scores[v1][v2]`` enters as one table."""

    def test_round_trips_through_to_dict(self, pa_pair, pa_seeds):
        scores = _scores_fixture(pa_pair, pa_seeds)
        again = ArrayScores.from_dict(scores.index, scores.to_dict())
        assert again.to_dict() == scores.to_dict()
        assert as_table(again) == as_table(scores)

    def test_rows_in_ascending_key_order(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        index = GraphPairIndex(g, g.copy())
        scores = ArrayScores.from_dict(index, {2: {1: 3, 0: 1}, 0: {2: 2}})
        packed = scores.left * index.n2 + scores.right
        assert bool(np.all(np.diff(packed) > 0))
        assert scores.to_dict() == {0: {2: 2}, 2: {0: 1, 1: 3}}

    def test_float_scores_stay_floats(self):
        g = Graph.from_edges([(0, 1)])
        index = GraphPairIndex(g, g.copy())
        scores = ArrayScores.from_dict(index, {0: {1: 0.5}})
        assert scores.score.dtype == np.float64
        assert scores.to_dict() == {0: {1: 0.5}}

    def test_empty(self):
        g = Graph.from_edges([(0, 1)])
        index = GraphPairIndex(g, g.copy())
        assert ArrayScores.from_dict(index, {}).num_pairs == 0
        assert ArrayScores.from_dict(index, {0: {}}).num_pairs == 0

    @pytest.mark.parametrize(
        "rows", [{0: {"ghost": 5}}, {"ghost": {0: 5}}]
    )
    def test_node_outside_its_graph_refused(self, rows):
        g = Graph.from_edges([(0, 1), (1, 2)])
        index = GraphPairIndex(g, g.copy())
        with pytest.raises(NodeNotFoundError, match="ghost"):
            ArrayScores.from_dict(index, rows)


def canonical_table(scores: ArrayScores):
    """(packed key, count) arrays sorted by key — order-free equality."""
    packed = scores.left.astype(np.int64) * scores.index.n2 + scores.right
    order = np.argsort(packed)
    return packed[order], scores.score[order]


class TestUint32Compaction:
    def test_pair_index_compacts_indices(self, pa_pair):
        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        assert index.csr1.indices.dtype == np.uint32
        assert index.csr2.indices.dtype == np.uint32
        assert index.csr1.indptr.dtype == np.int64

    def test_compaction_preserves_adjacency(self, pa_pair):
        from repro.graphs.csr import CSRGraph

        wide = CSRGraph(pa_pair.g1)
        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        # Same node order => same adjacency content, narrower dtype.
        order = {n: i for i, n in enumerate(index.csr1.node_ids)}
        for node in list(pa_pair.g1.nodes())[:20]:
            dense = index.csr1.dense_id(node)
            got = sorted(
                index.csr1.node_ids[v]
                for v in index.csr1.neighbors(dense).tolist()
            )
            expected = sorted(pa_pair.g1.neighbors(node))
            assert got == expected
        assert order  # compaction never drops nodes

    def test_compact_is_idempotent(self, pa_pair):
        from repro.graphs.pair_index import compact_csr_indices

        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        assert compact_csr_indices(index.csr1) is False  # already done


class TestPackedKeyWidth:
    def test_no_wraparound_past_uint32_with_compacted_indices(self):
        """Candidate pairs past 2**32 in packed-key space stay distinct.

        The compacted interning gathers uint32 neighbor ids, which the
        join must widen before they index a pair space of 2**42 keys;
        a narrow product would wrap and collide distinct candidate
        pairs.  Faking a large id space over a tiny adjacency exercises
        the wide case directly.
        """
        from types import SimpleNamespace

        n = np.int64(1) << 21  # n1 * n2 == 2**42 >> int32 range
        # One link (0, 0); candidate neighbors near the top of the id
        # space so packed keys exceed 2**32.
        hi = int(n - 1)
        indptr = np.array([0, 2], dtype=np.int64)
        indices = np.array([hi - 1, hi], dtype=np.uint32)
        csr = SimpleNamespace(indptr=indptr, indices=indices)
        index = SimpleNamespace(csr1=csr, csr2=csr, n1=int(n), n2=int(n))
        eligible = np.zeros(int(n), dtype=bool)
        eligible[[hi - 1, hi]] = True
        link = np.zeros(1, dtype=np.int64)
        scores, emitted = count_witnesses(
            index, link, link, eligible, eligible
        )
        assert emitted == 4
        got = sorted(zip(scores.left.tolist(), scores.right.tolist()))
        assert got == [
            (hi - 1, hi - 1), (hi - 1, hi), (hi, hi - 1), (hi, hi),
        ]
        assert scores.score.tolist() == [1, 1, 1, 1]

    @staticmethod
    def _boundary_index(n1: int, n2: int):
        """A fake two-node-per-side index over an (n1, n2) id space.

        One link (0, 0); each side's node 0 is adjacent to the two
        top-of-range ids, so every packed candidate key lands next to
        ``n1 * n2`` — right where a narrow dtype would wrap.  The CSR is
        full-length and symmetric (0 <-> {n-2, n-1} both ways), as a real
        undirected ``GraphPairIndex`` would produce — the row-major
        native join walks every row of ``indptr`` and visits candidates
        through their own neighbor lists.
        """
        from types import SimpleNamespace

        def side(n):
            indptr = np.full(n + 1, 2, dtype=np.int64)
            indptr[0] = 0
            indptr[n - 1] = 3
            indptr[n] = 4
            return SimpleNamespace(
                indptr=indptr,
                indices=np.array([n - 2, n - 1, 0, 0], dtype=np.uint32),
            )

        index = SimpleNamespace(csr1=side(n1), csr2=side(n2), n1=n1, n2=n2)
        elig1 = np.zeros(n1, dtype=bool)
        elig1[[n1 - 2, n1 - 1]] = True
        elig2 = np.zeros(n2, dtype=bool)
        elig2[[n2 - 2, n2 - 1]] = True
        link = np.zeros(1, dtype=np.int64)
        return index, link, elig1, elig2

    #: (n1, n2) with n1*n2 straddling 2**31: one just under the int32
    #: range, one at it, one just past — where a narrow packed key
    #: would first wrap.
    BOUNDARY_SHAPES = [
        (46340, 46340),            # 2_147_395_600 <  2**31 - 1: int32
        (46341, 46341),            # 2_147_488_281 >  2**31 - 1: int64
        (2**16, 2**15),            # == 2**31 exactly: int64 branch
    ]

    @pytest.mark.parametrize("n1,n2", BOUNDARY_SHAPES)
    def test_promotion_boundary_straddling_2_31(self, n1, n2):
        """Exact tables on either side of the int32 key range."""
        index, link, elig1, elig2 = self._boundary_index(n1, n2)
        scores, emitted = count_witnesses(index, link, link, elig1, elig2)
        expected = sorted(
            (l, r)
            for l in (n1 - 2, n1 - 1)
            for r in (n2 - 2, n2 - 1)
        )
        assert emitted == len(expected)
        got = sorted(zip(scores.left.tolist(), scores.right.tolist()))
        assert got == expected
        assert scores.score.tolist() == [1] * len(expected)
        # Packed keys reconstruct exactly — no wraparound collisions.
        packed = scores.left * np.int64(n2) + scores.right
        assert packed.max() == np.int64(expected[-1][0]) * n2 + expected[-1][1]

    @pytest.mark.parametrize("n1,n2", BOUNDARY_SHAPES)
    def test_promotion_boundary_native_matches(self, n1, n2):
        """The C join packs in int64 throughout; same table either side.

        Native rows come out in strictly ascending packed-key order;
        the sparse join's column-major rows are compared order-free.
        """
        from repro.core.native import load_native_library

        nk = load_native_library(warn=False)
        if nk is None:
            pytest.skip("no C toolchain in this environment")
        index, link, elig1, elig2 = self._boundary_index(n1, n2)
        ref, ref_emitted = count_witnesses(index, link, link, elig1, elig2)
        nat, nat_emitted = count_witnesses(
            index, link, link, elig1, elig2, native=nk
        )
        assert nat_emitted == ref_emitted
        packed = nat.left.astype(np.int64) * n2 + nat.right
        assert np.all(np.diff(packed) > 0)
        rk, rc = canonical_table(ref)
        nk_keys, nc = canonical_table(nat)
        assert nk_keys.tolist() == rk.tolist()
        assert nc.tolist() == rc.tolist()
