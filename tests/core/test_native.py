"""Unit tests for the compiled kernels behind ``backend="native"``.

Two families live here: exactness of each C kernel against its
reference (the witness join against the dict oracle across all four
index-dtype variants; packed merge, mutual-best under both tie policies
and greedy scan against their numpy twins), and the
load/fallback machinery (module-level cache, kill switch, broken
compiler, quiet resolution for workers).  Everything degrades — none of
these tests require a working C toolchain except the ones explicitly
marked ``needs_native``.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels, native
from repro.core.config import MatcherConfig, TiePolicy
from repro.core.kernels import (
    ArrayScores,
    ScatterWorkspace,
    count_witnesses,
    count_witnesses_blocked,
    merge_score_tables,
    select_greedy_arrays,
    select_mutual_best_arrays,
)
from repro.core.native import (
    NativeFallbackWarning,
    _reset_native_cache,
    load_native_library,
    native_available,
)
from repro.core.matcher import UserMatching
from repro.core.scoring import count_similarity_witnesses
from repro.errors import KernelInputError
from repro.graphs.graph import Graph
from repro.generators.preferential_attachment import (
    preferential_attachment_graph,
)
from repro.graphs.pair_index import GraphPairIndex
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds

NATIVE = native_available()

needs_native = pytest.mark.skipif(
    not NATIVE, reason="no C toolchain in this environment"
)


@pytest.fixture
def nk():
    handle = load_native_library(warn=False)
    if handle is None:
        pytest.skip("no C toolchain in this environment")
    return handle


@pytest.fixture
def fresh_cache():
    """Reset the module cache around a test that manipulates loading."""
    _reset_native_cache()
    yield
    _reset_native_cache()


def linked_masks(index, links):
    link_l, link_r = index.intern_links(links)
    linked1 = np.zeros(index.n1, dtype=bool)
    linked2 = np.zeros(index.n2, dtype=bool)
    linked1[link_l] = True
    linked2[link_r] = True
    floor1, floor2 = index.eligibility(2)
    return link_l, link_r, ~linked1 & floor1, ~linked2 & floor2


def table(scores: ArrayScores):
    return (scores.left.tolist(), scores.right.tolist(),
            scores.score.tolist())


def canon(scores: ArrayScores):
    """Order-free table equality (the sparse join emits column-major)."""
    packed = scores.left * scores.index.n2 + scores.right
    order = np.argsort(packed)
    return packed[order].tolist(), scores.score[order].tolist()


def parts_of(*tables):
    return [(t.left, t.right, t.score, 0) for t in tables]


class TestWitnessJoin:
    def _both(self, pair, index, links, native_handle):
        """Native join == the dict oracle, rows in canonical order."""
        ref, ref_emitted = count_similarity_witnesses(
            pair.g1, pair.g2, links, 2
        )
        nat, nat_emitted = count_witnesses(
            index, *linked_masks(index, links), native=native_handle
        )
        assert nat_emitted == ref_emitted
        assert nat.to_dict() == {v1: dict(row) for v1, row in ref.items()}
        packed = nat.left.astype(np.int64) * index.n2 + nat.right
        assert bool(np.all(np.diff(packed) > 0))
        assert nat.native is native_handle
        return nat

    def test_matches_dict_on_pa_workload(self, pa_pair, pa_seeds, nk):
        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        self._both(pa_pair, index, pa_seeds, nk)

    @pytest.mark.parametrize("wide1", [False, True])
    @pytest.mark.parametrize("wide2", [False, True])
    def test_all_index_dtype_variants(self, pa_pair, pa_seeds, nk,
                                      wide1, wide2):
        """u32/u32, u32/i64, i64/u32 and i64/i64 joins all agree."""
        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        if wide1:
            index.csr1.indices = index.csr1.indices.astype(np.int64)
        if wide2:
            index.csr2.indices = index.csr2.indices.astype(np.int64)
        self._both(pa_pair, index, pa_seeds, nk)

    def test_empty_links(self, pa_pair, nk):
        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        scores, emitted = count_witnesses(
            index,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.ones(index.n1, dtype=bool),
            np.ones(index.n2, dtype=bool),
            native=nk,
        )
        assert emitted == 0 and scores.left.size == 0

    def test_all_ineligible(self, pa_pair, pa_seeds, nk):
        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        link_l, link_r = index.intern_links(pa_seeds)
        scores, emitted = count_witnesses(
            index,
            link_l,
            link_r,
            np.zeros(index.n1, dtype=bool),
            np.zeros(index.n2, dtype=bool),
            native=nk,
        )
        assert emitted == 0 and scores.left.size == 0

    def test_wide_output_variant_agrees(self, pa_pair, pa_seeds, nk,
                                        monkeypatch):
        """Forcing the _o64 join yields the same table as the _o32.

        The workload's node ids fit int32, so the narrow variant runs
        by default; patching the cutoff to -1 exercises the int64
        output columns that big graphs would select.
        """
        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        args = linked_masks(index, pa_seeds)
        narrow, narrow_emitted = count_witnesses(index, *args, native=nk)
        assert narrow.left.dtype == np.int32
        monkeypatch.setattr(native, "_NATIVE_OUT32_MAX", -1)
        wide, wide_emitted = count_witnesses(index, *args, native=nk)
        assert wide.left.dtype == np.int64
        assert wide_emitted == narrow_emitted
        assert table(wide) == table(narrow)

    def test_raw_join_keys_ascending(self, pa_pair, pa_seeds, nk):
        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        link_l, link_r, elig1, elig2 = linked_masks(index, pa_seeds)
        left, right, counts, emitted = nk.witness_join(
            index.csr1.indptr,
            index.csr1.indices,
            index.csr2.indptr,
            index.csr2.indices,
            link_l,
            link_r,
            elig1,
            elig2,
            index.n1,
            index.n2,
        )
        keys = left * np.int64(index.n2) + right
        assert np.all(np.diff(keys) > 0)
        assert int(counts.sum()) == emitted


class TestJoinBoundary:
    """The ctypes boundary refuses inputs the C join would misread.

    The C join indexes ``head[]``, the masks and the row pointers by
    node id without bounds checks: an out-of-range link id wrote past
    ``head[]``, a short mask was read past its end, and an int64 mask
    was reinterpreted byte-wise (0 pairs instead of 9).  Each is now a
    :class:`KernelInputError` before any C call.
    """

    @staticmethod
    def star_args():
        """Link (0, 0) of two 3-leaf stars: 3 x 3 = 9 witnessed pairs."""
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
        index = GraphPairIndex(g, g.copy())
        eligible = np.ones(index.n1, dtype=bool)
        eligible[0] = False
        return {
            "indptr1": index.csr1.indptr,
            "indices1": index.csr1.indices,
            "indptr2": index.csr2.indptr,
            "indices2": index.csr2.indices,
            "link_l": np.zeros(1, dtype=np.int64),
            "link_r": np.zeros(1, dtype=np.int64),
            "eligible1": eligible,
            "eligible2": eligible.copy(),
            "n1": index.n1,
            "n2": index.n2,
        }

    def test_well_formed_join(self, nk):
        left, _, _, emitted = nk.witness_join(**self.star_args())
        assert emitted == 9 and left.size == 9

    @pytest.mark.parametrize(
        "name,value,match",
        [
            ("link_l", np.array([4]), "side 1"),
            ("link_r", np.array([4]), "side 2"),
            ("link_l", np.array([-1]), "side 1"),
            ("link_r", np.array([0, 1]), "equal length"),
            ("eligible1", np.ones(3, dtype=bool), "eligible1"),
            ("eligible2", np.ones(5, dtype=bool), "eligible2"),
            ("eligible1", np.array([0, 1, 1, 1]), "eligible1"),
            ("eligible2", np.array([0, 1, 1, 1], np.uint8), "eligible2"),
            ("indptr1", np.array([0, 3, 4, 5], dtype=np.int64), "indptr1"),
            ("indptr2", np.zeros(6, dtype=np.int64), "indptr2"),
        ],
    )
    def test_malformed_input_refused(self, nk, name, value, match):
        args = self.star_args()
        args[name] = value
        with pytest.raises(KernelInputError, match=match):
            nk.witness_join(**args)

    @staticmethod
    def star_labels():
        """Communities of the star pair: hub unassigned, leaves 0/0/1."""
        labels = np.array([-1, 0, 0, 1], dtype=np.int32)
        return [labels, labels.copy(), 2]

    def test_well_formed_pruned_join(self, nk):
        left, right, _, emitted = nk.witness_join(
            **self.star_args(), communities=tuple(self.star_labels())
        )
        # Leaves 1 and 2 share community 0; leaf 3 pairs only itself.
        assert emitted == 9
        assert list(zip(left.tolist(), right.tolist())) == [
            (1, 1), (1, 2), (2, 1), (2, 2), (3, 3)
        ]

    @pytest.mark.parametrize(
        "slot,value,match",
        [
            (0, np.array([-1, 0, 0, 1], dtype=np.int64), "comm1 must be"),
            (1, np.array([-1, 0, 0], dtype=np.int32), "comm2 must be"),
            (0, np.array([-2, 0, 0, 1], dtype=np.int32), "comm1 labels"),
            (1, np.array([-1, 0, 0, 2], dtype=np.int32), "comm2 labels"),
            (2, -1, "num_communities"),
        ],
        ids=["dtype", "length", "below-minus-one", "at-count", "count"],
    )
    def test_malformed_communities_refused(self, nk, slot, value, match):
        communities = self.star_labels()
        communities[slot] = value
        with pytest.raises(KernelInputError, match=match):
            nk.witness_join(
                **self.star_args(), communities=tuple(communities)
            )


def paths_args():
    """One link set that drives each fill-pass path of the join.

    Linked nodes 0, 1 and 2 are identity links; candidate 3 is next to
    one of them, 4 to two and 5 to all three, in both graphs — so the
    candidates take the one-link copy, the two-link merge and the
    bitmap scatter respectively, and pair ``(v1, v2)`` scores
    ``min(v1, v2) - 2``.
    """
    g = Graph.from_edges([(0, 3), (0, 4), (1, 4), (0, 5), (1, 5), (2, 5)])
    index = GraphPairIndex(g, g.copy())
    links = np.array([0, 1, 2], dtype=np.int64)
    eligible = np.ones(index.n1, dtype=bool)
    eligible[links] = False
    return index, links, links.copy(), eligible, eligible.copy()


def random_join_args(seed, n1, n2, density, n_links):
    """Random graph pair, partial-matching links and eligibility masks."""
    rng = np.random.default_rng(seed)

    def graph(n):
        a, b = np.triu_indices(n, k=1)
        keep = rng.random(len(a)) < density
        return Graph.from_edges(
            zip(a[keep].tolist(), b[keep].tolist()), nodes=range(n)
        )

    index = GraphPairIndex(graph(n1), graph(n2))
    k = min(n_links, n1, n2)
    link_l = rng.choice(n1, size=k, replace=False).astype(np.int64)
    link_r = rng.choice(n2, size=k, replace=False).astype(np.int64)
    eligible1 = rng.random(n1) < 0.85
    eligible2 = rng.random(n2) < 0.85
    eligible1[link_l] = False
    eligible2[link_r] = False
    return index, link_l, link_r, eligible1, eligible2


def join_handle(backend):
    """The native handle for ``"native"`` (skipping without one), or
    ``None`` for the scipy join."""
    if backend == "csr":
        return None
    handle = load_native_library(warn=False)
    if handle is None:
        pytest.skip("no C toolchain in this environment")
    return handle


def raw_join(nk, index, link_l, link_r, eligible1, eligible2, min_count):
    return nk.witness_join(
        index.csr1.indptr,
        index.csr1.indices,
        index.csr2.indptr,
        index.csr2.indices,
        link_l,
        link_r,
        eligible1,
        eligible2,
        index.n1,
        index.n2,
        min_count,
    )


class TestJoinFloor:
    """``min_count``: the join writes only rows selection can use.

    The reference is the scipy sparse product filtered after the fact;
    the compiled join must give the same rows in the same ascending
    order and the same ``emitted`` — the full expansion, whatever the
    floor — for each index dtype and output width.
    """

    @needs_native
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n1=st.integers(2, 24),
        n2=st.integers(2, 24),
        density=st.floats(0.05, 0.6),
        n_links=st.integers(1, 12),
        wide1=st.booleans(),
        wide2=st.booleans(),
        out32=st.booleans(),
    )
    def test_matches_filtered_scipy(
        self, seed, n1, n2, density, n_links, wide1, wide2, out32
    ):
        nk = load_native_library(warn=False)
        index, *args = random_join_args(seed, n1, n2, density, n_links)
        ref, ref_emitted = count_witnesses(index, *args)
        packed = ref.left * np.int64(index.n2) + ref.right
        order = np.argsort(packed)
        packed, counts = packed[order], ref.score[order]
        if wide1:
            index.csr1.indices = index.csr1.indices.astype(np.int64)
        if wide2:
            index.csr2.indices = index.csr2.indices.astype(np.int64)
        cutoff = native._NATIVE_OUT32_MAX if out32 else -1
        with mock.patch.object(native, "_NATIVE_OUT32_MAX", cutoff):
            for min_count in (1, 2, 3, 4):
                hot = counts >= min_count
                left, right, got, emitted = raw_join(
                    nk, index, *args, min_count
                )
                assert emitted == ref_emitted
                if emitted:
                    assert left.dtype == (np.int32 if out32 else np.int64)
                keys = left * np.int64(index.n2) + right
                assert keys.tolist() == packed[hot].tolist()
                assert got.tolist() == counts[hot].tolist()
                fallback, fb_emitted = count_witnesses(
                    index, *args, min_count=min_count
                )
                assert fb_emitted == ref_emitted
                assert canon(fallback) == (
                    packed[hot].tolist(),
                    counts[hot].tolist(),
                )

    @pytest.mark.parametrize(
        "min_count,expected",
        [
            (
                1,
                {
                    3: {3: 1, 4: 1, 5: 1},
                    4: {3: 1, 4: 2, 5: 2},
                    5: {3: 1, 4: 2, 5: 3},
                },
            ),
            (2, {4: {4: 2, 5: 2}, 5: {4: 2, 5: 3}}),
            (3, {5: {5: 3}}),
            (4, {}),
        ],
    )
    @pytest.mark.parametrize("backend", ["native", "csr"])
    def test_each_fill_path(self, backend, min_count, expected):
        index, *args = paths_args()
        scores, emitted = count_witnesses(
            index, *args, native=join_handle(backend), min_count=min_count
        )
        assert emitted == 3 * 3 + 2 * 2 + 1 * 1
        assert scores.to_dict() == expected

    @pytest.mark.parametrize("backend", ["native", "csr"])
    def test_zero_floor_refused(self, backend):
        index, *args = paths_args()
        handle = join_handle(backend)
        with pytest.raises(KernelInputError, match="min_count"):
            count_witnesses(index, *args, native=handle, min_count=0)
        if handle is not None:
            with pytest.raises(KernelInputError, match="min_count"):
                raw_join(handle, index, *args, 0)


class TestMergePacked:
    def test_matches_numpy_merge(self, pa_pair, pa_seeds, nk):
        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        args = linked_masks(index, pa_seeds)
        whole, _ = count_witnesses(index, *args)
        tables = [
            count_witnesses(
                index, args[0][chunk], args[1][chunk], args[2], args[3]
            )[0]
            for chunk in np.array_split(np.arange(args[0].size), 3)
        ]
        ref, _ = merge_score_tables(index, parts_of(*tables))
        nat, _ = merge_score_tables(index, parts_of(*tables), native=nk)
        assert table(nat) == table(ref)
        assert canon(nat) == canon(whole)
        assert nat.native is nk

    def test_disjoint_and_overlapping_keys(self, nk):
        rng = np.random.default_rng(5)
        parts = []
        for _ in range(4):
            keys = np.unique(rng.integers(0, 400, size=60))
            counts = rng.integers(1, 9, size=keys.size)
            parts.append((keys.astype(np.int64), counts.astype(np.int64)))
        keys, counts = nk.merge_packed(parts)
        all_keys = np.concatenate([p[0] for p in parts])
        all_counts = np.concatenate([p[1] for p in parts])
        ref_keys, inv = np.unique(all_keys, return_inverse=True)
        ref_counts = np.bincount(inv, weights=all_counts).astype(np.int64)
        assert keys.tolist() == ref_keys.tolist()
        assert counts.tolist() == ref_counts.tolist()

    def test_empty_parts(self, nk):
        keys, counts = nk.merge_packed([])
        assert keys.size == 0 and counts.size == 0

    @pytest.mark.parametrize(
        "keys,counts,match",
        [
            ([5, -1], [1, 1], ">= 0"),
            ([5, 3, 7], [1, 1], "equal length"),
            ([5, 3], [1, 1, 1], "equal length"),
            ([[5, 3]], [[1, 1]], "1-d"),
        ],
    )
    def test_malformed_part_refused(self, nk, keys, counts, match):
        """Bad parts are refused before any C call.

        The accumulator marks empty slots with key -1, so a -1 key
        matched the first empty slot it probed: merging ``[5, -1]``
        with ``[-1]`` (counts 1, 1 and 7) returned ``[5]`` alone.
        Keys ``[5, 3, 7]`` with counts ``[1, 1]`` read past the counts
        (key 7 took whatever followed them in memory), and a ``(1, 2)``
        part was read as its first key only.
        """
        good = (np.array([1, 4]), np.array([2, 2]))
        part = (np.array(keys), np.array(counts))
        with pytest.raises(KernelInputError, match=match):
            nk.merge_packed([good, part])


def _random_scores(pa_pair, pa_seeds, nk):
    index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
    args = linked_masks(index, pa_seeds)
    scores, _ = count_witnesses(index, *args, native=nk)
    return scores


class TestNativeSelection:
    @pytest.mark.parametrize(
        "tie_policy", [TiePolicy.SKIP, TiePolicy.LOWEST_ID]
    )
    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_mutual_best_matches_numpy(self, pa_pair, pa_seeds, nk,
                                       tie_policy, threshold):
        scores = _random_scores(pa_pair, pa_seeds, nk)
        plain = ArrayScores(
            scores.index, scores.left, scores.right, scores.score
        )
        ref = select_mutual_best_arrays(plain, threshold, tie_policy)
        nat = select_mutual_best_arrays(scores, threshold, tie_policy)
        assert nat[0].tolist() == ref[0].tolist()
        assert nat[1].tolist() == ref[1].tolist()
        assert nat[2] == ref[2]

    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_greedy_matches_numpy(self, pa_pair, pa_seeds, nk, threshold):
        scores = _random_scores(pa_pair, pa_seeds, nk)
        plain = ArrayScores(
            scores.index, scores.left, scores.right, scores.score
        )
        ref = select_greedy_arrays(plain, threshold)
        nat = select_greedy_arrays(scores, threshold)
        assert nat[0].tolist() == ref[0].tolist()
        assert nat[1].tolist() == ref[1].tolist()

    @pytest.mark.parametrize("skip", [True, False])
    def test_mutual_best_randomized(self, nk, skip):
        """Fuzz the raw C entry points against the numpy selection."""
        from types import SimpleNamespace

        rng = np.random.default_rng(17)
        policy = TiePolicy.SKIP if skip else TiePolicy.LOWEST_ID
        for trial in range(25):
            n1 = int(rng.integers(3, 40))
            n2 = int(rng.integers(3, 40))
            size = int(rng.integers(1, 120))
            packed = np.unique(
                rng.integers(0, n1, size=size) * n2
                + rng.integers(0, n2, size=size)
            )
            lt = (packed // n2).astype(np.int64)
            rt = (packed % n2).astype(np.int64)
            sc = rng.integers(1, 6, size=lt.size).astype(np.int64)
            index = SimpleNamespace(n1=n1, n2=n2)
            ref = select_mutual_best_arrays(
                ArrayScores(index, lt, rt, sc), 1, policy
            )
            out_l, out_r = nk.mutual_best(lt, rt, sc, n1, n2, skip)
            assert out_l.tolist() == ref[0].tolist(), trial
            assert out_r.tolist() == ref[1].tolist(), trial
            narrow = [a.astype(np.int32) for a in (lt, rt, sc)]
            n_l, n_r = nk.mutual_best(*narrow, n1, n2, skip)
            assert n_l.tolist() == ref[0].tolist(), trial
            assert n_r.tolist() == ref[1].tolist(), trial
            greedy_ref = select_greedy_arrays(
                ArrayScores(index, lt, rt, sc), 1
            )
            order = np.lexsort((rt, lt, -sc))
            g_l, g_r = nk.greedy_scan(lt[order], rt[order], n1, n2)
            assert g_l.tolist() == greedy_ref[0].tolist(), trial
            assert g_r.tolist() == greedy_ref[1].tolist(), trial

    def test_floored_table_selected_in_place(self, pa_pair, pa_seeds, nk):
        """A table floored at the threshold reaches C without a copy."""
        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        scores, _ = count_witnesses(
            index, *linked_masks(index, pa_seeds), native=nk, min_count=2
        )
        assert scores.left.dtype == np.int32 and scores.num_pairs
        with mock.patch.object(nk, "mutual_best", wraps=nk.mutual_best) as spy:
            out = select_mutual_best_arrays(scores, 2)
        left, right, score = spy.call_args.args[:3]
        assert left is scores.left and right is scores.right
        assert score is scores.score
        plain = ArrayScores(
            index,
            scores.left.astype(np.int64),
            scores.right.astype(np.int64),
            scores.score.astype(np.int64),
        )
        ref = select_mutual_best_arrays(plain, 2)
        assert out[0].tolist() == ref[0].tolist()
        assert out[1].tolist() == ref[1].tolist()
        assert out[2] == ref[2] == scores.num_pairs

    def test_carried_rounds_select_int32_columns(self, nk):
        """Every carried-table round reaches C with three int32 columns,
        so native selection never widens a copy of them."""
        graph = preferential_attachment_graph(1500, 5, seed=1)
        pair = independent_copies(graph, 0.6, seed=2)
        seeds = sample_seeds(pair, 0.1, seed=3)
        keyspace = pair.g1.num_nodes * pair.g2.num_nodes
        assert keyspace <= kernels._SCATTER_KEYSPACE_CAP  # carried path
        config = MatcherConfig(threshold=2, iterations=2, backend="native")
        with mock.patch.object(nk, "mutual_best", wraps=nk.mutual_best) as spy:
            UserMatching(config).run(pair.g1, pair.g2, seeds)
        assert spy.call_count > 1
        for call in spy.call_args_list:
            dtypes = [column.dtype for column in call.args[:3]]
            assert dtypes == [np.int32] * 3


class TestSelectionBoundary:
    """The selection kernels refuse inputs the C passes would misread.

    ``repro_mutual_best`` and ``repro_greedy_scan`` index per-node
    arrays by pair id with no bounds checks: ``left=[0, 4]`` with
    ``n1=4`` wrote past ``best_s1`` and dropped the valid link
    ``(0, 1)``, ``greedy_scan`` returned the impossible link ``(5, 1)``,
    and unequal columns were read past the shorter one.  Each is now a
    :class:`KernelInputError` before any C call.
    """

    @pytest.mark.parametrize(
        "left,right,score,match",
        [
            ([0, 4], [1, 1], [3, 5], "side 1"),
            ([0, -1], [1, 1], [3, 5], "side 1"),
            ([0, 1], [1, 4], [3, 5], "side 2"),
            ([0, 1], [1], [3, 5], "equal length"),
            ([0, 1], [1, 2], [3], "score must match"),
            ([0, 1], [1, 2], [3, 5, 7], "score must match"),
            ([0, 1], [1, 2], [3, 0], "scores must be >= 1"),
            ([[0, 1]], [[1, 2]], [[3, 5]], "1-d"),
        ],
    )
    def test_mutual_best_refuses(self, nk, left, right, score, match):
        for dtype in (np.int64, np.int32):
            with pytest.raises(KernelInputError, match=match):
                nk.mutual_best(
                    np.array(left, dtype=dtype),
                    np.array(right, dtype=dtype),
                    np.array(score, dtype=dtype),
                    4,
                    4,
                    False,
                )

    @pytest.mark.parametrize(
        "left,right,match",
        [
            ([5, 0], [1, 1], "side 1"),
            ([0, 1], [1, -2], "side 2"),
            ([0, 1, 2], [1, 2], "equal length"),
        ],
    )
    def test_greedy_scan_refuses(self, nk, left, right, match):
        with pytest.raises(KernelInputError, match=match):
            nk.greedy_scan(np.array(left), np.array(right), 4, 4)

    def test_in_range_inputs_still_select(self, nk):
        out_l, out_r = nk.mutual_best(
            np.array([0, 3]), np.array([1, 1]), np.array([3, 5]), 4, 4, False
        )
        assert (out_l.tolist(), out_r.tolist()) == ([3], [1])
        out_l, out_r = nk.greedy_scan(np.array([3, 0]), np.array([1, 1]), 4, 4)
        assert (out_l.tolist(), out_r.tolist()) == ([3], [1])

    def test_empty_columns_select_nothing(self, nk):
        empty = np.empty(0, dtype=np.int64)
        assert nk.mutual_best(empty, empty, empty, 4, 4, True)[0].size == 0
        assert nk.greedy_scan(empty, empty, 4, 4)[0].size == 0


class TestLoadAndFallback:
    def test_available_means_loadable(self):
        if NATIVE:
            assert load_native_library(warn=False) is not None

    @needs_native
    def test_cache_returns_same_handle(self, fresh_cache):
        first = load_native_library(warn=False)
        second = load_native_library(warn=False)
        assert first is second

    def test_kill_switch_warns_once(self, fresh_cache, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        with pytest.warns(NativeFallbackWarning, match="DISABLE"):
            assert load_native_library() is None
        # Cached failure: later quiet resolutions don't warn again.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_native_library(warn=False) is None

    def test_kill_switch_quiet_for_workers(self, fresh_cache, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_native_library(warn=False) is None

    def test_broken_compiler_falls_back(self, fresh_cache, monkeypatch,
                                        tmp_path):
        monkeypatch.setenv("REPRO_NATIVE_CC", str(tmp_path / "missing-cc"))
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        with pytest.warns(NativeFallbackWarning):
            assert load_native_library() is None
        assert not native_available()

    @needs_native
    def test_persistent_build_dir_reused(self, fresh_cache, monkeypatch,
                                         tmp_path):
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        handle = load_native_library(warn=False)
        assert handle is not None
        assert handle.lib_path.parent == tmp_path
        _reset_native_cache()
        # Second load with a broken compiler still succeeds: the cached
        # shared object short-circuits the build entirely.
        monkeypatch.setenv("REPRO_NATIVE_CC", str(tmp_path / "missing-cc"))
        again = load_native_library(warn=False)
        assert again is not None and again.lib_path == handle.lib_path

    @pytest.mark.parametrize("plant", ["world-writable", "foreign-owned"])
    def test_unsafe_default_build_dir_falls_back(self, fresh_cache,
                                                 monkeypatch, tmp_path,
                                                 plant):
        """A planted per-user cache dir is refused, never loaded from."""
        import os
        import tempfile

        monkeypatch.delenv("REPRO_NATIVE_DIR", raising=False)
        monkeypatch.delenv("REPRO_NATIVE_DISABLE", raising=False)
        monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path))
        uid = os.getuid()
        if plant == "foreign-owned":
            # The directory is ours, but the process claims another uid.
            uid += 1
            monkeypatch.setattr(native.os, "getuid", lambda: uid)
        planted = tmp_path / f"repro-native-{uid}"
        planted.mkdir()
        planted.chmod(0o777 if plant == "world-writable" else 0o700)
        lib = planted / f"repro_native_{native._source_digest()}.so"
        lib.write_bytes(b"not a library")
        with pytest.warns(NativeFallbackWarning, match="refusing"):
            assert load_native_library() is None

    @needs_native
    def test_default_build_dir_is_private(self, fresh_cache, monkeypatch,
                                          tmp_path):
        import tempfile

        monkeypatch.delenv("REPRO_NATIVE_DIR", raising=False)
        monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path))
        handle = load_native_library(warn=False)
        assert handle is not None
        mode = handle.lib_path.parent.stat().st_mode & 0o777
        assert mode & 0o022 == 0


class TestScatterWorkspace:
    def test_for_index_respects_cap(self, pa_pair):
        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        ws = ScatterWorkspace.for_index(index)
        assert ws is not None and ws.keyspace == index.n1 * index.n2
        assert ScatterWorkspace.for_index(index, cap=8) is None

    def test_merge_matches_unique_path(self, pa_pair, pa_seeds):
        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        args = linked_masks(index, pa_seeds)
        tables = [
            count_witnesses(
                index, args[0][chunk], args[1][chunk], args[2], args[3]
            )[0]
            for chunk in np.array_split(np.arange(args[0].size), 3)
        ]
        ref, _ = merge_score_tables(index, parts_of(*tables))
        ws = ScatterWorkspace.for_index(index)
        got, _ = merge_score_tables(index, parts_of(*tables), workspace=ws)
        assert table(got) == table(ref)

    def test_buffer_reused_and_rezeroed(self, pa_pair, pa_seeds):
        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        args = linked_masks(index, pa_seeds)
        part, _ = count_witnesses(index, *args)
        ws = ScatterWorkspace.for_index(index)
        first, _ = merge_score_tables(index, parts_of(part), workspace=ws)
        buf = ws._buf
        second, _ = merge_score_tables(index, parts_of(part), workspace=ws)
        assert ws._buf is buf
        assert table(first) == table(second)
        assert not ws._buf.any()


class TestBlockedNative:
    def test_blocked_fold_native(self, pa_pair, pa_seeds, nk):
        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        args = linked_masks(index, pa_seeds)
        ref, ref_emitted = count_witnesses_blocked(
            index, *args, memory_budget_mb=1
        )
        nat, nat_emitted = count_witnesses_blocked(
            index, *args, memory_budget_mb=1, native=nk
        )
        assert nat_emitted == ref_emitted
        assert canon(nat) == canon(ref)
        assert nat.native is nk

    def test_blocked_fold_workspace(self, pa_pair, pa_seeds):
        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        args = linked_masks(index, pa_seeds)
        ref, _ = count_witnesses_blocked(index, *args, memory_budget_mb=1)
        ws = ScatterWorkspace.for_index(index)
        got, _ = count_witnesses_blocked(
            index, *args, memory_budget_mb=1, workspace=ws
        )
        assert canon(got) == canon(ref)
