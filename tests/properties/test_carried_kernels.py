"""Property wall: the compiled carried-table kernels equal their numpy bodies.

The array sweep's :class:`~repro.core.kernels.CarriedWitnessTable` keeps
one dense ``int32[n1 * n2]`` score table across rounds.  With a native
handle it folds each join into the table with ``carried_fold`` and
extracts each round's rows with ``carried_extract``; without one it runs
the numpy bodies, which are the oracle here:

- extraction: the same ``(left, right, score)`` rows, in the same
  ascending packed-key order, all three int32, for random tables, masks
  (all-false and all-true included) and thresholds 1-4;
- fold: the same table as ``buf[keys] += score``, for int32 and int64
  join columns;
- a whole sweep, round by round: a native-handle table and a numpy one
  give identical round tables, ``witnesses_emitted`` and buffers on
  preferential-attachment and affiliation pairs, pruned or not;
- the ctypes boundary refuses every input the C kernels would index
  past, with :class:`~repro.errors.KernelInputError`.

The sanitizer run (``tests/core/test_native_sanitizer.py``) replays this
file against an address/undefined-behaviour-sanitized build.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.config import MatcherConfig
from repro.core.matcher import UserMatching
from repro.core.native import load_native_library
from repro.errors import KernelInputError
from repro.generators.affiliation import affiliation_graph
from repro.generators.preferential_attachment import (
    preferential_attachment_graph,
)
from repro.graphs.communities import assign_communities
from repro.graphs.pair_index import GraphPairIndex
from repro.sampling.community import correlated_community_copies
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds


@pytest.fixture(scope="module")
def nk():
    handle = load_native_library(warn=False)
    if handle is None:
        pytest.skip("no C toolchain in this environment")
    return handle


def mask(rng, n, layout):
    if layout == "none":
        return np.zeros(n, dtype=bool)
    if layout == "all":
        return np.ones(n, dtype=bool)
    return rng.random(n) < 0.6


def table(rng, n1, n2, density, top):
    """A dense int32 table with about *density* of its entries in
    ``[1, top]`` and the rest 0."""
    buf = rng.integers(1, top + 1, size=n1 * n2).astype(np.int32)
    buf[rng.random(n1 * n2) >= density] = 0
    return buf


def assert_same_rows(got, want):
    for have, expected in zip(got, want):
        assert have.dtype == np.int32
        assert expected.dtype == np.int32
        assert have.tolist() == expected.tolist()


class TestExtraction:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n1=st.integers(1, 70),
        n2=st.integers(1, 70),
        density=st.floats(0.0, 1.0),
        top=st.integers(1, 6),
        layout1=st.sampled_from(["random", "none", "all"]),
        layout2=st.sampled_from(["random", "none", "all"]),
        threshold=st.integers(1, 4),
    )
    def test_native_equals_numpy(
        self, seed, n1, n2, density, top, layout1, layout2, threshold
    ):
        nk = load_native_library(warn=False)
        if nk is None:
            pytest.skip("no C toolchain in this environment")
        rng = np.random.default_rng(seed)
        buf = table(rng, n1, n2, density, top)
        e1, e2 = mask(rng, n1, layout1), mask(rng, n2, layout2)
        args = (buf, n1, n2, e1, e2, threshold)
        want = kernels.extract_carried(*args)
        got = kernels.extract_carried(*args, native=nk)
        assert_same_rows(got, want)
        keys = got[0] * np.int64(n2) + got[1]
        assert np.all(np.diff(keys) > 0)
        assert np.all(got[2] >= threshold)

    @pytest.mark.parametrize("threshold", [1, 2, 3, 4])
    def test_full_table_every_entry_hot(self, nk, threshold):
        """Every entry qualifies: the fill pass writes right up to its
        capacity, ending on the last row's last column."""
        n1, n2 = 9, 130
        buf = np.full(n1 * n2, 4, dtype=np.int32)
        e1, e2 = np.ones(n1, dtype=bool), np.ones(n2, dtype=bool)
        got = kernels.extract_carried(
            buf, n1, n2, e1, e2, threshold, native=nk
        )
        assert len(got[0]) == n1 * n2
        assert got[0][-1] == n1 - 1 and got[1][-1] == n2 - 1
        assert_same_rows(
            got, kernels.extract_carried(buf, n1, n2, e1, e2, threshold)
        )

    def test_only_the_last_cell_is_hot(self, nk):
        n1, n2 = 5, 7
        buf = np.zeros(n1 * n2, dtype=np.int32)
        buf[-1] = 2
        e1, e2 = np.ones(n1, dtype=bool), np.ones(n2, dtype=bool)
        got = kernels.extract_carried(buf, n1, n2, e1, e2, 2, native=nk)
        assert [a.tolist() for a in got] == [[4], [6], [2]]

    def test_threshold_above_every_score(self, nk):
        buf = np.full(12, 3, dtype=np.int32)
        got = nk.carried_extract(buf, 3, 4, np.arange(3), np.arange(4), 2**40)
        assert all(len(a) == 0 and a.dtype == np.int32 for a in got)


class TestFold:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n1=st.integers(1, 60),
        n2=st.integers(1, 60),
        fill=st.floats(0.0, 1.0),
        wide=st.booleans(),
    )
    def test_native_equals_fancy_add(self, seed, n1, n2, fill, wide):
        nk = load_native_library(warn=False)
        if nk is None:
            pytest.skip("no C toolchain in this environment")
        rng = np.random.default_rng(seed)
        buf = table(rng, n1, n2, 0.3, 5)
        size = int(fill * n1 * n2)
        keys = np.sort(rng.choice(n1 * n2, size=size, replace=False))
        dtype = np.int64 if wide else np.int32
        left, right = (a.astype(dtype) for a in np.divmod(keys, n2))
        score = rng.integers(1, 50, size=size).astype(dtype)
        want = buf.copy()
        want[keys] += score.astype(np.int32)
        nk.carried_fold(buf, n1, n2, left, right, score)
        assert buf.tolist() == want.tolist()

    def test_mixed_dtypes_are_widened(self, nk):
        buf = np.zeros(6, dtype=np.int32)
        nk.carried_fold(
            buf,
            2,
            3,
            np.array([0, 1], dtype=np.int32),
            np.array([2, 0], dtype=np.int64),
            np.array([5, 7], dtype=np.int32),
        )
        assert buf.tolist() == [0, 0, 5, 7, 0, 0]


def pa_pair(pruned):
    g = preferential_attachment_graph(160, 4, seed=3)
    pair = independent_copies(g, 0.7, seed=4)
    return pair, sample_seeds(pair, 0.1, seed=5), pruned


def affiliation_pair(pruned):
    network = affiliation_graph(300, 60, seed=6)
    pair = correlated_community_copies(network, keep_prob=0.8, seed=7)
    return pair, sample_seeds(pair, 0.1, seed=8), pruned


SWEEPS = {
    "pa": lambda: pa_pair(False),
    "pa-pruned": lambda: pa_pair(True),
    "affiliation": lambda: affiliation_pair(False),
    "affiliation-pruned": lambda: affiliation_pair(True),
}


class TestSweep:
    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_native_table_equals_numpy_table(self, nk, sweep, threshold):
        """Drive two tables through the matcher's round loop in step."""
        pair, seeds, pruned = SWEEPS[sweep]()
        index = GraphPairIndex(pair.g1, pair.g2)
        link_l, link_r = index.intern_links(seeds)
        assignment = (
            assign_communities(index, link_l, link_r) if pruned else None
        )

        def count(ll, lr, e1, e2, *, min_count=1):
            return kernels.count_witnesses(
                index,
                ll,
                lr,
                e1,
                e2,
                native=nk,
                min_count=min_count,
                communities=assignment,
            )

        config = MatcherConfig(threshold=threshold, iterations=2)
        exponents = UserMatching(config).bucket_exponents_index(index)
        native_table = kernels.CarriedWitnessTable(
            index, exponents, count, native=nk
        )
        numpy_table = kernels.CarriedWitnessTable(index, exponents, count)
        linked1 = np.zeros(index.n1, dtype=bool)
        linked2 = np.zeros(index.n2, dtype=bool)
        linked1[link_l] = True
        linked2[link_r] = True
        rounds = linked = 0
        for _iteration in range(2):
            for j in exponents:
                args = (link_l, link_r, linked1, linked2, j, threshold)
                got, got_emitted = native_table.round(*args)
                want, want_emitted = numpy_table.round(*args)
                assert got_emitted == want_emitted
                assert_same_rows(
                    (got.left, got.right, got.score),
                    (want.left, want.right, want.score),
                )
                assert np.array_equal(native_table._buf, numpy_table._buf)
                new_l, new_r, _ = kernels.select_mutual_best_arrays(
                    want, threshold
                )
                linked1[new_l] = True
                linked2[new_r] = True
                link_l = np.concatenate([link_l, new_l])
                link_r = np.concatenate([link_r, new_r])
                rounds += 1
                linked += len(new_l)
        assert rounds == 2 * len(exponents)
        assert linked > 0


class TestBoundary:
    N1, N2 = 4, 5

    def fold(self, nk, **override):
        args = dict(
            buf=np.zeros(self.N1 * self.N2, dtype=np.int32),
            n1=self.N1,
            n2=self.N2,
            left=np.array([0, 3], dtype=np.int32),
            right=np.array([1, 4], dtype=np.int32),
            counts=np.array([1, 2], dtype=np.int32),
        )
        args.update(override)
        return nk.carried_fold(**args)

    def extract(self, nk, **override):
        args = dict(
            buf=np.ones(self.N1 * self.N2, dtype=np.int32),
            n1=self.N1,
            n2=self.N2,
            rows=np.arange(self.N1),
            cols=np.arange(self.N2),
            threshold=1,
        )
        args.update(override)
        return nk.carried_extract(**args)

    def test_well_formed_calls_run(self, nk):
        self.fold(nk)
        got = self.extract(nk)
        assert len(got[0]) == self.N1 * self.N2

    BAD_BUFFERS = {
        "int64": lambda n: np.zeros(n, dtype=np.int64),
        "short": lambda n: np.zeros(n - 1, dtype=np.int32),
        "long": lambda n: np.zeros(n + 1, dtype=np.int32),
        "2-d": lambda n: np.zeros((1, n), dtype=np.int32),
        "strided": lambda n: np.zeros(2 * n, dtype=np.int32)[::2],
        "list": lambda n: [0] * n,
    }

    @pytest.mark.parametrize("bad", sorted(BAD_BUFFERS))
    @pytest.mark.parametrize("kernel", ["fold", "extract"])
    def test_malformed_buffer_refused(self, nk, bad, kernel):
        buf = self.BAD_BUFFERS[bad](self.N1 * self.N2)
        with pytest.raises(KernelInputError, match="carried table"):
            getattr(self, kernel)(nk, buf=buf)

    def test_read_only_buffer_refused_by_fold(self, nk):
        buf = np.zeros(self.N1 * self.N2, dtype=np.int32)
        buf.flags.writeable = False
        with pytest.raises(KernelInputError, match="writeable"):
            self.fold(nk, buf=buf)

    @pytest.mark.parametrize(
        "name, ids",
        [
            ("rows", [-1, 0, 1]),
            ("rows", [0, 1, 4]),
            ("cols", [-2, 3]),
            ("cols", [4, 5]),
        ],
    )
    def test_ids_out_of_range_refused(self, nk, name, ids):
        with pytest.raises(KernelInputError, match=r"must lie in \[0, "):
            self.extract(nk, **{name: np.array(ids)})

    @pytest.mark.parametrize(
        "name, ids",
        [("rows", [0, 2, 1]), ("rows", [1, 1]), ("cols", [3, 0])],
    )
    def test_ids_not_ascending_refused(self, nk, name, ids):
        with pytest.raises(KernelInputError, match="strictly ascending"):
            self.extract(nk, **{name: np.array(ids)})

    def test_ids_not_1d_refused(self, nk):
        with pytest.raises(KernelInputError, match="1-d"):
            self.extract(nk, rows=np.zeros((2, 1), dtype=np.int64))

    @pytest.mark.parametrize("threshold", [0, -3])
    def test_threshold_below_one_refused(self, nk, threshold):
        with pytest.raises(KernelInputError, match="threshold"):
            self.extract(nk, threshold=threshold)

    @pytest.mark.parametrize("column", ["left", "right", "counts"])
    def test_fold_columns_of_unequal_length_refused(self, nk, column):
        with pytest.raises(KernelInputError, match="equal length|shape"):
            self.fold(nk, **{column: np.array([1], dtype=np.int32)})

    @pytest.mark.parametrize(
        "column, ids",
        [("left", [0, 4]), ("left", [-1, 0]), ("right", [0, 5])],
    )
    def test_fold_ids_out_of_range_refused(self, nk, column, ids):
        with pytest.raises(KernelInputError, match="must lie in"):
            self.fold(nk, **{column: np.array(ids, dtype=np.int32)})

    def test_refused_fold_leaves_the_table_alone(self, nk):
        buf = np.zeros(self.N1 * self.N2, dtype=np.int32)
        with pytest.raises(KernelInputError):
            self.fold(nk, buf=buf, right=np.array([0, 5], dtype=np.int32))
        assert not buf.any()
