"""Out-of-core pair index: npz spill + memory-mapped reopen lifecycle.

``GraphPairIndex.save_npz`` / ``open_mmap`` are the out-of-core
substrate behind ``MatcherConfig.mmap``; these tests pin the roundtrip
(bit-identical arrays, preserved node ids), the explicit lifecycle
(close is idempotent, reads after close raise
:class:`~repro.errors.MmapIndexClosedError`, never a fault on unmapped
pages), and that the sweep over a mapped index stays link-identical to
the in-memory run.
"""

import numpy as np
import pytest

from repro.core.config import MatcherConfig
from repro.core.matcher import UserMatching
from repro.errors import MmapIndexClosedError, MmapIndexError
from repro.generators.preferential_attachment import (
    preferential_attachment_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.pair_index import GraphPairIndex, MmapGraphPairIndex
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds


@pytest.fixture
def spilled(tmp_path):
    """A small PA pair spilled to npz; returns (index, path)."""
    g = preferential_attachment_graph(120, 3, seed=0)
    pair = independent_copies(g, 0.7, seed=1)
    index = GraphPairIndex(pair.g1, pair.g2)
    path = tmp_path / "pair.npz"
    index.save_npz(path)
    return index, path


class TestRoundtrip:
    def test_arrays_bit_identical(self, spilled):
        index, path = spilled
        with GraphPairIndex.open_mmap(path) as mapped:
            assert isinstance(mapped, MmapGraphPairIndex)
            for side in ("1", "2"):
                eager = getattr(index, f"csr{side}")
                disk = getattr(mapped, f"csr{side}")
                assert np.array_equal(eager.indptr, disk.indptr)
                assert np.array_equal(eager.indices, disk.indices)
                assert list(eager.node_ids) == list(disk.node_ids)
            assert np.array_equal(index.deg1, mapped.deg1)
            assert np.array_equal(index.exp2, mapped.exp2)

    def test_mapped_index_is_graph_free(self, spilled):
        _index, path = spilled
        with GraphPairIndex.open_mmap(path) as mapped:
            assert mapped.g1 is None and mapped.g2 is None
            # Membership and link interning still work without graphs.
            node = mapped.csr1.node_ids[0]
            assert mapped.has1(node)
            assert not mapped.has1(object())
            left, right = mapped.intern_links({node: mapped.csr2.node_ids[0]})
            assert left[0] == 0 and right[0] == 0

    def test_string_node_ids_survive(self, tmp_path):
        g = Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        index = GraphPairIndex(g, g)
        path = tmp_path / "str.npz"
        index.save_npz(path)
        with GraphPairIndex.open_mmap(path) as mapped:
            assert list(mapped.csr1.node_ids) == ["a", "b", "c"]
            assert mapped.has2("b")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(MmapIndexError, match="does not exist"):
            GraphPairIndex.open_mmap(tmp_path / "nope.npz")

    def test_non_index_npz_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, something=np.arange(3))
        with pytest.raises(MmapIndexError, match="missing"):
            GraphPairIndex.open_mmap(path)


class TestLifecycle:
    def test_close_is_idempotent(self, spilled):
        _index, path = spilled
        mapped = GraphPairIndex.open_mmap(path)
        assert not mapped.closed
        mapped.close()
        assert mapped.closed
        mapped.close()  # double close: a no-op, not an error
        assert mapped.closed

    def test_read_after_close_fails_loudly(self, spilled):
        _index, path = spilled
        mapped = GraphPairIndex.open_mmap(path)
        mapped.close()
        with pytest.raises(MmapIndexClosedError, match="close"):
            mapped.csr1.indices[0]
        with pytest.raises(MmapIndexClosedError):
            len(mapped.csr2.indptr)
        with pytest.raises(MmapIndexClosedError):
            np.sum(mapped.csr1.indptr)

    def test_node_sized_state_survives_close(self, spilled):
        """Only the 2m adjacency is disk-backed; ids/degrees stay."""
        index, path = spilled
        mapped = GraphPairIndex.open_mmap(path)
        mapped.close()
        assert np.array_equal(mapped.deg1, index.deg1)
        assert mapped.has1(mapped.csr1.node_ids[0])
        assert "closed" in repr(mapped)

    def test_context_manager_closes(self, spilled):
        _index, path = spilled
        with GraphPairIndex.open_mmap(path) as mapped:
            assert not mapped.closed
        assert mapped.closed


class TestMatcherOverMmap:
    def workload(self):
        g = preferential_attachment_graph(300, 4, seed=3)
        pair = independent_copies(g, 0.6, seed=4)
        seeds = sample_seeds(pair, 0.1, seed=5)
        return pair, seeds

    def run(self, pair, seeds, **overrides):
        config = MatcherConfig(
            threshold=2, iterations=2, backend="csr", **overrides
        )
        return UserMatching(config).run(pair.g1, pair.g2, seeds)

    def test_mmap_links_identical(self):
        pair, seeds = self.workload()
        assert (
            self.run(pair, seeds, mmap=True).links
            == self.run(pair, seeds).links
        )

    def test_mmap_with_pruning_matches_unmapped_pruned(self):
        pair, seeds = self.workload()
        reference = self.run(pair, seeds, candidate_pruning="community")
        mapped = self.run(
            pair, seeds, candidate_pruning="community", mmap=True
        )
        assert mapped.links == reference.links
