"""Unit tests for :mod:`repro.incremental.delta`."""

import pytest

from repro.graphs.graph import Graph
from repro.incremental.delta import (
    DeltaError,
    GraphDelta,
    apply_delta_to_graphs,
    delta_between,
    split_edge_stream,
)


def square():
    return Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])


class TestGraphDelta:
    def test_build_normalizes(self):
        delta = GraphDelta.build(
            added_edges1=[(1, 2)],
            added_seeds={1: 10},
        )
        assert delta.added_edges1 == ((1, 2),)
        assert delta.added_seeds == ((1, 10),)
        assert not delta.is_empty
        assert delta.num_edge_changes == 1

    def test_empty(self):
        assert GraphDelta.build().is_empty

    def test_self_loop_rejected(self):
        with pytest.raises(DeltaError):
            GraphDelta.build(added_edges1=[(1, 1)])

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(DeltaError):
            GraphDelta.build(added_edges2=[(1, 2, 3)])

    def test_repr_counts(self):
        delta = GraphDelta.build(
            added_edges1=[(1, 2)], removed_edges2=[(0, 1)]
        )
        assert "+e1=1" in repr(delta)
        assert "-e2=1" in repr(delta)


class TestApplyDelta:
    def test_apply_adds_and_removes(self):
        g1, g2 = square(), square()
        delta = GraphDelta.build(
            added_edges1=[(0, 2)],
            removed_edges2=[(2, 3)],
            added_seeds={0: 0},
        )
        apply_delta_to_graphs(g1, g2, delta)
        assert g1.has_edge(0, 2)
        assert not g2.has_edge(2, 3)

    def test_new_nodes_created(self):
        g1, g2 = square(), square()
        apply_delta_to_graphs(
            g1, g2, GraphDelta.build(added_edges1=[(0, "new")])
        )
        assert g1.has_node("new")

    def test_strict_duplicate_add_raises(self):
        g1, g2 = square(), square()
        with pytest.raises(DeltaError):
            apply_delta_to_graphs(
                g1, g2, GraphDelta.build(added_edges1=[(0, 1)])
            )

    def test_strict_missing_removal_raises(self):
        g1, g2 = square(), square()
        with pytest.raises(DeltaError):
            apply_delta_to_graphs(
                g1, g2, GraphDelta.build(removed_edges1=[(0, 2)])
            )

    def test_seed_must_reference_existing_nodes(self):
        g1, g2 = square(), square()
        with pytest.raises(DeltaError):
            apply_delta_to_graphs(
                g1, g2, GraphDelta.build(added_seeds={99: 0})
            )


class TestSplitEdgeStream:
    def test_partition_covers_stream_in_order(self):
        edges1 = [(0, i) for i in range(1, 8)]
        edges2 = [(1, i) for i in range(2, 6)]
        deltas = split_edge_stream(edges1, edges2, 3)
        assert len(deltas) == 3
        replay1 = [e for d in deltas for e in d.added_edges1]
        replay2 = [e for d in deltas for e in d.added_edges2]
        assert replay1 == edges1
        assert replay2 == edges2

    def test_seeds_in_first_batch_by_default(self):
        deltas = split_edge_stream([(0, 1)], [], 2, added_seeds={5: 6})
        assert deltas[0].added_seeds == ((5, 6),)
        assert deltas[1].added_seeds == ()

    def test_seeds_in_last_batch(self):
        deltas = split_edge_stream(
            [(0, 1)], [], 2, added_seeds={5: 6}, seeds_in_first=False
        )
        assert deltas[1].added_seeds == ((5, 6),)

    def test_invalid_count(self):
        with pytest.raises(DeltaError):
            split_edge_stream([], [], 0)


class TestDeltaBetween:
    def test_diff_roundtrip(self):
        g1_old, g2_old = square(), square()
        g1_new, g2_new = square(), square()
        g1_new.add_edge(0, 2)
        g1_new.add_edge(1, "x")
        g2_new.remove_edge(3, 0)
        delta = delta_between(
            g1_old, g2_old, {0: 0}, g1_new, g2_new, {0: 0, 1: 1}
        )
        apply_delta_to_graphs(g1_old, g2_old, delta)
        assert g1_old == g1_new
        assert g2_old == g2_new
        assert dict(delta.added_seeds) == {1: 1}

    def test_shrunk_seeds_refused(self):
        g = square()
        with pytest.raises(DeltaError):
            delta_between(g, g, {0: 0}, g, g, {})

    def test_remapped_seed_refused(self):
        g = square()
        with pytest.raises(DeltaError):
            delta_between(g, g, {0: 0}, g, g, {0: 1})


class TestAddedNodes:
    def test_isolated_nodes_created(self):
        g1, g2 = square(), square()
        apply_delta_to_graphs(
            g1,
            g2,
            GraphDelta.build(added_nodes1=["lonely"], added_seeds=()),
        )
        assert g1.has_node("lonely")
        assert g1.degree("lonely") == 0

    def test_isolated_node_can_be_seeded(self):
        g1, g2 = square(), square()
        apply_delta_to_graphs(
            g1,
            g2,
            GraphDelta.build(
                added_nodes1=["x"],
                added_nodes2=["y"],
                added_seeds={"x": "y"},
            ),
        )
        assert g1.has_node("x") and g2.has_node("y")

    def test_readding_existing_node_is_noop(self):
        g1, g2 = square(), square()
        apply_delta_to_graphs(g1, g2, GraphDelta.build(added_nodes1=[0]))
        assert g1.degree(0) == 2  # untouched

    def test_delta_between_emits_isolated_new_nodes(self):
        old1, old2 = square(), square()
        new1, new2 = square(), square()
        new1.add_node("iso1")
        new2.add_node("iso2")
        delta = delta_between(old1, old2, {}, new1, new2, {"iso1": "iso2"})
        assert "iso1" in delta.added_nodes1
        assert "iso2" in delta.added_nodes2
        apply_delta_to_graphs(old1, old2, delta)
        assert old1 == new1 and old2 == new2


class TestPayloadRoundTrip:
    def test_to_from_payload_round_trips(self):
        from repro.incremental.delta import (
            delta_from_payload,
            delta_to_payload,
        )

        delta = GraphDelta.build(
            added_edges1=[(1, 2), ("a", "b")],
            removed_edges2=[(3, 4)],
            added_nodes1=[9],
            added_seeds=[(1, 1), ("a", "a")],
        )
        payload = delta_to_payload(delta)
        assert "added_edges2" not in payload  # empty fields omitted
        assert delta_from_payload(payload) == delta

    def test_payload_survives_json(self):
        import json

        from repro.incremental.delta import (
            delta_from_payload,
            delta_to_payload,
        )

        delta = GraphDelta.build(
            added_edges1=[("1", 1)], added_seeds=[("1", "1")]
        )
        wire = json.loads(json.dumps(delta_to_payload(delta)))
        restored = delta_from_payload(wire)
        assert restored == delta  # "1" stays str, 1 stays int

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"bogus": []},
            {"added_edges1": "not-a-list"},
            {"added_edges1": [[1, 2, 3]]},
            {"added_seeds": [["only-one"]]},
        ],
    )
    def test_malformed_payloads_rejected(self, payload):
        from repro.incremental.delta import delta_from_payload

        with pytest.raises(DeltaError):
            delta_from_payload(payload)


class TestValidateDelta:
    def test_valid_delta_passes_without_mutation(self):
        from repro.incremental.delta import validate_delta

        g1, g2 = square(), square()
        delta = GraphDelta.build(
            added_edges1=[(0, 2)],
            removed_edges1=[(0, 1)],
            added_seeds=[(0, 0)],
        )
        validate_delta(g1, g2, delta)
        assert g1.num_edges == 4  # untouched

    def test_mirrors_apply_strictness(self):
        from repro.incremental.delta import validate_delta

        g1, g2 = square(), square()
        with pytest.raises(DeltaError, match="already present"):
            validate_delta(
                g1, g2, GraphDelta.build(added_edges1=[(0, 1)])
            )
        with pytest.raises(DeltaError, match="not present"):
            validate_delta(
                g1, g2, GraphDelta.build(removed_edges2=[(0, 2)])
            )
        with pytest.raises(DeltaError, match="not in g2"):
            validate_delta(
                g1, g2, GraphDelta.build(added_seeds=[(0, 99)])
            )

    def test_within_delta_sequencing(self):
        from repro.incremental.delta import validate_delta

        g1, g2 = square(), square()
        # Remove an edge the same delta adds: fine (additions first).
        validate_delta(
            g1,
            g2,
            GraphDelta.build(
                added_edges1=[(0, 2)], removed_edges1=[(0, 2)]
            ),
        )
        # Seed referencing a node the delta itself creates: fine.
        validate_delta(
            g1,
            g2,
            GraphDelta.build(
                added_nodes1=[7], added_edges2=[(7, 0)], added_seeds=[(7, 7)]
            ),
        )

    def test_validated_delta_never_raises_on_apply(self):
        from repro.incremental.delta import validate_delta

        g1, g2 = square(), square()
        delta = GraphDelta.build(
            added_edges1=[(0, 2), (4, 5)],
            removed_edges1=[(4, 5), (0, 1)],
            added_nodes2=[9],
            added_seeds=[(4, 9)],
        )
        validate_delta(g1, g2, delta)
        apply_delta_to_graphs(g1, g2, delta)  # must not raise

    def test_seed_checks(self):
        from repro.incremental.delta import validate_delta

        g1, g2 = square(), square()
        seeds = {0: 0}
        # Re-confirming an existing seed is fine.
        validate_delta(
            g1, g2, GraphDelta.build(added_seeds=[(0, 0)]), seeds=seeds
        )
        with pytest.raises(DeltaError, match="appears twice"):
            validate_delta(
                g1, g2, GraphDelta.build(added_seeds=[(1, 1), (1, 1)])
            )
        with pytest.raises(DeltaError, match="cannot be remapped"):
            validate_delta(
                g1, g2, GraphDelta.build(added_seeds=[(0, 1)]), seeds=seeds
            )
        with pytest.raises(DeltaError, match="one-to-one"):
            validate_delta(
                g1, g2, GraphDelta.build(added_seeds=[(1, 0)]), seeds=seeds
            )
