"""The :class:`GraphDelta` type — one batch of live-network change.

The paper frames reconciliation as a one-shot batch over two static
snapshots, but its target networks are live: edges and confirmed links
arrive continuously.  A :class:`GraphDelta` is the unit of that arrival —
one batch of edge additions/removals per side plus newly confirmed seed
links — and is what :class:`~repro.incremental.engine.IncrementalReconciler`
consumes.  Deltas are *strict*: an added edge must be absent and a
removed edge present when the delta is applied, which keeps the
incremental engine's old-state bookkeeping exact.

Helpers here turn an edge stream into delta batches
(:func:`split_edge_stream`) and apply a delta to a pair of
:class:`~repro.graphs.graph.Graph` objects (:func:`apply_delta_to_graphs`)
— the latter is the single mutation path shared by the warm engine and
the cold-replay fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

from repro.errors import ReproError
from repro.graphs.graph import Graph

Node = Hashable
Edge = tuple[Node, Node]


class DeltaError(ReproError):
    """A delta is malformed or inconsistent with the graphs it targets."""


def _as_edge_tuple(edges: Iterable[Edge], label: str) -> tuple[Edge, ...]:
    out = []
    for edge in edges:
        pair = tuple(edge)
        if len(pair) != 2:
            raise DeltaError(f"{label}: expected (u, v) pairs, got {edge!r}")
        if pair[0] == pair[1]:
            raise DeltaError(
                f"{label}: self-loop {pair!r} is not a valid edge"
            )
        out.append(pair)
    return tuple(out)


@dataclass(frozen=True)
class GraphDelta:
    """One batch of change to a reconciliation pair.

    Parameters
    ----------
    added_edges1, added_edges2 : tuple of (node, node)
        Edges to add to ``g1`` / ``g2``.  Endpoints absent from the
        graph are created (new users joining the network).  An edge
        that already exists is a :class:`DeltaError` at apply time.
    removed_edges1, removed_edges2 : tuple of (node, node)
        Edges to remove; a missing edge is a :class:`DeltaError` at
        apply time.  Nodes are never removed (an isolated node simply
        stops being identifiable).
    added_nodes1, added_nodes2 : tuple of node
        Nodes to create even without edges (a user who joined but has
        no friendships yet can still be seed-linked).  Nodes that an
        added edge already creates need not be listed; re-adding an
        existing node is a no-op.
    added_seeds : tuple of (g1-node, g2-node)
        Newly confirmed identification links, appended to the seed set
        of every subsequent reconciliation.  Endpoints must exist once
        the delta's edges and nodes have been applied.

    Notes
    -----
    Instances are frozen and order-preserving; :meth:`build` accepts
    any iterables (and a mapping for *added_seeds*) and normalizes.
    """

    added_edges1: tuple[Edge, ...] = ()
    added_edges2: tuple[Edge, ...] = ()
    removed_edges1: tuple[Edge, ...] = ()
    removed_edges2: tuple[Edge, ...] = ()
    added_nodes1: tuple[Node, ...] = ()
    added_nodes2: tuple[Node, ...] = ()
    added_seeds: tuple[tuple[Node, Node], ...] = field(default=())

    @classmethod
    def build(
        cls,
        *,
        added_edges1: Iterable[Edge] = (),
        added_edges2: Iterable[Edge] = (),
        removed_edges1: Iterable[Edge] = (),
        removed_edges2: Iterable[Edge] = (),
        added_nodes1: Iterable[Node] = (),
        added_nodes2: Iterable[Node] = (),
        added_seeds: "Mapping[Node, Node] | Iterable[tuple[Node, Node]]" = (),
    ) -> "GraphDelta":
        """Normalize arbitrary iterables/mappings into a delta.

        Returns
        -------
        GraphDelta
            A frozen, validated (shape-wise) delta.
        """
        if isinstance(added_seeds, Mapping):
            seed_pairs = tuple(added_seeds.items())
        else:
            seed_pairs = tuple((pair[0], pair[1]) for pair in added_seeds)
        return cls(
            added_edges1=_as_edge_tuple(added_edges1, "added_edges1"),
            added_edges2=_as_edge_tuple(added_edges2, "added_edges2"),
            removed_edges1=_as_edge_tuple(removed_edges1, "removed_edges1"),
            removed_edges2=_as_edge_tuple(removed_edges2, "removed_edges2"),
            added_nodes1=tuple(added_nodes1),
            added_nodes2=tuple(added_nodes2),
            added_seeds=seed_pairs,
        )

    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """Whether the delta changes nothing."""
        return not (
            self.added_edges1
            or self.added_edges2
            or self.removed_edges1
            or self.removed_edges2
            or self.added_nodes1
            or self.added_nodes2
            or self.added_seeds
        )

    @property
    def num_edge_changes(self) -> int:
        """Total edge additions + removals across both sides."""
        return (
            len(self.added_edges1)
            + len(self.added_edges2)
            + len(self.removed_edges1)
            + len(self.removed_edges2)
        )

    def __repr__(self) -> str:
        return (
            f"GraphDelta(+e1={len(self.added_edges1)}, "
            f"+e2={len(self.added_edges2)}, "
            f"-e1={len(self.removed_edges1)}, "
            f"-e2={len(self.removed_edges2)}, "
            f"+n1={len(self.added_nodes1)}, "
            f"+n2={len(self.added_nodes2)}, "
            f"+seeds={len(self.added_seeds)})"
        )


#: Field names a JSON delta payload may carry (all optional).
_PAYLOAD_FIELDS = (
    "added_edges1",
    "added_edges2",
    "removed_edges1",
    "removed_edges2",
    "added_nodes1",
    "added_nodes2",
    "added_seeds",
)


def delta_to_payload(delta: GraphDelta) -> dict:
    """Render a delta as a JSON-serializable dict (empty fields omitted).

    The wire/log format of the serving layer: edges and seeds become
    ``[u, v]`` pairs, so int and str node ids round-trip exactly
    through :func:`delta_from_payload`.
    """
    payload: dict = {}
    for name in _PAYLOAD_FIELDS:
        value = getattr(delta, name)
        if not value:
            continue
        if name in ("added_nodes1", "added_nodes2"):
            payload[name] = list(value)
        else:
            payload[name] = [[u, v] for u, v in value]
    return payload


def delta_from_payload(payload: "Mapping[str, object]") -> GraphDelta:
    """Parse a JSON payload dict back into a validated delta.

    Raises
    ------
    DeltaError
        On unknown keys or malformed values — the serving layer maps
        this to a 400 response, so the message names the bad field.
    """
    if not isinstance(payload, Mapping):
        raise DeltaError(
            f"delta payload must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(_PAYLOAD_FIELDS))
    if unknown:
        raise DeltaError(
            f"unknown delta field(s) {unknown}; expected a subset of "
            f"{list(_PAYLOAD_FIELDS)}"
        )
    kwargs: dict = {}
    for name in _PAYLOAD_FIELDS:
        value = payload.get(name, ())
        if not isinstance(value, (list, tuple)):
            raise DeltaError(
                f"{name}: expected a list, got {type(value).__name__}"
            )
        if name in ("added_nodes1", "added_nodes2"):
            kwargs[name] = tuple(value)
        elif name == "added_seeds":
            pairs = []
            for item in value:
                if not isinstance(item, (list, tuple)) or len(item) != 2:
                    raise DeltaError(
                        f"added_seeds: expected [v1, v2] pairs, got "
                        f"{item!r}"
                    )
                pairs.append((item[0], item[1]))
            kwargs[name] = pairs
        else:
            edges = []
            for item in value:
                if not isinstance(item, (list, tuple)) or len(item) != 2:
                    raise DeltaError(
                        f"{name}: expected [u, v] pairs, got {item!r}"
                    )
                edges.append((item[0], item[1]))
            kwargs[name] = edges
    return GraphDelta.build(**kwargs)


def validate_delta(
    g1: Graph,
    g2: Graph,
    delta: GraphDelta,
    *,
    seeds: "Mapping[Node, Node] | None" = None,
) -> None:
    """Check that *delta* would apply cleanly, without mutating anything.

    Mirrors :func:`apply_delta_to_graphs` exactly (additions before
    removals, per side; duplicates within the delta count as already
    applied) so a delta that validates can no longer raise — and
    therefore can no longer leave the graphs partially mutated.  The
    incremental engine runs this first in every ``apply``, and the
    serving layer before logging each batch: a bad request becomes a
    clean rejection instead of a corrupted engine.

    Parameters
    ----------
    seeds : mapping, optional
        The seed links the delta's ``added_seeds`` join.  When given,
        the merged seed set must stay one-to-one and no seed may be
        remapped to a different g2 node.

    Raises
    ------
    DeltaError
        Naming the first offending edge/seed, with the same messages
        the apply path would produce.
    """
    for label, graph, added, removed in (
        ("edges1", g1, delta.added_edges1, delta.removed_edges1),
        ("edges2", g2, delta.added_edges2, delta.removed_edges2),
    ):
        seen_added: set[frozenset[Node]] = set()
        for u, v in added:
            key = frozenset((u, v))
            if graph.has_edge(u, v) or key in seen_added:
                raise DeltaError(
                    f"added_{label}: edge {(u, v)!r} already present"
                )
            seen_added.add(key)
        seen_removed: set[frozenset[Node]] = set()
        for u, v in removed:
            key = frozenset((u, v))
            present = (
                graph.has_edge(u, v) or key in seen_added
            ) and key not in seen_removed
            if not present:
                raise DeltaError(
                    f"removed_{label}: edge {(u, v)!r} not present"
                )
            seen_removed.add(key)
    new_nodes1: set[Node] = set(delta.added_nodes1)
    new_nodes2: set[Node] = set(delta.added_nodes2)
    for u, v in delta.added_edges1:
        new_nodes1.update((u, v))
    for u, v in delta.added_edges2:
        new_nodes2.update((u, v))
    for v1, v2 in delta.added_seeds:
        if not (g1.has_node(v1) or v1 in new_nodes1):
            raise DeltaError(
                f"added_seeds: {v1!r} -> {v2!r}: {v1!r} not in g1"
            )
        if not (g2.has_node(v2) or v2 in new_nodes2):
            raise DeltaError(
                f"added_seeds: {v1!r} -> {v2!r}: {v2!r} not in g2"
            )
    if len({v1 for v1, _v2 in delta.added_seeds}) != len(delta.added_seeds):
        raise DeltaError("added_seeds: a g1 endpoint appears twice")
    if seeds is None:
        return
    merged = dict(seeds)
    for v1, v2 in delta.added_seeds:
        if merged.get(v1, v2) != v2:
            raise DeltaError(
                f"added_seeds: {v1!r} is already linked to "
                f"{merged[v1]!r} and cannot be remapped"
            )
        merged[v1] = v2
    if len(set(merged.values())) != len(merged):
        raise DeltaError("added_seeds: seed links must remain one-to-one")


def apply_delta_to_graphs(g1: Graph, g2: Graph, delta: GraphDelta) -> None:
    """Apply *delta* to the two graphs in place (strict semantics).

    Parameters
    ----------
    g1, g2 : Graph
        The pair's mutable graphs; edges are added/removed in delta
        order, side 1 before side 2, additions before removals.
    delta : GraphDelta
        The batch to apply.

    Raises
    ------
    DeltaError
        If an added edge already exists, a removed edge is absent, or a
        new seed references a node that does not exist after the edge
        changes.  The graphs may be partially mutated when this raises
        — validate deltas upstream if atomicity matters.
    """
    for graph, nodes in (
        (g1, delta.added_nodes1),
        (g2, delta.added_nodes2),
    ):
        for node in nodes:
            graph.add_node(node)
    for label, graph, edges in (
        ("added_edges1", g1, delta.added_edges1),
        ("added_edges2", g2, delta.added_edges2),
    ):
        for u, v in edges:
            if not graph.add_edge(u, v):
                raise DeltaError(f"{label}: edge {(u, v)!r} already present")
    for label, graph, edges in (
        ("removed_edges1", g1, delta.removed_edges1),
        ("removed_edges2", g2, delta.removed_edges2),
    ):
        for u, v in edges:
            if not graph.has_edge(u, v):
                raise DeltaError(f"{label}: edge {(u, v)!r} not present")
            graph.remove_edge(u, v)
    for v1, v2 in delta.added_seeds:
        if not g1.has_node(v1):
            raise DeltaError(
                f"added_seeds: {v1!r} -> {v2!r}: {v1!r} not in g1"
            )
        if not g2.has_node(v2):
            raise DeltaError(
                f"added_seeds: {v1!r} -> {v2!r}: {v2!r} not in g2"
            )


def delta_between(
    g1_old: Graph,
    g2_old: Graph,
    seeds_old: "Mapping[Node, Node]",
    g1_new: Graph,
    g2_new: Graph,
    seeds_new: "Mapping[Node, Node]",
) -> GraphDelta:
    """The delta that turns one reconciliation state into another.

    Used by the checkpoint/resume path: the caller hands the *current*
    graphs and seeds, the checkpoint holds the *persisted* ones, and
    the difference replays as a single delta.

    Parameters
    ----------
    g1_old, g2_old : Graph
        The persisted graphs.
    seeds_old : mapping
        The persisted seed links.
    g1_new, g2_new : Graph
        The graphs to reconcile now.
    seeds_new : mapping
        The seed links to reconcile with; must agree with *seeds_old*
        on every persisted seed (warm starts cannot un-confirm links).

    Returns
    -------
    GraphDelta
        Edge additions/removals per side plus the new seeds.

    Raises
    ------
    DeltaError
        If *seeds_new* drops or remaps a persisted seed.
    """
    for v1, v2 in seeds_old.items():
        if seeds_new.get(v1) != v2:
            raise DeltaError(
                f"cannot warm-start: persisted seed {v1!r} -> {v2!r} "
                "is missing or remapped in the new seed set"
            )

    def edge_diff(
        old: Graph, new: Graph
    ) -> tuple[list[tuple[Node, Node]], list[tuple[Node, Node]]]:
        added = [(u, v) for u, v in new.edges() if not old.has_edge(u, v)]
        removed = [(u, v) for u, v in old.edges() if not new.has_edge(u, v)]
        return added, removed

    added1, removed1 = edge_diff(g1_old, g1_new)
    added2, removed2 = edge_diff(g2_old, g2_new)
    return GraphDelta.build(
        added_edges1=added1,
        added_edges2=added2,
        removed_edges1=removed1,
        removed_edges2=removed2,
        # Isolated new nodes leave no edge trace but must exist so
        # that seeds referencing them survive the warm replay.
        added_nodes1=[
            v for v in g1_new.nodes() if not g1_old.has_node(v)
        ],
        added_nodes2=[
            v for v in g2_new.nodes() if not g2_old.has_node(v)
        ],
        added_seeds={
            v1: v2
            for v1, v2 in seeds_new.items()
            if v1 not in seeds_old
        },
    )


def split_edge_stream(
    edges1: Sequence[Edge],
    edges2: Sequence[Edge],
    num_deltas: int,
    *,
    added_seeds: "Mapping[Node, Node] | Iterable[tuple[Node, Node]]" = (),
    seeds_in_first: bool = True,
) -> list[GraphDelta]:
    """Split two edge streams into *num_deltas* delta batches.

    Parameters
    ----------
    edges1, edges2 : sequence of (node, node)
        Edge-arrival streams for each side, already deduplicated
        against the base graphs (deltas are strict).
    num_deltas : int
        Number of batches; must be >= 1.  Streams are cut into
        near-equal contiguous runs (earlier batches get the remainder).
    added_seeds : mapping or iterable of pairs, optional
        Seed links to confirm along the way.
    seeds_in_first : bool, optional
        Attach all *added_seeds* to the first delta (default) instead
        of the last — seeds usually arrive before the edges they help
        score.

    Returns
    -------
    list of GraphDelta
        Exactly *num_deltas* deltas whose concatenation replays both
        streams in order.
    """
    if num_deltas < 1:
        raise DeltaError(f"num_deltas must be >= 1, got {num_deltas!r}")

    def cuts(n: int) -> list[int]:
        base, extra = divmod(n, num_deltas)
        sizes = [base + (1 if i < extra else 0) for i in range(num_deltas)]
        offsets = [0]
        for size in sizes:
            offsets.append(offsets[-1] + size)
        return offsets

    off1 = cuts(len(edges1))
    off2 = cuts(len(edges2))
    deltas = []
    for i in range(num_deltas):
        seed_slot = 0 if seeds_in_first else num_deltas - 1
        deltas.append(
            GraphDelta.build(
                added_edges1=edges1[off1[i] : off1[i + 1]],
                added_edges2=edges2[off2[i] : off2[i + 1]],
                added_seeds=added_seeds if i == seed_slot else (),
            )
        )
    return deltas
