"""Bipartite graph (users x affiliations) for the Affiliation Networks model.

The Lattanzi–Sivakumar affiliation model [19] generates a bipartite graph
``B(Q, U)`` of users and interests and folds it into a user–user graph where
two users are adjacent iff they share an interest.  The correlated-deletion
experiment (Table 4) deletes whole interests per copy, so the fold must be
recomputable from a filtered interest set — that is what this class provides.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

import numpy as np

from repro.errors import NodeNotFoundError
from repro.graphs.graph import Graph

User = Hashable
Affiliation = Hashable


class BipartiteGraph:
    """Two-sided adjacency between *users* (left) and *affiliations* (right)."""

    __slots__ = ("_user_affs", "_aff_users")

    def __init__(self) -> None:
        self._user_affs: dict[User, set[Affiliation]] = {}
        self._aff_users: dict[Affiliation, set[User]] = {}

    # ------------------------------------------------------------------
    def add_user(self, user: User) -> None:
        """Register a user node."""
        self._user_affs.setdefault(user, set())

    def add_affiliation(self, aff: Affiliation) -> None:
        """Register an affiliation node."""
        self._aff_users.setdefault(aff, set())

    def add_membership(self, user: User, aff: Affiliation) -> bool:
        """Link *user* to *aff*; return ``True`` if the link was new."""
        self.add_user(user)
        self.add_affiliation(aff)
        if aff in self._user_affs[user]:
            return False
        self._user_affs[user].add(aff)
        self._aff_users[aff].add(user)
        return True

    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        """Number of user nodes."""
        return len(self._user_affs)

    @property
    def num_affiliations(self) -> int:
        """Number of affiliation nodes."""
        return len(self._aff_users)

    @property
    def num_memberships(self) -> int:
        """Number of (user, affiliation) links."""
        return sum(len(a) for a in self._user_affs.values())

    def users(self) -> Iterator[User]:
        """Iterate over user nodes."""
        return iter(self._user_affs)

    def affiliations(self) -> Iterator[Affiliation]:
        """Iterate over affiliation nodes."""
        return iter(self._aff_users)

    def affiliations_of(self, user: User) -> set[Affiliation]:
        """Affiliation set of *user* (live set — treat as read-only)."""
        try:
            return self._user_affs[user]
        except KeyError:
            raise NodeNotFoundError(user) from None

    def members_of(self, aff: Affiliation) -> set[User]:
        """User set of *aff* (live set — treat as read-only)."""
        try:
            return self._aff_users[aff]
        except KeyError:
            raise NodeNotFoundError(aff) from None

    # ------------------------------------------------------------------
    def fold(self, affiliations: Iterable[Affiliation] | None = None) -> Graph:
        """Project onto a user–user graph.

        Two users are adjacent iff they share at least one affiliation in
        *affiliations* (all affiliations when ``None``).  Every registered
        user appears in the folded graph, possibly isolated — the Table 4
        experiment needs consistent node sets across the two folds.

        The graph equals the one this loop builds, in node order and in
        every neighbor set's iteration order::

            g = Graph()
            for user in users:
                g.add_node(user)
            for aff in affiliations:
                for u, v in combinations(sorted(members(aff), key=repr), 2):
                    g.add_edge(u, v)

        It is built from edge arrays (:meth:`Graph.from_dense_edges`), so
        it keeps them for :meth:`Graph.recorded_edges` and interning
        assembles its CSR without walking the neighbor sets.
        """
        users = list(self._user_affs)
        position = {user: i for i, user in enumerate(users)}
        if affiliations is None:
            selected: Iterable[Affiliation] = self._aff_users
        else:
            selected = affiliations
        src: list[np.ndarray] = []
        dst: list[np.ndarray] = []
        for aff in selected:
            members = self._aff_users.get(aff)
            if members is None:
                raise NodeNotFoundError(aff)
            if len(members) < 2:
                continue
            ids = np.fromiter(
                map(position.__getitem__, sorted(members, key=repr)),
                dtype=np.int64,
                count=len(members),
            )
            # Row-major upper triangle == itertools.combinations order.
            i, j = np.triu_indices(len(ids), k=1)
            src.append(ids[i])
            dst.append(ids[j])
        empty = np.empty(0, dtype=np.int64)
        return Graph.from_dense_edges(
            users,
            np.concatenate(src) if src else empty,
            np.concatenate(dst) if dst else empty,
            first=np.arange(len(users)),
        )

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(num_users={self.num_users}, "
            f"num_affiliations={self.num_affiliations}, "
            f"num_memberships={self.num_memberships})"
        )
