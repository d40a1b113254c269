"""Selection policies: turn a score table into one-to-one links.

Every selector shares one signature::

    selector(scores, threshold, tie_policy=TiePolicy.SKIP) -> dict[v1, v2]

where ``scores`` is the flat :class:`~repro.core.kernels.ArrayScores`
table of candidate-pair scores.  The output, over original node ids, is
guaranteed one-to-one.  Three policies ship:

- ``"mutual-best"`` — the paper's rule (a pair links iff it is the best
  for *both* endpoints); precise but abstains under contention.
- ``"greedy"`` — sort all pairs by score and take them greedily, skipping
  used endpoints.  Maximizes matched volume per round at some precision
  cost; the classic weighted-matching heuristic.
- ``"gale-shapley"`` — stable matching: left nodes propose in score
  order, right nodes trade up.  No blocking pairs: no (v1, v2) both
  strictly prefer each other over their assigned partners.  This is the
  deferred-acceptance selector structured matcher suites (e.g.
  SchaeferJ/graphMatching) expose alongside min-weight assignment.

Exact score ties are broken by the canonical
:func:`~repro.core.ordering.node_sort_key` in the greedy and stable
selectors (their sequential nature needs *some* deterministic order, so
``TiePolicy.SKIP`` only affects ``"mutual-best"``).  Interning is
canonical, so on the table that order is the dense-id order.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.core.config import TiePolicy
from repro.core.kernels import (
    ArrayScores,
    select_greedy_arrays,
    select_mutual_best_arrays,
)
from repro.core.ordering import node_sort_key
from repro.errors import MatcherRegistryError

Node = Hashable
Selector = Callable[..., "dict[Node, Node]"]


def select_mutual_best(
    scores: ArrayScores,
    threshold: int | float,
    tie_policy: TiePolicy = TiePolicy.SKIP,
) -> dict[Node, Node]:
    """The paper's mutual-best rule.

    From the pseudocode: *"If (u, v) is the pair with highest score in
    which either u or v appear and the score is above T, add (u, v) to
    L."*  A pair is emitted iff it is simultaneously the best candidate
    for its left node and for its right node, and scores at least
    ``T``; under ``SKIP`` a tied best abstains, under ``LOWEST_ID`` the
    canonically smallest wins.  Two emitted pairs never share an
    endpoint.  See :func:`~repro.core.kernels.select_mutual_best_arrays`.
    """
    left, right, _candidates = select_mutual_best_arrays(
        scores, threshold, tie_policy
    )
    return scores.index.export_links(left, right)


def select_greedy_top_score(
    scores: ArrayScores,
    threshold: int | float,
    tie_policy: TiePolicy = TiePolicy.SKIP,
) -> dict[Node, Node]:
    """Greedy maximum-score selection.

    Pairs at or above *threshold* are sorted by descending score (ties by
    the canonical node order) and accepted greedily while both endpoints
    are free.  Unlike mutual-best this never abstains: any scoring node
    with a free candidate gets matched, trading precision for recall.

    ``tie_policy`` is accepted for signature compatibility; the greedy
    order already resolves ties deterministically.
    """
    del tie_policy  # greedy order is already deterministic under ties
    left, right = select_greedy_arrays(scores, threshold)
    return scores.index.export_links(left, right)


def select_gale_shapley(
    scores: ArrayScores,
    threshold: int | float,
    tie_policy: TiePolicy = TiePolicy.SKIP,
) -> dict[Node, Node]:
    """Stable (deferred-acceptance) selection over the score table.

    Left nodes propose to their candidates in descending score order;
    each right node holds the best proposal seen so far and trades up.
    The result is stable with respect to the scores: no unmatched pair
    scores strictly higher than what both its endpoints hold.

    ``tie_policy`` is accepted for signature compatibility; proposals and
    acceptances break exact ties by the canonical node order.
    """
    del tie_policy  # deferred acceptance resolves ties deterministically
    # Deferred acceptance is proposal-sequential; it runs over the dict
    # view of the table.  Preference lists: descending score, canonical
    # order within a tie.
    prefs: dict[Node, list[tuple[int, Node]]] = {}
    for v1, row in scores.to_dict().items():
        ranked = sorted(
            ((sc, v2) for v2, sc in row.items() if sc >= threshold),
            key=lambda t: (-t[0], node_sort_key(t[1])),
        )
        if ranked:
            prefs[v1] = ranked
    next_idx = {v1: 0 for v1 in prefs}
    free = sorted(prefs, key=node_sort_key)
    # holder[v2] = (score, v1) of the proposal v2 currently holds.
    holder: dict[Node, tuple[int, Node]] = {}
    while free:
        v1 = free.pop()
        idx = next_idx[v1]
        options = prefs[v1]
        while idx < len(options):
            sc, v2 = options[idx]
            idx += 1
            incumbent = holder.get(v2)
            if incumbent is None:
                holder[v2] = (sc, v1)
                break
            inc_sc, inc_v1 = incumbent
            if sc > inc_sc or (
                sc == inc_sc
                and node_sort_key(v1) < node_sort_key(inc_v1)
            ):
                holder[v2] = (sc, v1)
                free.append(inc_v1)
                break
        next_idx[v1] = idx
    return {v1: v2 for v2, (_sc, v1) in holder.items()}


#: Selection policies resolvable by name (Reconciler's ``selector=`` arg).
SELECTORS: dict[str, Selector] = {
    "mutual-best": select_mutual_best,
    "greedy": select_greedy_top_score,
    "gale-shapley": select_gale_shapley,
}


def get_selector(name: str) -> Selector:
    """Resolve a selection policy by name.

    Raises:
        MatcherRegistryError: if *name* is not a known policy.
    """
    try:
        return SELECTORS[name]
    except KeyError:
        known = ", ".join(sorted(SELECTORS))
        raise MatcherRegistryError(
            f"unknown selection policy {name!r}; known: {known}"
        ) from None
