"""The reference every registry matcher is held to on both backends.

:class:`~repro.mapreduce.matcher_mr.MapReduceUserMatching` — the paper's
four MapReduce rounds per bucket, recounted from scratch over original
node ids — is the one literal implementation of User-Matching.  The
shipped sweep (:class:`~repro.core.matcher.UserMatching`) must equal it
on ``backend="csr"`` and on ``backend="native"``: links, seeds and every
``PhaseRecord`` field.  The other registry matchers map onto a reference
the same way:

- ``common-neighbors`` is a User-Matching configuration, so its
  reference is the MapReduce formulation under that configuration;
- the ``reconciler``'s default pipeline (witness counts, mutual-best)
  is the unbucketed User-Matching configuration, so its reference is the
  MapReduce formulation with ``use_degree_buckets=False`` and
  ``min_bucket_exponent=0``; the MapReduce formulation has no greedy or
  stable selection, so under those selectors the reference is the same
  selector over :func:`definition_one_scorer`;
- the MapReduce formulation and the narayanan-shmatikov,
  structural-features and degree-sequence baselines have one path that
  ignores ``backend``, so each is its own reference.

Under ``REPRO_NATIVE_DISABLE=1`` (or with no C toolchain) the native
runs are csr fallback runs and the wall still holds them to the
reference.

:func:`witness_join_oracle` is the kernel-level reference: Definition 1
spelled out as nested loops over the CSR rows, for the tests that hold
:func:`~repro.core.kernels.count_witnesses` (scipy and compiled) to it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import warnings
from collections import Counter

from repro.baselines.common_neighbors import CommonNeighborsMatcher
from repro.core.config import BACKENDS, MatcherConfig
from repro.core.matcher import UserMatching
from repro.core.native import NativeFallbackWarning, native_available
from repro.core.reconciler import Reconciler
from repro.mapreduce.matcher_mr import MapReduceUserMatching
from repro.registry import get_matcher

#: Registry-name -> extra config of the registry walls (chosen so every
#: matcher actually links something at test scale).
MATCHER_CONFIGS: dict[str, dict] = {
    "user-matching": {"threshold": 2, "iterations": 2},
    "mapreduce-user-matching": {"threshold": 2, "iterations": 2},
    "common-neighbors": {},
    "reconciler": {"threshold": 2, "rounds": 2},
    "degree-sequence": {},
    "narayanan-shmatikov": {},
    "structural-features": {},
}


def oracle_for(name: str, **config):
    """The reference matcher for registry *name* under *config*."""
    if name in ("user-matching", "mapreduce-user-matching"):
        return MapReduceUserMatching(MatcherConfig(**config))
    if name == "common-neighbors":
        return MapReduceUserMatching(CommonNeighborsMatcher(**config).config)
    if name == "reconciler":
        return reconciler_oracle(**config)
    return get_matcher(name, **config)


def reconciler_oracle(
    *,
    threshold=2,
    rounds=3,
    selector="mutual-best",
    **config,
):
    """The reference of a ``Reconciler`` with the built-in scorer.

    Under mutual-best that is the MapReduce formulation with one
    pseudo-bucket of floor 1 per iteration (*config* carries the tie
    policy and the pruning knobs through); under another named
    selector, that selector over :func:`definition_one_scorer`.
    """
    if selector == "mutual-best":
        return MapReduceUserMatching(
            MatcherConfig(
                threshold=threshold,
                iterations=rounds,
                use_degree_buckets=False,
                min_bucket_exponent=0,
                **config,
            )
        )
    return Reconciler(
        threshold=threshold,
        rounds=rounds,
        selector=selector,
        scorer=definition_one_scorer,
        **config,
    )


def definition_one_scorer(g1, g2, links, candidates=None):
    """Definition 1 over original ids, as a custom Reconciler scorer.

    Every link ``(u1, u2)`` whose image is in ``g2`` adds one witness to
    each pair of unlinked neighbors ``(v1, v2)``; *candidates*, when
    given, restricts the pairs.  Each witness lands in one count, so
    the table's total score is the join's ``Σ a_k · b_k``.
    """
    linked_right = set(links.values())
    rows: dict = {}
    for u1, u2 in links.items():
        if not g2.has_node(u2):
            continue
        for v1 in g1.neighbors(u1):
            if v1 in links:
                continue
            for v2 in g2.neighbors(u2):
                if v2 in linked_right or (
                    candidates is not None
                    and v2 not in candidates.get(v1, ())
                ):
                    continue
                row = rows.setdefault(v1, {})
                row[v2] = row.get(v2, 0) + 1
    return rows


def witness_join_oracle(
    index, link_l, link_r, eligible1, eligible2, min_count=1, allowed=None
):
    """Literal witness enumeration over the CSR neighbor rows.

    Returns ``({(v1, v2): count}, emitted)`` over dense ids: the pairs
    scoring at least *min_count* (and passing *allowed*, when given)
    and the full expansion ``Σ a_k · b_k``.
    """
    ip1, ix1 = index.csr1.indptr, index.csr1.indices
    ip2, ix2 = index.csr2.indptr, index.csr2.indices
    counts: Counter = Counter()
    emitted = 0
    for u1, u2 in zip(link_l.tolist(), link_r.tolist()):
        near1 = [v for v in ix1[ip1[u1]:ip1[u1 + 1]].tolist() if eligible1[v]]
        near2 = [v for v in ix2[ip2[u2]:ip2[u2 + 1]].tolist() if eligible2[v]]
        emitted += len(near1) * len(near2)
        for v1 in near1:
            for v2 in near2:
                counts[(v1, v2)] += 1
    table = {
        pair: c
        for pair, c in counts.items()
        if c >= min_count and (allowed is None or allowed(*pair))
    }
    return table, emitted


def round_inputs(index, links, min_degree=1):
    """One scoring round's join inputs for :func:`witness_join_oracle`.

    ``(link_l, link_r, eligible1, eligible2)``: the interned *links* and
    the masks of nodes that are unlinked and at least *min_degree*.
    """
    link_l, link_r = index.intern_links(links)
    eligible1, eligible2 = index.eligibility(min_degree)
    eligible1, eligible2 = eligible1.copy(), eligible2.copy()
    eligible1[link_l] = False
    eligible2[link_r] = False
    return link_l, link_r, eligible1, eligible2


def as_table(scores):
    """``{(v1, v2): count}`` of an ``ArrayScores``, pairs checked unique."""
    left = scores.left.tolist()
    right = scores.right.tolist()
    table = dict(zip(zip(left, right), scores.score.tolist()))
    assert len(table) == scores.num_pairs, "duplicate pairs in the table"
    return table


@contextlib.contextmanager
def fallback_guard(backend: str):
    """Make a surprise native fallback an error where a toolchain exists.

    A fallback inside a test that believes it runs the compiled path
    would silently weaken the wall; without a toolchain (or under
    ``REPRO_NATIVE_DISABLE=1``), ``backend="native"`` is expected to
    fall back quietly.
    """
    with warnings.catch_warnings():
        if backend == "native":
            action = "error" if native_available() else "ignore"
            warnings.simplefilter(action, NativeFallbackWarning)
        yield


def run_backend(name: str, backend: str, g1, g2, seeds, **config):
    """One registry run under :func:`fallback_guard`."""
    with fallback_guard(backend):
        matcher = get_matcher(name, backend=backend, **config)
        return matcher.run(g1, g2, seeds)


def assert_same_result(got, ref, label: object = "") -> None:
    """Links, seeds and per-round records equal (timings are wall clock)."""
    assert got.links == ref.links, label
    assert got.seeds == ref.seeds, label
    assert got.phases == ref.phases, label


def assert_registry_matches_oracle(name: str, g1, g2, seeds, **config):
    """Registry matcher *name* on every backend equals its reference."""
    ref = oracle_for(name, **config).run(g1, g2, seeds)
    for backend in BACKENDS:
        got = run_backend(name, backend, g1, g2, seeds, **config)
        assert_same_result(got, ref, (name, backend))
    return ref


def assert_matches_oracle(
    g1, g2, seeds, config: MatcherConfig | None = None, **kwargs
):
    """UserMatching on csr and native equals the MapReduce formulation.

    Compares the whole :class:`~repro.core.result.MatchingResult`;
    returns the oracle's result for further checks.
    """
    config = config or MatcherConfig(**kwargs)
    ref = MapReduceUserMatching(config).run(g1, g2, seeds)
    for backend in BACKENDS:
        with fallback_guard(backend):
            got = UserMatching(
                dataclasses.replace(config, backend=backend)
            ).run(g1, g2, seeds)
        assert_same_result(got, ref, (backend, config))
        assert got == ref, (backend, config)
    return ref
