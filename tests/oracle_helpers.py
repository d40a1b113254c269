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
- the ``reconciler``'s default array scorer is held to the dict-level
  :func:`~repro.core.reconciler.witness_count_kernel` over original ids;
- the MapReduce formulation and the narayanan-shmatikov,
  structural-features and degree-sequence baselines have one path that
  ignores ``backend``, so each is its own reference.

Under ``REPRO_NATIVE_DISABLE=1`` (or with no C toolchain) the native
runs are csr fallback runs and the wall still holds them to the
reference.
"""

from __future__ import annotations

import contextlib
import dataclasses
import warnings

from repro.baselines.common_neighbors import CommonNeighborsMatcher
from repro.core.config import BACKENDS, MatcherConfig
from repro.core.matcher import UserMatching
from repro.core.native import NativeFallbackWarning, native_available
from repro.core.reconciler import Reconciler, witness_count_kernel
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
        return Reconciler(scorer=witness_count_kernel, **config)
    return get_matcher(name, **config)


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
