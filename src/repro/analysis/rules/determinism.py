"""RPR001: no ambient-entropy sources in the deterministic core.

Korula & Lattanzi's algorithm is replayed across backends, the carried
table and the per-round recount, and warm starts with the promise that
links are bit-identical.  Any read of global RNG state or the wall
clock inside the execution core silently breaks that promise, so this
rule rejects:

- calls through the ``random`` module's *global* instance
  (``random.random()``, ``random.shuffle()``, ...) — constructing a
  seeded ``random.Random(seed)`` is the sanctioned pattern;
- numpy's legacy global-state API (``np.random.seed``,
  ``np.random.rand``, ``np.random.shuffle``, ``RandomState``, ...) —
  ``np.random.default_rng(seed)`` / ``Generator`` are allowed;
- wall-clock and OS entropy reads: ``time.time``, ``time.time_ns``,
  ``os.urandom``, ``uuid.uuid1``, ``uuid.uuid4``.  (``perf_counter`` /
  ``monotonic`` stay legal: timing instrumentation feeds diagnostics,
  never results.)

Scope: ``repro/core``, ``repro/graphs``, ``repro/incremental``,
``repro/mapreduce`` — the modules whose outputs the equivalence walls
compare bit-for-bit.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.framework import (
    FileRule,
    Finding,
    Severity,
    SourceFile,
    module_parts,
    register_rule,
)

_SCOPED_PACKAGES = ("core", "graphs", "incremental", "mapreduce")

#: Functions on the ``random`` module that touch its hidden global
#: instance.  ``random.Random`` (seeded construction) is absent by
#: design.
_RANDOM_GLOBAL_FNS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "getstate",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "setstate",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: numpy's legacy global-state surface (pre-``Generator`` API).
_NP_RANDOM_LEGACY = frozenset(
    {
        "RandomState",
        "beta",
        "binomial",
        "choice",
        "exponential",
        "gamma",
        "get_state",
        "normal",
        "permutation",
        "poisson",
        "rand",
        "randint",
        "randn",
        "random",
        "random_integers",
        "random_sample",
        "ranf",
        "sample",
        "seed",
        "set_state",
        "shuffle",
        "standard_normal",
        "uniform",
    }
)

#: ``(module, attribute)`` pairs that read the wall clock or OS entropy.
_CLOCK_ENTROPY = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("os", "urandom"),
        ("uuid", "uuid1"),
        ("uuid", "uuid4"),
    }
)


def _dotted(node: ast.AST) -> tuple[str, ...] | None:
    """``np.random.seed`` -> ``("np", "random", "seed")``; else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


@register_rule
class DeterminismRule(FileRule):
    """RPR001 — see the module docstring for the full contract."""

    id = "RPR001"
    title = (
        "no unseeded global RNG, wall-clock, or OS-entropy reads in "
        "the deterministic core"
    )
    severity = Severity.ERROR
    hint = (
        "thread a seeded rng (repro.utils.rng.ensure_rng / "
        "np.random.default_rng(seed)) through the call instead"
    )

    def applies_to(self, path: str) -> bool:
        parts = module_parts(path)
        return (
            len(parts) >= 2
            and parts[0] == "repro"
            and parts[1] in _SCOPED_PACKAGES
        )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Attribute):
                continue
            dotted = _dotted(node)
            if dotted is None:
                continue
            yield from self._check_dotted(src, node, dotted)

    def _check_dotted(
        self,
        src: SourceFile,
        node: ast.Attribute,
        dotted: tuple[str, ...],
    ) -> Iterator[Finding]:
        if (
            len(dotted) == 2
            and dotted[0] == "random"
            and dotted[1] in _RANDOM_GLOBAL_FNS
        ):
            yield self.finding(
                src,
                node,
                f"`random.{dotted[1]}` draws from the module's hidden "
                "global RNG; results depend on import-time state",
            )
        elif (
            len(dotted) == 3
            and dotted[0] in ("np", "numpy")
            and dotted[1] == "random"
            and dotted[2] in _NP_RANDOM_LEGACY
        ):
            yield self.finding(
                src,
                node,
                f"`{'.'.join(dotted)}` is numpy's legacy global-state "
                "RNG API; use np.random.default_rng(seed)",
            )
        elif len(dotted) == 2 and tuple(dotted) in _CLOCK_ENTROPY:
            yield self.finding(
                src,
                node,
                f"`{'.'.join(dotted)}` reads ambient entropy (wall "
                "clock / OS randomness) inside the deterministic core",
            )
