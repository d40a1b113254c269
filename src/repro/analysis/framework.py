"""Plugin framework of the ``repro lint`` static-analysis pass.

The runtime property walls (csr↔native↔MapReduce identity, carried ≡
recount, warm ≡ cold) catch determinism violations *after* they are
written.  This module is the other half of that discipline: a small AST
framework whose rules reject the patterns that cause such violations —
unseeded RNG state, unordered set iteration, bare float accumulation,
implicit dtypes, un-threaded config knobs — before they ever run.

A rule is a class with an :attr:`~Rule.id` (``RPR0xx``), a
:class:`Severity`, a one-line autofix :attr:`~Rule.hint`, and a
``check`` method yielding :class:`Finding` objects.  Rules register
themselves with :func:`register_rule`; the engine in
:mod:`repro.analysis.engine` discovers them through
:func:`all_rules`.  Two base classes exist:

- :class:`FileRule` — sees one parsed :class:`SourceFile` at a time
  (most rules).
- :class:`ProjectRule` — sees the whole file set plus the project
  root, for cross-file consistency rules such as RPR006.

Findings on a line carrying ``# repro-lint: ignore[RPR0xx]`` (or a
bare ``# repro-lint: ignore``) are suppressed; the suppression budget
is ratcheted by ``scripts/check_lint_baseline.py`` so it can only
shrink.
"""

from __future__ import annotations

import ast
import enum
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Severity",
    "Finding",
    "SourceFile",
    "Rule",
    "FileRule",
    "ProjectRule",
    "register_rule",
    "all_rules",
    "get_rule",
    "rule_ids",
    "parent_map",
    "module_parts",
]

#: ``# repro-lint: ignore`` or ``# repro-lint: ignore[RPR001, RPR005]``
#: (an optional trailing free-text reason is encouraged).
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*ignore(?:\[(?P<ids>[A-Z0-9, ]+)\])?"
)


class Severity(enum.Enum):
    """How bad a finding is.  Both levels fail the lint gate; the
    distinction exists so reports sort the dangerous findings first."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a source location.

    Ordered by ``(path, line, col, rule_id)`` so reports are stable
    regardless of rule execution order.
    """

    path: str
    line: int
    col: int
    rule_id: str
    severity: Severity = field(compare=False)
    message: str = field(compare=False)
    hint: str = field(compare=False, default="")

    def render(self) -> str:
        """``path:line:col: RPR00x error: message (hint: ...)``."""
        text = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} {self.severity.value}: {self.message}"
        )
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


class SourceFile:
    """One parsed Python source file plus its suppression table.

    ``path`` is the *reported* path — tests construct virtual paths
    (e.g. ``src/repro/core/fixture.py``) to exercise path-scoped rules
    on fixture text that lives elsewhere.
    """

    def __init__(self, path: str, text: str, tree: ast.Module) -> None:
        self.path = path
        self.text = text
        self.tree = tree
        #: line -> suppressed rule ids; ``None`` means "all rules".
        self.suppressions: dict[int, frozenset[str] | None] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            ids = match.group("ids")
            if ids is None:
                self.suppressions[lineno] = None
            else:
                self.suppressions[lineno] = frozenset(
                    part.strip() for part in ids.split(",") if part.strip()
                )

    @classmethod
    def from_source(cls, text: str, path: str) -> "SourceFile":
        """Parse *text*, reporting findings against virtual *path*."""
        return cls(path, text, ast.parse(text, filename=path))

    @classmethod
    def from_path(
        cls, file_path: Path, reported_path: str | None = None
    ) -> "SourceFile":
        """Read and parse *file_path* (raises ``SyntaxError`` as-is)."""
        text = file_path.read_text(encoding="utf-8")
        path = reported_path if reported_path is not None else str(file_path)
        return cls(path, text, ast.parse(text, filename=path))

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """True when *line* carries a suppression covering *rule_id*."""
        if line not in self.suppressions:
            return False
        ids = self.suppressions[line]
        return ids is None or rule_id in ids


def module_parts(path: str) -> tuple[str, ...]:
    """Path components from the ``repro`` package root down.

    ``src/repro/core/kernels.py`` -> ``("repro", "core", "kernels.py")``.
    Paths outside the package return all their components, so scope
    checks against ``("repro", ...)`` prefixes simply never match.
    """
    parts = Path(path).parts
    for i, part in enumerate(parts):
        if part == "repro":
            return tuple(parts[i:])
    return tuple(parts)


def parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    """Child -> parent links for *tree* (ast has none built in)."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


class Rule:
    """Base class: identity and metadata shared by every rule kind."""

    #: Stable identifier, ``RPR0xx``; reports and suppressions use it.
    id: str = ""
    #: One-line summary shown by ``repro lint --list-rules``.
    title: str = ""
    severity: Severity = Severity.ERROR
    #: One-line autofix guidance appended to every finding.
    hint: str = ""

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on *path* (default: every file)."""
        return True

    def finding(self, src: SourceFile, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` at *node*'s location."""
        return Finding(
            path=src.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.id,
            severity=self.severity,
            message=message,
            hint=self.hint,
        )


class FileRule(Rule):
    """A rule that inspects one file at a time."""

    def check(self, src: SourceFile) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A cross-file rule that inspects the whole linted file set.

    ``project_root`` is the repository root (the directory holding
    ``setup.py``/``pyproject.toml``/``.git``); rules use it to reach
    files outside the linted tree, e.g. ``docs/API.md``.
    """

    def check_project(
        self, files: Iterable[SourceFile], project_root: Path
    ) -> Iterator[Finding]:
        raise NotImplementedError


_RULES: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry.

    Re-registering an id replaces the previous rule (latest wins), so
    a downstream project can override a stock rule by reusing its id.
    """
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    _RULES[cls.id] = cls
    return cls


def all_rules() -> dict[str, type[Rule]]:
    """The registry, id -> rule class (import side effects included)."""
    # Importing the rules package registers the stock rules exactly
    # once; the local import avoids a cycle at module import time.
    from repro.analysis import rules  # noqa: F401

    return dict(_RULES)


def get_rule(rule_id: str) -> type[Rule]:
    """Look up one rule class by id (``KeyError`` if unknown)."""
    return all_rules()[rule_id]


def rule_ids() -> tuple[str, ...]:
    """All registered rule ids, sorted."""
    return tuple(sorted(all_rules()))
