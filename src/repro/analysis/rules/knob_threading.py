"""RPR006: every MatcherConfig knob must be validated, plumbed, and doc'd.

Each config knob (``backend``, ``candidate_pruning``,
``checkpoint_path``/``warm_start``, ...) needs the same chores: a
validator, CLI plumbing, and a ``docs/API.md`` entry.  Forgetting one
produces a knob that silently accepts garbage, cannot be reached from
the command line, or is invisible to users — drift that no single-file
rule can see.  This cross-file rule makes the checklist mechanical.

For every dataclass field of ``MatcherConfig`` (parsed from
``src/repro/core/config.py``) it requires:

- **validator** — a module-level ``validate_<field>`` function, or the
  field referenced as ``self.<field>`` inside ``__post_init__`` (the
  inline-validation spelling used by the original paper knobs);
- **CLI plumbing** — a ``--<field-with-dashes>`` flag somewhere in
  ``src/repro/cli.py``.  Two escape hatches keep this truthful:
  :data:`CLI_ALIASES` maps fields whose flag is deliberately renamed
  (``checkpoint_path`` -> ``--checkpoint``, ``warm_start`` ->
  ``--resume``), and :data:`CLI_EXEMPT` lists paper-protocol knobs
  that experiment drivers own on purpose (exposing them on ``repro
  run`` would let a CLI flag silently change a table's protocol);
- **documentation** — the field name appears in ``docs/API.md``
  (generated from the ``MatcherConfig`` docstring, so in practice
  this enforces an ``Attributes`` entry).

Findings are anchored at the field's line in ``config.py``.  A new
field that skips any chore fails the lint gate until it is threaded
or explicitly exempted here, with the exemption visible in review.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.analysis.framework import (
    Finding,
    ProjectRule,
    Severity,
    SourceFile,
    register_rule,
)

#: Config fields whose CLI flag has a different (documented) name.
CLI_ALIASES: dict[str, str] = {
    "checkpoint_path": "--checkpoint",
    "warm_start": "--resume",
}

#: Paper-protocol knobs owned by the experiment drivers, never the CLI:
#: changing them from the command line would alter a reproduced table's
#: protocol without the driver knowing.  (``threshold``/``iterations``
#: stay plumbed because ``repro stream`` exposes them.)
CLI_EXEMPT: frozenset[str] = frozenset(
    {
        "max_degree",
        "use_degree_buckets",
        "min_bucket_exponent",
        "tie_policy",
    }
)


class _ConfigSurface:
    """Everything RPR006 needs, parsed from one config module."""

    def __init__(self, tree: ast.Module, class_name: str) -> None:
        self.fields: dict[str, int] = {}
        self.validators: set[str] = set()
        self.post_init_refs: set[str] = set()
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith(
                "validate_"
            ):
                self.validators.add(node.name[len("validate_") :])
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                self._parse_class(node)

    def _parse_class(self, node: ast.ClassDef) -> None:
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                self.fields[stmt.target.id] = stmt.lineno
            if (
                isinstance(stmt, ast.FunctionDef)
                and stmt.name == "__post_init__"
            ):
                for sub in ast.walk(stmt):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                    ):
                        self.post_init_refs.add(sub.attr)


def _cli_flags(tree: ast.Module) -> set[str]:
    """Every ``--flag`` string literal in the CLI module."""
    flags: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.startswith("--"):
                flags.add(node.value)
    return flags


@register_rule
class KnobThreadingRule(ProjectRule):
    """RPR006 — see the module docstring for the full contract."""

    id = "RPR006"
    title = (
        "every MatcherConfig field needs a validator, CLI plumbing "
        "(or an explicit exemption), and a docs/API.md entry"
    )
    severity = Severity.ERROR
    hint = (
        "add validate_<field> (or a __post_init__ check), a --flag in "
        "cli.py (or a CLI_EXEMPT entry with a reason), and an "
        "Attributes line in the MatcherConfig docstring, then re-run "
        "scripts/gen_api_docs.py"
    )

    #: Paths are relative to the project root; tests override them to
    #: point the rule at synthetic mini-projects.
    def __init__(
        self,
        config_path: str = "src/repro/core/config.py",
        cli_path: str = "src/repro/cli.py",
        docs_path: str = "docs/API.md",
        class_name: str = "MatcherConfig",
    ) -> None:
        self.config_path = config_path
        self.cli_path = cli_path
        self.docs_path = docs_path
        self.class_name = class_name

    def check_project(
        self, files: Iterable[SourceFile], project_root: Path
    ) -> Iterator[Finding]:
        config_file = project_root / self.config_path
        cli_file = project_root / self.cli_path
        docs_file = project_root / self.docs_path
        if not config_file.exists():
            # Nothing to check (fixture trees without a config module).
            return
        config_tree = ast.parse(
            config_file.read_text(encoding="utf-8"),
            filename=str(config_file),
        )
        surface = _ConfigSurface(config_tree, self.class_name)
        if not surface.fields:
            return
        flags: set[str] = set()
        if cli_file.exists():
            flags = _cli_flags(
                ast.parse(
                    cli_file.read_text(encoding="utf-8"),
                    filename=str(cli_file),
                )
            )
        docs_text = (
            docs_file.read_text(encoding="utf-8")
            if docs_file.exists()
            else ""
        )
        reported_path = self._reported_path(files, project_root)
        for name, lineno in surface.fields.items():
            yield from self._check_field(
                name, lineno, surface, flags, docs_text, reported_path
            )

    def _reported_path(
        self, files: Iterable[SourceFile], project_root: Path
    ) -> str:
        """Report against the linted config file's path when present."""
        suffix = Path(self.config_path).name
        for src in files:
            if src.path.endswith(suffix) and "config" in src.path:
                return src.path
        return str(project_root / self.config_path)

    def _check_field(
        self,
        name: str,
        lineno: int,
        surface: _ConfigSurface,
        flags: set[str],
        docs_text: str,
        reported_path: str,
    ) -> Iterator[Finding]:
        at = _Anchor(reported_path, lineno)
        if (
            name not in surface.validators
            and name not in surface.post_init_refs
        ):
            yield self._field_finding(
                at,
                f"config field {name!r} has no validate_{name} "
                "function and is never checked in __post_init__",
            )
        flag = CLI_ALIASES.get(name, "--" + name.replace("_", "-"))
        if name not in CLI_EXEMPT and flag not in flags:
            yield self._field_finding(
                at,
                f"config field {name!r} has no {flag} flag in the CLI "
                "and no CLI_EXEMPT entry",
            )
        if not re.search(rf"\b{re.escape(name)}\b", docs_text):
            yield self._field_finding(
                at,
                f"config field {name!r} is not mentioned in "
                f"{self.docs_path}",
            )

    def _field_finding(self, at: "_Anchor", message: str) -> Finding:
        return Finding(
            path=at.path,
            line=at.line,
            col=0,
            rule_id=self.id,
            severity=self.severity,
            message=message,
            hint=self.hint,
        )


class _Anchor:
    """A (path, line) pair — keeps the finding helpers readable."""

    def __init__(self, path: str, line: int) -> None:
        self.path = path
        self.line = line
