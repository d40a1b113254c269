"""Self-hosted static analysis: the ``repro lint`` invariant checker.

The runtime equivalence walls prove that what was written is
deterministic; this package rejects the patterns that would make it
nondeterministic *before* they run.  Six project-specific rules
(RPR001–RPR003 and RPR005–RPR007, see :mod:`repro.analysis.rules` and
``docs/LINT_RULES.md``) walk the AST of every source file, one of them
a cross-file rule that keeps ``MatcherConfig`` knobs validated, plumbed
through the CLI, and documented.

Programmatic use::

    from repro.analysis import run_lint

    report = run_lint(["src"])
    assert not report.findings, report.findings

Command line::

    repro lint src/
    python -m repro.analysis src/ --select RPR001,RPR005 --format json

New rules subclass :class:`~repro.analysis.framework.FileRule` (or
:class:`~repro.analysis.framework.ProjectRule` for cross-file checks)
and register with :func:`~repro.analysis.framework.register_rule`.
"""

from repro.analysis.engine import LintReport, run_lint
from repro.analysis.framework import (
    FileRule,
    Finding,
    ProjectRule,
    Rule,
    Severity,
    SourceFile,
    all_rules,
    register_rule,
)

__all__ = [
    "FileRule",
    "Finding",
    "LintReport",
    "ProjectRule",
    "Rule",
    "Severity",
    "SourceFile",
    "all_rules",
    "register_rule",
    "run_lint",
]
