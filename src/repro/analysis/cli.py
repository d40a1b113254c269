"""Command-line front end: ``repro lint`` / ``python -m repro.analysis``.

Exit codes follow lint convention: 0 clean, 1 findings, 2 usage
errors (unknown rule ids, missing paths).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.engine import run_lint
from repro.analysis.framework import all_rules

__all__ = ["add_lint_arguments", "run_lint_command", "main"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to *parser* (shared with ``repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files/directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        dest="output_format",
        help="findings as human-readable lines (default) or JSON",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--project-root",
        default=None,
        metavar="DIR",
        help=(
            "root for cross-file rules (default: auto-detected from "
            "the first path via setup.py/pyproject.toml/.git)"
        ),
    )


def _list_rules() -> int:
    for rule_id, cls in sorted(all_rules().items()):
        rule = cls()
        print(f"{rule_id}  [{rule.severity.value}]  {rule.title}")
    return 0


def run_lint_command(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        return _list_rules()
    select: set[str] | None = None
    if args.select is not None:
        select = {
            part.strip()
            for part in args.select.split(",")
            if part.strip()
        }
        unknown = select - set(all_rules())
        if unknown:
            print(
                f"unknown rule ids: {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(all_rules()))}",
                file=sys.stderr,
            )
            return 2
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    report = run_lint(
        args.paths, select=select, project_root=args.project_root
    )
    if args.output_format == "json":
        print(
            json.dumps(
                {
                    "findings": [
                        {
                            "path": f.path,
                            "line": f.line,
                            "col": f.col,
                            "rule": f.rule_id,
                            "severity": f.severity.value,
                            "message": f.message,
                            "hint": f.hint,
                        }
                        for f in report.findings
                    ],
                    "files_checked": report.files_checked,
                    "rules_run": list(report.rules_run),
                    "suppressed": report.suppressed,
                },
                indent=2,
            )
        )
    else:
        for finding in report.findings:
            print(finding.render())
        print(report.summary())
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.analysis``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST invariant checker: determinism, ordered iteration, "
            "float accumulation, dtype discipline, native boundary and "
            "config-knob threading (see docs/LINT_RULES.md)"
        ),
    )
    add_lint_arguments(parser)
    return run_lint_command(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
