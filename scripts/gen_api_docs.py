#!/usr/bin/env python
"""Generate ``docs/API.md`` and the README matcher table from source.

Documentation that is typed twice rots once: the README's matcher list
used to drift from the registry, and there was no reference page at
all.  This script derives both from the code itself — signatures via
:mod:`inspect`, bodies from the docstrings, the matcher table straight
from :mod:`repro.registry` — so the only way to change the docs is to
change the code.

Usage::

    python scripts/gen_api_docs.py            # (re)write the files
    python scripts/gen_api_docs.py --check    # exit 1 if anything is stale

CI runs ``--check`` in the build-docs job; a red X there means "re-run
the generator and commit the result".  Only the Python standard library
and the package itself are imported.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

API_PATH = REPO / "docs" / "API.md"
README_PATH = REPO / "README.md"

TABLE_BEGIN = "<!-- BEGIN GENERATED MATCHER TABLE (scripts/gen_api_docs.py) -->"
TABLE_END = "<!-- END GENERATED MATCHER TABLE -->"

#: The documented API surface: (section, [(title, "module:qualname")]).
SECTIONS: list[tuple[str, list[tuple[str, str]]]] = [
    (
        "One-call reconciliation",
        [
            ("repro.reconcile", "repro.core.pipeline:reconcile"),
        ],
    ),
    (
        "Configuration",
        [
            ("repro.MatcherConfig", "repro.core.config:MatcherConfig"),
            ("repro.TiePolicy", "repro.core.config:TiePolicy"),
        ],
    ),
    (
        "Matchers",
        [
            ("repro.UserMatching", "repro.core.matcher:UserMatching"),
            (
                "repro.UserMatching.run",
                "repro.core.matcher:UserMatching.run",
            ),
            ("repro.Reconciler", "repro.core.reconciler:Reconciler"),
            (
                "repro.Reconciler.run",
                "repro.core.reconciler:Reconciler.run",
            ),
        ],
    ),
    (
        "Matcher registry",
        [
            (
                "repro.register_matcher",
                "repro.registry:register_matcher",
            ),
            ("repro.get_matcher", "repro.registry:get_matcher"),
            ("repro.matcher_names", "repro.registry:matcher_names"),
            (
                "repro.available_matchers",
                "repro.registry:available_matchers",
            ),
        ],
    ),
    (
        "Evaluation harness",
        [
            ("repro.run_trial", "repro.evaluation.harness:run_trial"),
            (
                "repro.compare_matchers",
                "repro.evaluation.harness:compare_matchers",
            ),
            ("repro.evaluate", "repro.evaluation.metrics:evaluate"),
        ],
    ),
    (
        "Incremental reconciliation",
        [
            (
                "repro.incremental.GraphDelta",
                "repro.incremental.delta:GraphDelta",
            ),
            (
                "repro.incremental.split_edge_stream",
                "repro.incremental.delta:split_edge_stream",
            ),
            (
                "repro.incremental.delta_between",
                "repro.incremental.delta:delta_between",
            ),
            (
                "repro.incremental.DeltaIndex",
                "repro.incremental.delta_index:DeltaIndex",
            ),
            (
                "repro.incremental.IncrementalReconciler",
                "repro.incremental.engine:IncrementalReconciler",
            ),
            (
                "IncrementalReconciler.start",
                "repro.incremental.engine:IncrementalReconciler.start",
            ),
            (
                "IncrementalReconciler.apply",
                "repro.incremental.engine:IncrementalReconciler.apply",
            ),
            (
                "IncrementalReconciler.save_checkpoint",
                "repro.incremental.engine:"
                "IncrementalReconciler.save_checkpoint",
            ),
            (
                "IncrementalReconciler.resume",
                "repro.incremental.engine:IncrementalReconciler.resume",
            ),
            (
                "repro.incremental.DeltaOutcome",
                "repro.incremental.engine:DeltaOutcome",
            ),
            (
                "repro.incremental.stream.run_stream",
                "repro.incremental.stream:run_stream",
            ),
        ],
    ),
    (
        "Serving",
        [
            (
                "repro.serving.ReconciliationService",
                "repro.serving.service:ReconciliationService",
            ),
            (
                "ReconciliationService.submit",
                "repro.serving.service:ReconciliationService.submit",
            ),
            (
                "ReconciliationService.resume",
                "repro.serving.service:ReconciliationService.resume",
            ),
            (
                "repro.serving.ReconciliationServer",
                "repro.serving.server:ReconciliationServer",
            ),
            (
                "repro.serving.ServerThread",
                "repro.serving.server:ServerThread",
            ),
            (
                "repro.serving.ServingClient",
                "repro.serving.client:ServingClient",
            ),
            (
                "repro.serving.AdmissionError",
                "repro.serving.service:AdmissionError",
            ),
            (
                "repro.serving.ReplicaService",
                "repro.serving.replica:ReplicaService",
            ),
            (
                "ReplicaService.follow",
                "repro.serving.replica:ReplicaService.follow",
            ),
            (
                "repro.serving.ReplicationStream",
                "repro.serving.replication:ReplicationStream",
            ),
            (
                "repro.serving.DeltaLogCursor",
                "repro.serving.replication:DeltaLogCursor",
            ),
            (
                "repro.serving.ReadOnlyReplica",
                "repro.serving.replica:ReadOnlyReplica",
            ),
        ],
    ),
    (
        "Static analysis",
        [
            (
                "repro.analysis.run_lint",
                "repro.analysis.engine:run_lint",
            ),
            (
                "repro.analysis.LintReport",
                "repro.analysis.engine:LintReport",
            ),
            (
                "repro.analysis.Finding",
                "repro.analysis.framework:Finding",
            ),
            (
                "repro.analysis.FileRule",
                "repro.analysis.framework:FileRule",
            ),
            (
                "repro.analysis.ProjectRule",
                "repro.analysis.framework:ProjectRule",
            ),
            (
                "repro.analysis.register_rule",
                "repro.analysis.framework:register_rule",
            ),
            (
                "repro.analysis.all_rules",
                "repro.analysis.framework:all_rules",
            ),
        ],
    ),
    (
        "Link persistence",
        [
            (
                "repro.core.links_io.write_links",
                "repro.core.links_io:write_links",
            ),
            (
                "repro.core.links_io.read_links",
                "repro.core.links_io:read_links",
            ),
            (
                "repro.core.links_io.LinkStore",
                "repro.core.links_io:LinkStore",
            ),
            (
                "repro.core.links_io.save_checkpoint",
                "repro.core.links_io:save_checkpoint",
            ),
            (
                "repro.core.links_io.load_checkpoint",
                "repro.core.links_io:load_checkpoint",
            ),
            (
                "repro.core.links_io.encode_node_ids",
                "repro.core.links_io:encode_node_ids",
            ),
            (
                "repro.core.links_io.decode_node_ids",
                "repro.core.links_io:decode_node_ids",
            ),
        ],
    ),
]


def _resolve(spec: str):
    module_name, _, qualname = spec.partition(":")
    module = __import__(module_name, fromlist=["_"])
    obj = module
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def _anchor(title: str) -> str:
    """GitHub-style anchor for a heading (used by the in-page TOC)."""
    out = []
    for ch in title.lower():
        if ch.isalnum():
            out.append(ch)
        elif ch in " -":
            out.append("-")
    return "".join(out)


def matcher_table() -> str:
    """The registry rendered as a markdown table (sorted by name)."""
    from repro.registry import _REGISTRY  # populated by importing repro

    import repro  # noqa: F401  (side effect: fills the registry)

    lines = [
        "| matcher | class | description |",
        "| --- | --- | --- |",
    ]
    for name in sorted(_REGISTRY):
        entry = _REGISTRY[name]
        lines.append(
            f"| `{name}` | `{entry.cls.__module__}."
            f"{entry.cls.__qualname__}` | {entry.description} |"
        )
    return "\n".join(lines)


def render_api() -> str:
    """The full docs/API.md content."""
    parts = [
        "# API reference",
        "",
        "<!-- Generated by scripts/gen_api_docs.py — do not edit by "
        "hand. Re-run the script after changing any documented "
        "signature or docstring; CI's build-docs job fails when this "
        "file is stale. -->",
        "",
        "The public surface of the `repro` package: what experiments, "
        "notebooks, and downstream code are expected to import. "
        "Signatures and docstrings are extracted from the source — "
        "this page cannot drift.",
        "",
        "## Registered matchers",
        "",
        matcher_table(),
        "",
    ]
    for section, entries in SECTIONS:
        parts.append(f"## {section}")
        parts.append("")
        for title, spec in entries:
            obj = _resolve(spec)
            signature = _signature(obj)
            kind = "class" if inspect.isclass(obj) else "def"
            parts.append(f"### `{title}`")
            parts.append("")
            if signature:
                parts.append("```python")
                name = title.rsplit(".", 1)[-1]
                parts.append(f"{kind} {name}{signature}")
                parts.append("```")
                parts.append("")
            doc = inspect.getdoc(obj) or "(undocumented)"
            parts.append(doc)
            parts.append("")
    return "\n".join(parts).rstrip() + "\n"


def render_readme(readme_text: str) -> str:
    """README with the generated matcher table spliced between markers."""
    begin = readme_text.find(TABLE_BEGIN)
    end = readme_text.find(TABLE_END)
    if begin == -1 or end == -1 or end < begin:
        raise SystemExit(
            f"README.md is missing the {TABLE_BEGIN!r} / {TABLE_END!r} "
            "markers; add them where the matcher table belongs"
        )
    head = readme_text[: begin + len(TABLE_BEGIN)]
    tail = readme_text[end:]
    return f"{head}\n{matcher_table()}\n{tail}"


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        description="generate docs/API.md + the README matcher table"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the generated files are current (exit 1 if stale)",
    )
    args = parser.parse_args(argv)
    api_text = render_api()
    readme_text = render_readme(README_PATH.read_text(encoding="utf-8"))
    stale = []
    if not API_PATH.exists() or API_PATH.read_text(
        encoding="utf-8"
    ) != api_text:
        stale.append(str(API_PATH.relative_to(REPO)))
    if README_PATH.read_text(encoding="utf-8") != readme_text:
        stale.append(str(README_PATH.relative_to(REPO)))
    if args.check:
        if stale:
            print(
                "stale generated docs: "
                + ", ".join(stale)
                + " — run `python scripts/gen_api_docs.py` and commit"
            )
            return 1
        print("generated docs are current")
        return 0
    API_PATH.parent.mkdir(parents=True, exist_ok=True)
    API_PATH.write_text(api_text, encoding="utf-8")
    README_PATH.write_text(readme_text, encoding="utf-8")
    print(
        f"wrote {API_PATH.relative_to(REPO)} and refreshed the README "
        "matcher table"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
