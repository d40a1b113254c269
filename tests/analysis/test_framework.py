"""Framework-level tests: registry, suppressions, engine, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main as lint_main
from repro.analysis.engine import (
    collect_files,
    find_project_root,
    run_lint,
)
from repro.analysis.framework import (
    Finding,
    Severity,
    SourceFile,
    all_rules,
    get_rule,
    module_parts,
    rule_ids,
)

REPO = Path(__file__).resolve().parents[2]

BAD_CORE = ("import time\n" "def stamp():\n" "    return time.time()\n")


class TestRegistry:
    def test_all_stock_rules_registered(self):
        assert rule_ids() == (
            "RPR001",
            "RPR002",
            "RPR003",
            "RPR005",
            "RPR006",
            "RPR007",
        )

    def test_get_rule_roundtrip(self):
        for rule_id, cls in all_rules().items():
            assert get_rule(rule_id) is cls
            rule = cls()
            assert rule.id == rule_id
            assert rule.title
            assert rule.hint

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            get_rule("RPR999")


class TestModuleParts:
    def test_src_prefix_stripped(self):
        assert module_parts("src/repro/core/kernels.py") == (
            "repro",
            "core",
            "kernels.py",
        )

    def test_non_package_path_never_matches_repro_scope(self):
        parts = module_parts("benchmarks/bench_matcher.py")
        assert parts[0] != "repro"


class TestSuppressions:
    def test_targeted_suppression_swallows_finding(self, tmp_path):
        path = tmp_path / "src" / "repro" / "core" / "x.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "import time\n"
            "def stamp():\n"
            "    return time.time()"
            "  # repro-lint: ignore[RPR001] wall time is the payload\n"
        )
        report = run_lint([path], project_root=tmp_path)
        assert report.findings == []
        assert report.suppressed == 1

    def test_suppression_for_other_rule_does_not_apply(self, tmp_path):
        path = tmp_path / "src" / "repro" / "core" / "x.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "import time\n"
            "def stamp():\n"
            "    return time.time()  # repro-lint: ignore[RPR005]\n"
        )
        report = run_lint([path], project_root=tmp_path)
        assert [f.rule_id for f in report.findings] == ["RPR001"]
        assert report.suppressed == 0

    def test_bare_suppression_covers_every_rule(self):
        src = SourceFile.from_source(
            "x = 1  # repro-lint: ignore\n", "src/repro/core/x.py"
        )
        assert src.is_suppressed("RPR001", 1)
        assert src.is_suppressed("RPR005", 1)
        assert not src.is_suppressed("RPR001", 2)


class TestEngine:
    def test_select_restricts_rules(self, tmp_path):
        path = tmp_path / "src" / "repro" / "core" / "x.py"
        path.parent.mkdir(parents=True)
        path.write_text(BAD_CORE)
        report = run_lint([path], select={"RPR005"}, project_root=tmp_path)
        assert report.rules_run == ("RPR005",)
        assert report.findings == []
        full = run_lint([path], project_root=tmp_path)
        assert [f.rule_id for f in full.findings] == ["RPR001"]

    def test_parse_error_reported_as_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        report = run_lint([path], project_root=tmp_path)
        assert report.parse_errors == 1
        assert report.exit_code == 1
        assert report.findings[0].rule_id == "PARSE"

    def test_findings_sorted_by_location(self, tmp_path):
        path = tmp_path / "src" / "repro" / "core" / "x.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "import time\n"
            "import numpy as np\n"
            "def f(n):\n"
            "    t = time.time()\n"
            "    indptr = np.zeros(n)\n"
            "    return t, indptr\n"
        )
        report = run_lint([path], project_root=tmp_path)
        assert [
            (f.rule_id, f.line) for f in report.findings
        ] == [("RPR001", 4), ("RPR005", 5)]

    def test_collect_files_skips_cache_dirs(self, tmp_path):
        keep = tmp_path / "pkg" / "mod.py"
        keep.parent.mkdir()
        keep.write_text("x = 1\n")
        skip = tmp_path / "pkg" / "__pycache__" / "mod.py"
        skip.parent.mkdir()
        skip.write_text("x = 1\n")
        assert collect_files([tmp_path]) == [keep]

    def test_find_project_root_walks_to_marker(self, tmp_path):
        (tmp_path / "setup.py").write_text("")
        nested = tmp_path / "src" / "pkg"
        nested.mkdir(parents=True)
        assert find_project_root(nested) == tmp_path

    def test_finding_render_format(self):
        finding = Finding(
            path="src/x.py",
            line=3,
            col=4,
            rule_id="RPR001",
            severity=Severity.ERROR,
            message="boom",
            hint="fix it",
        )
        assert finding.render() == (
            "src/x.py:3:4: RPR001 error: boom (hint: fix it)"
        )


class TestCli:
    def _bad_tree(self, tmp_path) -> Path:
        path = tmp_path / "src" / "repro" / "core" / "x.py"
        path.parent.mkdir(parents=True)
        path.write_text(BAD_CORE)
        return path

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "src" / "repro" / "core" / "x.py"
        path.parent.mkdir(parents=True)
        path.write_text("x = 1\n")
        assert lint_main([str(tmp_path / "src")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one_with_rendered_lines(self, tmp_path, capsys):
        path = self._bad_tree(tmp_path)
        assert lint_main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "RPR001" in out
        assert ":3:" in out

    def test_json_format(self, tmp_path, capsys):
        path = self._bad_tree(tmp_path)
        assert lint_main([str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        assert payload["findings"][0]["rule"] == "RPR001"
        assert payload["findings"][0]["line"] == 3

    def test_unknown_rule_id_is_usage_error(self, tmp_path, capsys):
        path = self._bad_tree(tmp_path)
        assert lint_main([str(path), "--select", "RPR999"]) == 2
        assert "unknown rule ids" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert lint_main([str(missing)]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in rule_ids():
            assert rule_id in out

    def test_select_filters_findings(self, tmp_path):
        path = self._bad_tree(tmp_path)
        assert lint_main([str(path), "--select", "RPR005"]) == 0
