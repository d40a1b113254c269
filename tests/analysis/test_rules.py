"""Per-rule fixture tests: each bad fixture fires at its marked lines.

Fixtures under ``fixtures/`` carry ``# expect: RPR00x`` markers naming
the rule id(s) expected on that exact line; the assertions here compare
the *full* finding set against the full marker set, so a rule that
over- or under-reports fails loudly, with line numbers.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.framework import SourceFile
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.dtype_discipline import DtypeDisciplineRule
from repro.analysis.rules.float_accumulation import FloatAccumulationRule
from repro.analysis.rules.native_boundary import NativeBoundaryRule
from repro.analysis.rules.ordered_iteration import OrderedIterationRule

FIXTURES = Path(__file__).parent / "fixtures"

_EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<ids>[A-Z0-9, ]+)")


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def expected_findings(name: str) -> list[tuple[str, int]]:
    """``(rule_id, line)`` pairs declared by ``# expect:`` markers."""
    out: list[tuple[str, int]] = []
    for lineno, line in enumerate(fixture_text(name).splitlines(), start=1):
        match = _EXPECT_RE.search(line)
        if match is None:
            continue
        for rule_id in match.group("ids").split(","):
            out.append((rule_id.strip(), lineno))
    assert out, f"fixture {name} declares no expectations"
    return sorted(out)


def run_rule(rule, name: str, virtual_path: str) -> list[tuple[str, int]]:
    src = SourceFile.from_source(fixture_text(name), virtual_path)
    assert rule.applies_to(virtual_path), virtual_path
    return sorted((f.rule_id, f.line) for f in rule.check(src))


FILE_RULE_CASES = [
    pytest.param(
        DeterminismRule(),
        "determinism",
        "src/repro/core/fixture_determinism.py",
        id="RPR001",
    ),
    pytest.param(
        OrderedIterationRule(),
        "ordered_iteration",
        "src/repro/core/fixture_ordered_iteration.py",
        id="RPR002",
    ),
    pytest.param(
        FloatAccumulationRule(),
        "float_accumulation",
        "src/repro/core/fixture_float_accumulation.py",
        id="RPR003",
    ),
    pytest.param(
        DtypeDisciplineRule(),
        "dtype_discipline",
        "src/repro/graphs/fixture_dtype_discipline.py",
        id="RPR005",
    ),
    pytest.param(
        NativeBoundaryRule(),
        "native_boundary",
        "src/repro/core/fixture_native_boundary.py",
        id="RPR007",
    ),
]


@pytest.mark.parametrize("rule,stem,virtual_path", FILE_RULE_CASES)
class TestFixturePairs:
    def test_bad_fixture_fires_at_marked_lines(self, rule, stem, virtual_path):
        got = run_rule(rule, f"bad_{stem}.py", virtual_path)
        assert got == expected_findings(f"bad_{stem}.py")

    def test_ok_fixture_is_clean(self, rule, stem, virtual_path):
        assert run_rule(rule, f"ok_{stem}.py", virtual_path) == []

    def test_findings_carry_hint_and_severity(self, rule, stem, virtual_path):
        src = SourceFile.from_source(
            fixture_text(f"bad_{stem}.py"), virtual_path
        )
        for finding in rule.check(src):
            assert finding.rule_id == rule.id
            assert finding.hint, "every finding needs autofix guidance"
            assert finding.severity is rule.severity


class TestScoping:
    """Path-scoped rules must not run outside their packages."""

    @pytest.mark.parametrize(
        "rule,outside",
        [
            (DeterminismRule(), "src/repro/experiments/fig2_pa.py"),
            (OrderedIterationRule(), "src/repro/graphs/graph.py"),
            (FloatAccumulationRule(), "src/repro/evaluation/metrics.py"),
            (DtypeDisciplineRule(), "src/repro/mapreduce/engine.py"),
            (NativeBoundaryRule(), "src/repro/baselines/degree_matcher.py"),
        ],
    )
    def test_out_of_scope_path_is_skipped(self, rule, outside):
        assert not rule.applies_to(outside)

    def test_non_repro_tree_never_matches_scoped_rules(self):
        assert not DeterminismRule().applies_to(
            "tests/analysis/fixtures/bad_determinism.py"
        )


class TestRuleEdgeCases:
    def test_seeded_random_instance_methods_allowed(self):
        src = SourceFile.from_source(
            "import random\n"
            "def pick(seed, items):\n"
            "    rng = random.Random(seed)\n"
            "    return rng.choice(items)\n",
            "src/repro/core/x.py",
        )
        assert list(DeterminismRule().check(src)) == []

    def test_rebound_set_name_is_untracked(self):
        src = SourceFile.from_source(
            "def f(edges):\n"
            "    pending = set(edges)\n"
            "    pending = sorted(pending)\n"
            "    return [x for x in pending]\n",
            "src/repro/core/x.py",
        )
        assert list(OrderedIterationRule().check(src)) == []

    def test_int_wrapped_sum_requires_direct_wrap(self):
        src = SourceFile.from_source(
            "def f(vals):\n"
            "    return int(1 + sum(vals))\n",
            "src/repro/core/x.py",
        )
        findings = list(FloatAccumulationRule().check(src))
        assert [f.line for f in findings] == [2]

    def test_dtype_rule_ignores_non_numpy_calls(self):
        src = SourceFile.from_source(
            "def f(values):\n"
            "    indices = list(values)\n"
            "    return indices\n",
            "src/repro/graphs/x.py",
        )
        assert list(DtypeDisciplineRule().check(src)) == []

    def test_tuple_target_with_index_name_checked(self):
        src = SourceFile.from_source(
            "import numpy as np\n"
            "def f(n):\n"
            "    indptr, extra = np.zeros(n), 0\n"
            "    return indptr, extra\n",
            "src/repro/graphs/x.py",
        )
        # Conservative: any index-like name in the target tuple makes
        # the (single, un-dtyped) numpy construction on the rhs suspect
        # only when the rhs itself is an np ctor call — a tuple rhs is
        # not, so this stays clean rather than guessing element-wise.
        assert list(DtypeDisciplineRule().check(src)) == []
