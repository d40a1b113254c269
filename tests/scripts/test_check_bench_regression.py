"""The CI perf-regression gate, exercised on synthetic bench JSONs.

``scripts/check_bench_regression.py`` is what turns the committed
``BENCH_*.json`` files into an enforced floor; these tests pin its
contract — and the synthetic >1.5x slowdown case is the demonstration
that the gate actually fails a regressed run.
"""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = (
    pathlib.Path(__file__).resolve().parents[2]
    / "scripts"
    / "check_bench_regression.py"
)


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression", SCRIPT
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_json(path, means):
    """Write a minimal pytest-benchmark JSON with the given means."""
    data = {
        "benchmarks": [
            {
                "fullname": name,
                "name": name,
                "stats": {"mean": mean},
            }
            for name, mean in means.items()
        ]
    }
    path.write_text(json.dumps(data))
    return str(path)


class TestCompare:
    def test_identical_runs_pass(self, gate):
        means = {"a": 0.01, "b": 0.5}
        rows, regressions = gate.compare(means, dict(means), 1.5, 0.001)
        assert regressions == []
        assert all(verdict == "ok" for *_rest, verdict in rows)

    def test_synthetic_slowdown_regresses(self, gate):
        baseline = {"witness_join": 0.010}
        fresh = {"witness_join": 0.016}  # 1.6x > 1.5x
        rows, regressions = gate.compare(baseline, fresh, 1.5, 0.001)
        assert regressions == ["witness_join"]
        assert rows[0][4] == "REGRESSION"

    def test_noise_floor_tolerates_fast_benchmarks(self, gate):
        baseline = {"micro": 0.0001}  # 0.1 ms, under the 1 ms floor
        fresh = {"micro": 0.0009}  # 9x slower but pure noise
        rows, regressions = gate.compare(baseline, fresh, 1.5, 0.001)
        assert regressions == []
        assert "noise" in rows[0][4]

    def test_only_shared_benchmarks_compared(self, gate):
        baseline = {"kept": 0.01, "renamed_away": 0.01}
        fresh = {"kept": 0.01, "brand_new": 9.9}
        rows, regressions = gate.compare(baseline, fresh, 1.5, 0.001)
        assert [row[0] for row in rows] == ["kept"]
        assert regressions == []

    def test_speedups_never_fail(self, gate):
        rows, regressions = gate.compare({"a": 1.0}, {"a": 0.2}, 1.5, 0.001)
        assert regressions == []


class TestBackendColumns:
    def test_suffix_classification(self, gate):
        assert gate.backend_of("m.py::test_bench_join") == "dict"
        assert gate.backend_of("m.py::test_bench_join_csr") == "csr"
        assert gate.backend_of("m.py::test_bench_join_native") == "native"

    def test_parametrized_ids_ignored(self, gate):
        assert gate.backend_of("m.py::test_bench_scaling_csr[4]") == "csr"
        assert (
            gate.backend_of("m.py::test_bench_scaling_native[2-True]")
            == "native"
        )

    def test_report_groups_per_backend(self, gate, tmp_path, capsys):
        """A native regression is reported in its own column group."""
        means = {
            "b.py::test_bench_join": 0.020,
            "b.py::test_bench_join_csr": 0.010,
            "b.py::test_bench_join_native": 0.005,
        }
        fresh = dict(means)
        fresh["b.py::test_bench_join_csr"] = 0.002  # 5x faster
        fresh["b.py::test_bench_join_native"] = 0.009  # 1.8x slower
        base = bench_json(tmp_path / "base.json", means)
        new = bench_json(tmp_path / "fresh.json", fresh)
        assert gate.main([base, new, "--label", "cols"]) == 1
        out = capsys.readouterr().out
        assert "backend native: REGRESSION (1 of 1)" in out
        assert "backend csr: ok (1 benchmarks)" in out
        assert "backend dict: ok (1 benchmarks)" in out

    def test_new_backend_column_skipped_with_note(
        self, gate, tmp_path, capsys
    ):
        """A fresh-only column is a baseline refresh, not an error."""
        base = bench_json(
            tmp_path / "base.json", {"b.py::test_bench_join_csr": 0.010}
        )
        new = bench_json(
            tmp_path / "fresh.json",
            {
                "b.py::test_bench_join_csr": 0.010,
                "b.py::test_bench_join_native": 0.004,
            },
        )
        assert gate.main([base, new]) == 0
        out = capsys.readouterr().out
        assert "no baseline entry yet" in out
        assert "test_bench_join_native" in out


class TestPerBenchmarkFloors:
    def test_longest_matching_override_wins(self, gate):
        overrides = [
            ("bench_kernels", 0.0001),
            ("bench_kernels.py::test_bench_pack", 0.050),
        ]
        assert (
            gate.floor_for(
                "bench_kernels.py::test_bench_pack[4]", 0.001, overrides
            )
            == 0.050
        )
        assert (
            gate.floor_for(
                "bench_kernels.py::test_bench_join", 0.001, overrides
            )
            == 0.0001
        )

    def test_no_match_falls_back_to_default(self, gate):
        assert (
            gate.floor_for("bench_other.py::t", 0.001, [("zzz", 9.0)])
            == 0.001
        )

    def test_override_gates_a_sub_ms_benchmark(self, gate, tmp_path):
        """A microkernel suite can opt in below the global 1 ms floor."""
        base = bench_json(tmp_path / "base.json", {"micro": 0.0001})
        fresh = bench_json(tmp_path / "fresh.json", {"micro": 0.0009})
        assert gate.main([base, fresh]) == 0  # global floor: noise
        assert (
            gate.main([base, fresh, "--floor", "micro=0.00005"]) == 1
        )

    def test_override_silences_a_jittery_benchmark(
        self, gate, tmp_path, capsys
    ):
        """A jittery suite can raise its floor without unguarding the
        rest of the file."""
        means = {"jittery": 0.004, "steady": 0.050}
        fresh = dict(means, jittery=0.012)  # 3x, but within its floor
        base = bench_json(tmp_path / "base.json", means)
        new = bench_json(tmp_path / "fresh.json", fresh)
        assert gate.main([base, new]) == 1
        assert (
            gate.main([base, new, "--floor", "jittery=0.01"]) == 0
        )
        assert "noise (under 10 ms floor)" in capsys.readouterr().out

    def test_compare_defaults_keep_old_signature(self, gate):
        """compare() without floors behaves exactly as before."""
        rows, regressions = gate.compare(
            {"a": 0.010}, {"a": 0.016}, 1.5, 0.001
        )
        assert regressions == ["a"]
        assert rows[0][4] == "REGRESSION"

    @pytest.mark.parametrize(
        "spec", ["nonsense", "=0.1", "name=", "name=-1", "name=abc"]
    )
    def test_malformed_override_rejected(self, gate, tmp_path, spec):
        base = bench_json(tmp_path / "base.json", {"a": 0.01})
        with pytest.raises(SystemExit):
            gate.main([base, base, "--floor", spec])


class TestMainExitCodes:
    def test_ok_run_exits_zero(self, gate, tmp_path, capsys):
        base = bench_json(tmp_path / "base.json", {"a": 0.01})
        fresh = bench_json(tmp_path / "fresh.json", {"a": 0.011})
        assert gate.main([base, fresh]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "1.10x" in out

    def test_regression_exits_one_with_delta_table(
        self, gate, tmp_path, capsys
    ):
        """The acceptance demonstration: synthetic >1.5x fails CI."""
        base = bench_json(
            tmp_path / "base.json", {"join": 0.020, "select": 0.004}
        )
        fresh = bench_json(
            tmp_path / "fresh.json", {"join": 0.035, "select": 0.004}
        )
        assert gate.main([base, fresh, "--label", "synthetic"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "join" in out and "1.75x" in out
        assert "FAIL" in out

    def test_custom_threshold(self, gate, tmp_path):
        base = bench_json(tmp_path / "base.json", {"a": 0.010})
        fresh = bench_json(tmp_path / "fresh.json", {"a": 0.016})
        assert gate.main([base, fresh, "--threshold", "2.0"]) == 0
        assert gate.main([base, fresh, "--threshold", "1.5"]) == 1

    def test_disjoint_files_fail_loudly(self, gate, tmp_path, capsys):
        base = bench_json(tmp_path / "base.json", {"a": 0.01})
        fresh = bench_json(tmp_path / "fresh.json", {"b": 0.01})
        assert gate.main([base, fresh]) == 1
        assert "no shared benchmarks" in capsys.readouterr().out

    def test_unreadable_input_exits_two(self, gate, tmp_path):
        missing = str(tmp_path / "nope.json")
        fresh = bench_json(tmp_path / "fresh.json", {"a": 0.01})
        assert gate.main([missing, fresh]) == 2

    def test_real_committed_baselines_self_compare(self, gate):
        """The committed trajectory files satisfy the gate's schema."""
        repo = pathlib.Path(__file__).resolve().parents[2]
        for name in (
            "BENCH_kernels.json",
            "BENCH_blocked.json",
        ):
            path = repo / name
            assert path.exists(), f"{name} missing from the repo root"
            means = gate.load_means(str(path))
            assert means, f"{name} has no benchmarks"
            assert gate.main([str(path), str(path)]) == 0
