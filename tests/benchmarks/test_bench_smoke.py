"""Smoke coverage for the benchmark suite itself.

The ``benchmarks/`` directory regenerates every paper table and figure,
but until now nothing in tier-1 noticed when a benchmark module rotted
(an import error or a renamed helper only surfaced in the scheduled CI
bench job).  Two layers of protection:

- **import wall** — every ``bench_*.py`` module must import cleanly,
  parametrized per file so a failure names the culprit;
- **micro runs** — representative benchmark entry points execute one
  micro-sized config end-to-end.  These carry the ``slow`` marker so
  ``-m "not slow"`` keeps the fastest loop available, while default
  runs (and CI) still execute them.
"""

import importlib.util
import pathlib
import sys

import pytest

BENCHMARKS_DIR = (pathlib.Path(__file__).resolve().parents[2] / "benchmarks")
BENCH_FILES = sorted(BENCHMARKS_DIR.glob("bench_*.py"))


def load_bench_module(path: pathlib.Path):
    """Import a benchmark file under a smoke-test namespace."""
    name = f"bench_smoke_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(name, None)
    return module


def test_benchmark_directory_found():
    assert BENCH_FILES, f"no bench_*.py under {BENCHMARKS_DIR}"


@pytest.mark.parametrize(
    "path", BENCH_FILES, ids=[p.stem for p in BENCH_FILES]
)
def test_imports_cleanly(path):
    """Every benchmark module imports without executing a workload."""
    module = load_bench_module(path)
    assert module.__doc__, f"{path.stem} lost its module docstring"


@pytest.mark.slow
def test_micro_table2_ladder():
    """The Table-2 driver the R-MAT benches wrap, at micro scale."""
    from repro.experiments import table2_rmat

    result = table2_rmat.run(scales=(6, 7), edge_factor=8, seed=0)
    assert len(result.rows) == 2
    assert result.rows[0]["relative_time"] == 1.0


@pytest.mark.slow
def test_micro_million_rung_driver():
    """bench_blocked's million-rung driver, at micro scale."""
    module = load_bench_module(BENCHMARKS_DIR / "bench_blocked.py")
    row = module.million_rung(scale=8, edge_factor=4)
    assert row["nodes"] > 0
    assert "peak_rss_mb" in row


@pytest.mark.slow
def test_micro_incremental_warm_vs_cold():
    """bench_incremental's carve+apply loop at micro scale, links asserted."""
    from repro.core.config import MatcherConfig
    from repro.core.matcher import UserMatching
    from repro.incremental import GraphDelta, IncrementalReconciler

    module = load_bench_module(BENCHMARKS_DIR / "bench_incremental.py")
    pair, seeds = module.build_workload(n=400, seed=1)
    base1, base2, stream1, stream2 = module.carve(pair, 0.05)
    engine = IncrementalReconciler(MatcherConfig(**module._CONFIG))
    engine.start(base1, base2, seeds)
    outcome = engine.apply(
        GraphDelta.build(added_edges1=stream1, added_edges2=stream2)
    )
    cold = UserMatching(
        MatcherConfig(backend="csr", **module._CONFIG)
    ).run(pair.g1, pair.g2, seeds)
    assert outcome.result.links == cold.links
