"""The million-node rung: RMAT20 end to end, peak RSS recorded.

``test_bench_million_rung`` runs :func:`repro.experiments.table2_rmat.
run_million` on its defaults — RMAT20 (2^20 = 1,048,576 addressable
nodes) on the default backend's serial sweep — and records the row
(nodes, edges, quality, wall-clock) plus the process peak RSS in the
benchmark JSON, committed as ``BENCH_blocked.json``.  It only runs when
``REPRO_BENCH_MILLION=1``: it needs minutes and gigabytes, which would
starve the CI bench-smoke job.  The nightly workflow runs the same
driver at a smoke scale instead, and EXPERIMENTS.md records the full
rung's measured numbers.
"""

import os

import pytest

from repro.experiments import table2_rmat
from repro.utils.memory import peak_rss_mb


def million_rung(scale=20, edge_factor=8, seed=0):
    """The million-node rung via the Table-2 driver; returns its row.

    RMAT20 addresses 2^20 = 1,048,576 nodes; the row records nodes,
    edges, quality, wall-clock, and the process peak RSS.
    """
    result = table2_rmat.run_million(
        scale=scale, edge_factor=edge_factor, seed=seed
    )
    return result.rows[0]


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_MILLION") != "1",
    reason="minutes + GiB: opt in with REPRO_BENCH_MILLION=1",
)
def test_bench_million_rung(benchmark):
    """RMAT20 on the driver's defaults; peak RSS recorded in the JSON."""
    row = benchmark.pedantic(
        million_rung,
        kwargs=dict(scale=20, edge_factor=8),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        {key: row[key] for key in sorted(row) if row[key] is not None}
    )
    rss = peak_rss_mb()
    if rss is not None:
        benchmark.extra_info["process_peak_rss_mb"] = round(rss, 1)
    assert row["nodes"] > 1_000_000
    assert row["correct_pairs"] > 0
