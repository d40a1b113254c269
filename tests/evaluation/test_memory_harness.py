"""Harness memory accounting: the shared ``peak_mb`` schema.

The harness, the bench JSONs, and the CI regression gate all report
peak memory under the same ``peak_mb`` (MiB) key; these tests pin the
harness side — tracking off by default (tracing costs wall-clock),
opt-in per trial, and recorded next to the other row columns.
"""

import numpy as np
import pytest

from repro.evaluation.harness import compare_matchers, run_trial
from repro.generators.preferential_attachment import (
    preferential_attachment_graph,
)
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds
from repro.utils.memory import MemoryTracker, peak_rss_mb


@pytest.fixture(scope="module")
def workload():
    g = preferential_attachment_graph(150, 4, seed=0)
    pair = independent_copies(g, 0.6, seed=1)
    seeds = sample_seeds(pair, 0.1, seed=2)
    return pair, seeds


class TestMemoryTracker:
    def test_measures_allocation_peak(self):
        with MemoryTracker() as tracker:
            buf = np.ones(2 * 1024 * 1024, dtype=np.uint8)  # 2 MiB
            del buf
        assert tracker.peak_mb >= 2.0

    def test_nested_trackers_compose(self):
        with MemoryTracker() as outer:
            with MemoryTracker() as inner:
                buf = np.ones(1024 * 1024, dtype=np.uint8)
                del buf
        assert inner.peak_mb >= 1.0
        assert outer.peak_mb >= 1.0
        # Tracing was fully torn down by the outermost tracker.
        import tracemalloc

        assert not tracemalloc.is_tracing()

    def test_peak_rss_is_positive_on_posix(self):
        rss = peak_rss_mb()
        assert rss is None or rss > 0


class TestRunTrialMemory:
    def test_untracked_by_default(self, workload):
        pair, seeds = workload
        trial = run_trial(pair, seeds)
        assert trial.peak_mb is None
        assert "peak_mb" not in trial.row()

    def test_tracked_adds_peak_mb_column(self, workload):
        pair, seeds = workload
        trial = run_trial(pair, seeds, track_memory=True)
        assert trial.peak_mb is not None
        assert trial.peak_mb >= 0
        assert trial.row()["peak_mb"] == round(trial.peak_mb, 2)

class TestCompareMatchersMemory:
    def test_backend_and_peak_columns(self, workload):
        pair, seeds = workload
        trials = compare_matchers(
            pair,
            seeds,
            ["user-matching", "common-neighbors"],
            backend="csr",
            track_memory=True,
        )
        for trial in trials:
            row = trial.row()
            assert row["backend"] == "csr"
            assert "peak_mb" in row

    def test_untracked_rows_have_no_peak_column(self, workload):
        pair, seeds = workload
        trials = compare_matchers(pair, seeds, ["degree-sequence"])
        assert "peak_mb" not in trials[0].row()

    def test_outer_peak_survives_nested_tracker(self):
        """A nested tracker's reset must not erase the outer peak."""
        with MemoryTracker() as outer:
            spike = np.ones(8 * 1024 * 1024, dtype=np.uint8)  # 8 MiB
            del spike
            with MemoryTracker() as inner:
                small = np.ones(1024 * 1024, dtype=np.uint8)  # 1 MiB
                del small
        assert inner.peak_mb == pytest.approx(1.0, abs=0.5)
        assert outer.peak_mb >= 7.5  # the 8 MiB spike, not the 1 MiB
