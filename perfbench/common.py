"""Shared helpers of the benchmark: checkout paths, statistics, memory."""

from __future__ import annotations

import math
import os
import statistics
import sys
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of this package).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives under here (git-ignored).
BUILD = ROOT / ".bench_build"

#: The end-to-end metrics every workload prints with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "reconcile_s": "s",
    "reconcile_peak_mb": "MB",
    "precision": "ratio",
    "recall": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here: the run prints no result, exits 2."""


class OperationFailed(Exception):
    """An operation of the program went wrong (a crash, a refused boot).

    The run stops there and reports it as one more failed operation.
    """


class Tally:
    """Operations attempted and failed so far in one run.

    An operation counts as attempted before it starts, so that one which
    raises is already in ``attempted`` when the run adds it to ``failed``.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool) -> bool:
        """Count a finished operation that ended *ok* or wrong."""
        self.failed += not ok
        return ok


def prepare_environment() -> dict[str, str]:
    """Point the program at the checkout and keep every write inside it.

    Returns the environment child processes should run with.  The
    compiled-kernel cache and temporary files go under ``.bench_build``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"no program sources at {SRC}; run from a full checkout"
        )
    native_dir = BUILD / "native"
    tmp_dir = BUILD / "tmp"
    native_dir.mkdir(parents=True, exist_ok=True)
    tmp_dir.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_DIR"] = str(native_dir)
    os.environ["TMPDIR"] = str(tmp_dir)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts, on one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (``q`` in ``[0, 100]``) of *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: "list[float]") -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


class PeakMemoryProbe:
    """Peak resident memory of one process over a window.

    ``reset()`` clears the kernel's high-water mark (``VmHWM``) by
    writing ``5`` to ``/proc/<pid>/clear_refs``; ``peak_mb()`` reads it
    back.  Without a writable ``clear_refs`` the mark could only be the
    process-lifetime peak, so the probe refuses instead of reporting it.
    """

    def __init__(self, pid: "int | str" = "self") -> None:
        self.proc = Path("/proc") / str(pid)
        self._armed = False

    def reset(self) -> None:
        if not self.proc.exists():
            raise OperationFailed(f"process {self.proc.name} has exited")
        try:
            (self.proc / "clear_refs").write_text("5")
        except OSError as exc:
            raise BenchmarkError(
                f"cannot reset the peak-memory mark via "
                f"{self.proc / 'clear_refs'} ({exc}); refusing to report "
                "a process-lifetime peak"
            ) from None
        self._armed = True

    def peak_mb(self) -> float:
        if not self._armed:
            raise BenchmarkError("peak_mb() before reset()")
        for line in (self.proc / "status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchmarkError(f"no VmHWM in {self.proc / 'status'}")
