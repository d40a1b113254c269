"""Sanitizer run: the compiled kernels under AddressSanitizer and UBSan.

The C kernels are loaded through ctypes and index their arrays with no
bounds checks; the wrapper's input checks are the only guard.  This run
builds the kernels with ``REPRO_NATIVE_CC="cc -fsanitize=address,undefined"``
into a fresh ``REPRO_NATIVE_DIR`` and replays the pruned-join wall
(``tests/properties/test_pruned_join.py``: random graphs plus the
adversarial CSR shapes) in a subprocess that preloads the ASan runtime,
so any out-of-bounds access or undefined behaviour inside the join
aborts the run.  A canary first proves the sanitizer is live: with the
wrapper's mask check patched out, a short eligibility mask must be
reported as a heap overflow.

Skipped when the C compiler has no ASan runtime.  Run on its own with
``python -m pytest -q tests/core/test_native_sanitizer.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parents[2]
SANITIZE_CC = "cc -fsanitize=address,undefined"


def asan_runtime() -> "str | None":
    """Path of the compiler's ASan runtime, or ``None`` if it has none."""
    try:
        proc = subprocess.run(
            ["cc", "-print-file-name=libasan.so"],
            capture_output=True,
            text=True,
            timeout=60,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    path = proc.stdout.strip()
    # Without the runtime, cc echoes the bare file name back.
    if proc.returncode != 0 or not os.path.isabs(path):
        return None
    return path if os.path.exists(path) else None


@pytest.fixture(scope="module")
def sanitized_env(tmp_path_factory):
    runtime = asan_runtime()
    if runtime is None:
        pytest.skip("the C compiler has no AddressSanitizer runtime")
    env = dict(os.environ)
    env.pop("REPRO_NATIVE_DISABLE", None)
    env.update(
        REPRO_NATIVE_CC=SANITIZE_CC,
        REPRO_NATIVE_DIR=str(tmp_path_factory.mktemp("asan-build")),
        LD_PRELOAD=runtime,
        # The interpreter itself is not instrumented: its arena memory
        # alive at exit is not a kernel leak.
        ASAN_OPTIONS="detect_leaks=0:abort_on_error=0",
        UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1",
        PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep),
    )
    return env


def run_python(code: str, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )


#: Loads the sanitized build (refusing a silent csr fallback, which
#: would skip every native test) and reads past a one-byte mask.
CANARY = """
from unittest import mock
import numpy as np
from repro.core import native
from repro.graphs.graph import Graph
from repro.graphs.pair_index import GraphPairIndex

nk = native.load_native_library(warn=False)
assert nk is not None, "the sanitized kernels did not load"
g = Graph.from_edges([(0, i) for i in range(1, 200)])
index = GraphPairIndex(g, g.copy())
link = np.zeros(1, dtype=np.int64)
with mock.patch.object(native, "check_eligibility_masks", lambda *a: None):
    nk.witness_join(
        index.csr1.indptr, index.csr1.indices,
        index.csr2.indptr, index.csr2.indices,
        link, link.copy(),
        np.ones(index.n1, dtype=bool), np.ones(1, dtype=bool),
        index.n1, index.n2,
    )
print("no overflow reported")
"""

WALL = """
import os
import sys
import pytest
from repro.core import native

nk = native.load_native_library(warn=False)
assert nk is not None, "the sanitized kernels did not load"
assert nk.lib_path.parent.samefile(os.environ["REPRO_NATIVE_DIR"])
sys.exit(pytest.main([
    "-q", "-p", "no:cacheprovider", "tests/properties/test_pruned_join.py",
]))
"""


def test_sanitizer_catches_an_overflow(sanitized_env):
    proc = run_python(CANARY, sanitized_env)
    assert proc.returncode != 0, proc.stdout + proc.stderr
    assert "AddressSanitizer: heap-buffer-overflow" in proc.stderr


def test_pruned_join_wall_is_clean(sanitized_env):
    proc = run_python(WALL, sanitized_env)
    report = proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.returncode == 0, report
    assert "Sanitizer" not in proc.stderr, report
    assert "runtime error" not in proc.stderr, report
    assert " passed" in proc.stdout and " skipped" not in proc.stdout, report
