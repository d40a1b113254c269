"""Sharded process-pool execution of the CSR witness kernels.

This is the local analogue of the paper's MapReduce deployment (§4): the
witness join of each (iteration, bucket) round is fanned out to worker
processes over link shards, and the per-shard score tables are summed
back into one :class:`~repro.core.kernels.ArrayScores`.  The layer is
strictly an execution substrate — ``workers=N`` must produce links
bit-identical to ``workers=1``, which holds because

- witness counts are integers and addition is commutative, so the merged
  table is the exact multiset union of the shard tables regardless of
  how links were sharded, and
- shard results are merged in fixed (plan) order into a canonical
  ``np.unique``-sorted table, so even the table's row order is a pure
  function of the workload, and every downstream selector is
  order-independent anyway (all its sort keys are total).

Memory model.  The :class:`~repro.graphs.pair_index.GraphPairIndex` CSR
arrays — both ``indptr``/``indices`` pairs — are copied into
``multiprocessing.shared_memory`` blocks **once per reconciliation** when
the pool is opened; workers attach read-only numpy views at initializer
time, so per-round task payloads are only the shard's link arrays (a few
KB) and per-round eligibility masks travel through two preallocated
shared boolean buffers rather than being pickled per shard.  This is the
part that matters at scale: the graphs cross the process boundary once,
not ``O(k log D)`` times.

Fallback.  Restricted sandboxes can lack ``/dev/shm``, semaphores, or
``multiprocessing.shared_memory`` entirely.  :func:`open_witness_pool`
never raises for environmental reasons: it emits a
:class:`ParallelFallbackWarning` and returns ``None``, and every caller
treats ``None`` as "run the serial kernel" — same links, one core.
"""

from __future__ import annotations

import multiprocessing
import warnings
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from repro.core import kernels
from repro.core.kernels import ArrayScores
from repro.core.shards import plan_link_shards

if TYPE_CHECKING:
    from repro.core.native import NativeKernels
    from repro.graphs.pair_index import GraphPairIndex

try:  # pragma: no cover - import succeeds on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - restricted interpreters
    _shared_memory = None

_EMPTY = np.empty(0, dtype=np.int64)


class ParallelFallbackWarning(RuntimeWarning):
    """A worker pool could not be set up; execution continues serially.

    Emitted (never raised) by :func:`open_witness_pool` when shared
    memory or process pools are unavailable in the current environment.
    Links are unaffected — ``workers`` is a pure execution knob.
    """


@dataclass(frozen=True)
class _ArraySpec:
    """Pickled description of one shared-memory-backed array."""

    name: str
    shape: tuple[int, ...]
    dtype: str


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
#: Per-worker attachment state, set once by the pool initializer.
_WORKER_CTX: SimpleNamespace | None = None


def _init_worker(
    specs: dict[str, _ArraySpec],
    n1: int,
    n2: int,
    use_native: bool = False,
) -> None:
    """Pool initializer: attach shared segments and build array views."""
    global _WORKER_CTX
    segments: dict[str, object] = {}
    arrays: dict[str, "np.ndarray"] = {}
    try:
        for key, spec in specs.items():
            shm = _shared_memory.SharedMemory(name=spec.name)
            segments[key] = shm
            arrays[key] = np.ndarray(
                spec.shape, dtype=spec.dtype, buffer=shm.buf
            )
    except BaseException:
        # A failed attach mid-loop must not leak the earlier handles:
        # the worker survives long enough to report the initializer
        # error, and unreleased segments draw resource-tracker
        # warnings (found by lint rule RPR004).
        arrays.clear()
        for opened in segments.values():
            try:
                opened.close()
            except OSError:  # pragma: no cover - already gone
                pass
        raise
    # Duck-typed stand-in for GraphPairIndex: count_witnesses only reads
    # csr{1,2}.indptr/.indices and n1/n2.
    view = SimpleNamespace(
        csr1=SimpleNamespace(
            indptr=arrays["indptr1"], indices=arrays["indices1"]
        ),
        csr2=SimpleNamespace(
            indptr=arrays["indptr2"], indices=arrays["indices2"]
        ),
        n1=n1,
        n2=n2,
    )
    native = None
    if use_native:
        # The parent resolved (and, on failure, warned about) the
        # native handle before opening the pool; workers re-resolve
        # quietly — with a fork start the loaded library is inherited,
        # with spawn the cached shared object is reloaded.  A worker
        # that cannot load it silently runs the csr kernels, which
        # is safe because the two are link-identical.
        from repro.core.native import load_native_library

        native = load_native_library(warn=False)
    _WORKER_CTX = SimpleNamespace(
        segments=segments, arrays=arrays, view=view, native=native
    )


def _count_shard(
    task: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Run the witness kernel on one link shard inside a worker.

    Returns raw ``(left, right, score, emitted)`` arrays — not an
    :class:`ArrayScores` — so the pickled reply never drags the
    shared-memory views (or a graph) back through the pipe.
    """
    link_l, link_r = task
    ctx = _WORKER_CTX
    scores, emitted = kernels.count_witnesses(
        ctx.view,
        link_l,
        link_r,
        ctx.arrays["elig1"],
        ctx.arrays["elig2"],
        native=getattr(ctx, "native", None),
    )
    return scores.left, scores.right, scores.score, emitted


# ----------------------------------------------------------------------
# Parent-process side
# ----------------------------------------------------------------------
def merge_shard_scores(
    index: "GraphPairIndex",
    parts: "list[tuple[np.ndarray, np.ndarray, np.ndarray, int]]",
    *,
    native: "NativeKernels | None" = None,
    workspace: "kernels.ScatterWorkspace | None" = None,
) -> tuple[ArrayScores, int]:
    """Sum per-shard score tables into one canonical table.

    Thin alias of :func:`repro.core.kernels.merge_score_tables` — the
    per-worker shard merge and the memory-block merge of
    :func:`~repro.core.kernels.count_witnesses_blocked` are the same
    canonical summation, which is what makes ``blocked x workers``
    output bit-identical to the monolithic path.  *native* and
    *workspace* select the compiled and sort-free merge engines; all
    engines produce the identical table.
    """
    return kernels.merge_score_tables(
        index, parts, native=native, workspace=workspace
    )


class WitnessPool:
    """Process pool bound to one reconciliation's shared CSR arrays.

    Construction copies the index's CSR arrays into shared memory,
    allocates the two per-round eligibility buffers, and starts the
    worker pool.  :meth:`count_witnesses` is then a drop-in replacement
    for :func:`repro.core.kernels.count_witnesses` with the same
    ``(ArrayScores, emitted)`` contract.  Always :meth:`close` (or use
    as a context manager) so the shared segments are unlinked.

    Prefer :func:`open_witness_pool`, which degrades to ``None`` with a
    warning instead of raising when the environment cannot support it.
    """

    def __init__(
        self,
        index: "GraphPairIndex",
        workers: int,
        *,
        start_method: str | None = None,
        use_native: bool = False,
    ) -> None:
        if workers < 2:
            raise ValueError(f"WitnessPool needs workers >= 2, got {workers}")
        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        self.index = index
        self.workers = workers
        self._segments: list[object] = []
        self._views: dict[str, np.ndarray] = {}
        self._pool = None
        self._staged_elig: "tuple[np.ndarray, np.ndarray] | None" = None
        self._native: "NativeKernels | None" = None
        self._workspace: "kernels.ScatterWorkspace | None" = None
        if use_native:
            # Quiet resolve: callers that ask for native have already
            # gone through load_native_library() once and seen any
            # fallback warning there.
            from repro.core.native import load_native_library

            self._native = load_native_library(warn=False)
        if self._native is None:
            # Sort-free shard merges when the key space is dense enough;
            # one buffer reused for every round of the reconciliation.
            self._workspace = kernels.ScatterWorkspace.for_index(index)
        try:
            specs: dict[str, _ArraySpec] = {}
            for key, arr in (
                ("indptr1", index.csr1.indptr),
                ("indices1", index.csr1.indices),
                ("indptr2", index.csr2.indptr),
                ("indices2", index.csr2.indices),
                ("elig1", np.zeros(index.n1, dtype=bool)),
                ("elig2", np.zeros(index.n2, dtype=bool)),
            ):
                specs[key] = self._export(key, arr)
            if start_method is None:
                methods = multiprocessing.get_all_start_methods()
                start_method = ("fork" if "fork" in methods else methods[0])
            ctx = multiprocessing.get_context(start_method)
            self._pool = ctx.Pool(
                processes=workers,
                initializer=_init_worker,
                initargs=(specs, index.n1, index.n2, use_native),
            )
        except BaseException:
            self.close()
            raise

    def _export(self, key: str, arr: np.ndarray) -> _ArraySpec:
        """Copy *arr* into a new shared segment; keep a parent view."""
        shm = _shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
        self._segments.append(shm)
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[...] = arr
        self._views[key] = view
        return _ArraySpec(name=shm.name, shape=arr.shape, dtype=arr.dtype.str)

    # ------------------------------------------------------------------
    def count_witnesses(
        self,
        link_l: np.ndarray,
        link_r: np.ndarray,
        eligible1: np.ndarray,
        eligible2: np.ndarray,
    ) -> tuple[ArrayScores, int]:
        """Count witnesses for one round, sharded across the pool.

        Same contract as :func:`repro.core.kernels.count_witnesses`;
        rounds too small to shard (fewer than two links) run the serial
        kernel inline rather than paying pool dispatch.

        The eligibility masks are staged into the shared buffers only
        when the caller passes *different array objects* than the
        previous call: the blocked executor invokes this once per
        block with the same mask objects, and re-copying ``n1 + n2``
        bytes per block would dwarf the block's own payload.  Callers
        must therefore not mutate a mask in place between calls — every
        shipped caller builds fresh masks per round (``~linked &
        floor`` allocates), which also gives them fresh identities.
        """
        if self._pool is None:
            raise RuntimeError("pool is closed")
        plan = plan_link_shards(self.index, link_l, link_r, self.workers)
        if plan.num_shards < 2:
            return kernels.count_witnesses(
                self.index,
                link_l,
                link_r,
                eligible1,
                eligible2,
                native=self._native,
            )
        staged = self._staged_elig
        if (
            staged is None
            or staged[0] is not eligible1
            or staged[1] is not eligible2
        ):
            self._views["elig1"][...] = eligible1
            self._views["elig2"][...] = eligible2
            # Holding the references also keeps the identity test
            # sound: the arrays cannot be garbage-collected and their
            # ids recycled while staged.
            self._staged_elig = (eligible1, eligible2)
        tasks = [(link_l[idx], link_r[idx]) for idx in plan.shards]
        parts = self._pool.map(_count_shard, tasks, chunksize=1)
        return merge_shard_scores(
            self.index,
            parts,
            native=self._native,
            workspace=self._workspace,
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down the pool and unlink every shared segment (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
        self._staged_elig = None
        # numpy views hold exported buffers; release them before close().
        self._views.clear()
        segments, self._segments = self._segments, []
        for shm in segments:
            # close() and unlink() are independent release steps: a
            # failing close() must not leave the segment name behind
            # in /dev/shm, so each gets its own try.
            try:
                shm.close()
            except OSError:  # pragma: no cover - already gone
                pass
            try:
                shm.unlink()
            except OSError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "WitnessPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            pass


def open_witness_pool(
    index: "GraphPairIndex",
    workers: int,
    *,
    start_method: str | None = None,
    use_native: bool = False,
) -> WitnessPool | None:
    """Open a :class:`WitnessPool`, or fall back to serial gracefully.

    Returns ``None`` — and the caller runs the serial kernels — when
    *workers* <= 1 (silently: that *is* the serial configuration) or
    when pools/shared memory cannot be set up in this environment (with
    a :class:`ParallelFallbackWarning` naming the cause).  With
    *use_native* the pool and its workers run the compiled kernels of
    :mod:`repro.core.native` (already resolved by the caller).
    """
    if workers <= 1:
        return None
    if _shared_memory is None:
        warnings.warn(
            "multiprocessing.shared_memory is unavailable; "
            f"running workers={workers} serially",
            ParallelFallbackWarning,
            stacklevel=2,
        )
        return None
    try:
        return WitnessPool(
            index, workers, start_method=start_method, use_native=use_native
        )
    except Exception as exc:
        warnings.warn(
            f"could not start a {workers}-worker pool "
            f"({exc!r}); running serially",
            ParallelFallbackWarning,
            stacklevel=2,
        )
        return None
