"""Compiled ``backend="native"`` kernels: the witness join off the interpreter.

Every scale rung bottlenecks on the witness join of
:func:`repro.core.kernels.count_witnesses` and the selection that
follows it.  This module takes both off the interpreter by compiling a
small, dependency-free C kernel at first use:

- the **witness join** walks the CSR neighbor lists row-major,
  scattering each candidate's eligibility-filtered link rows into a
  dense per-row count array with a touched-column bitmap — no
  cross-product materialization, no hashing, and *no sort anywhere*:
  set bits scan out of the bitmap lowest-first, so packed
  ``v1 * n2 + v2`` keys are emitted already in canonical ``np.unique``
  order with the same counts as the csr sparse join, rows below an
  optional witness floor (``min_count``) are never written, and with
  community labels a candidate reads only its own community's slice
  of each link's row, so pruned pairs cost no witness work;
- the **carried score table** of
  :class:`repro.core.kernels.CarriedWitnessTable` is kept in C: a fold
  scatter-adds each join's rows into the dense ``int32[n1 * n2]``
  buffer, and a round's extraction scans only the free, floor-eligible
  rows against the free, floor-eligible columns, writing the entries
  at or above the threshold in ascending packed-key order (a count
  pass, then a fill pass into exactly sized arrays, like the join);
- **mutual-best** selection is a single pass over the score triples with
  per-side argmax tables (exact :class:`~repro.core.config.TiePolicy`
  semantics), and the **greedy** accept scan — inherently sequential,
  a Python loop in the numpy backend — runs in C over the pre-ranked
  pairs.

Toolchain story.  The kernel is plain C99 compiled on demand with the
system compiler (``cc``; override with ``REPRO_NATIVE_CC``) into a
cached shared object loaded through :mod:`ctypes` — **no new package
dependency**.  The cache is ``REPRO_NATIVE_DIR`` or a private per-user
directory under the temp dir (see :func:`_build_dir`).  Environments
without a toolchain degrade gracefully: :func:`load_native_library`
emits a :class:`NativeFallbackWarning` and returns ``None``, and every
caller treats ``None`` as "run the csr kernels" — same links, same
table, slower join.  The same holds for a library that fails the
load-time self-check (one join and one mutual-best selection on
hand-built arrays).  ``backend="native"`` therefore *never fails for
environmental reasons*.  Set ``REPRO_NATIVE_DISABLE=1`` to force the
fallback (CI uses this to prove the degraded path stays green).

Lint contract (RPR007): the :func:`ctypes.CDLL` boundary appears exactly
once, inside :func:`_load_shared_library`, dominated by the exception
handler that turns any load failure into the graceful fallback.  Bare
``CDLL`` loads anywhere else in ``repro.core`` are rejected by
``repro lint``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path

import numpy as np

from repro.errors import KernelInputError

__all__ = [
    "NativeFallbackWarning",
    "NativeKernels",
    "check_ascending_ids",
    "check_carried_buffer",
    "check_communities",
    "check_eligibility_masks",
    "check_min_count",
    "load_native_library",
    "native_available",
]


class NativeFallbackWarning(RuntimeWarning):
    """The native kernels could not be compiled or loaded; csr runs.

    Emitted (never raised) by :func:`load_native_library` when no
    working C toolchain is available, compilation fails, or the
    ``REPRO_NATIVE_DISABLE`` kill-switch is set.  Links are unaffected
    — ``backend="native"`` degrades to the ``csr`` kernels, which are
    bit-identical by the MapReduce-oracle property wall.
    """


#: C99 kernel source.  Shipped inline (not as a data file) so the module
#: is self-contained and the build cache can key on the source hash.
_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Count trailing zeros of a nonzero word (bitmap scan helper). */
static int64_t repro_ctz64(uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
    return (int64_t)__builtin_ctzll(x);
#else
    int64_t n = 0;
    while ((x & 1) == 0) { x >>= 1; n++; }
    return n;
#endif
}

/* Group each link's filtered right row into runs by (community, v2).
 *
 * rows holds the links' filtered rows back to back (link k's at
 * [foffs[k], foffs[k + 1]), each ascending).  On return run r spans
 * [rstart[r], rstart[r + 1]) of rows, link k's runs are
 * [roffs[k], roffs[k + 1]), and rcomm[r] is the run's community.
 * With comm2 == NULL every non-empty row is one run of community -1.
 * Otherwise the rows are reordered in place by (comm2[v2], v2) — a
 * stable two-pass radix sort over all rows at once, O(entries + K +
 * links) — so a row's unassigned run (-1) comes first, its
 * communities follow ascending, and every run stays ascending in v2.
 * Runs take O(row length) memory: a link gets one only for each
 * community its row touches.  Returns 0, or -1 on allocation failure. */
static int repro_group_runs(
    uint32_t *rows, const int64_t *foffs, int64_t n_links,
    const int32_t *comm2, int64_t n_comm,
    int64_t *roffs, int64_t *rstart, int32_t *rcomm
) {
    int64_t fn = foffs[n_links], nr = 0;
    if (comm2 != NULL && fn > 0) {
        int64_t *pos = (int64_t *)calloc((size_t)n_comm + 2,
                                         sizeof(int64_t));
        int64_t *perm = (int64_t *)malloc((size_t)fn * sizeof(int64_t));
        int32_t *elink = (int32_t *)malloc((size_t)fn * sizeof(int32_t));
        uint32_t *sorted = (uint32_t *)malloc((size_t)fn * sizeof(uint32_t));
        int64_t *fill = (int64_t *)malloc(
            (size_t)(n_links > 0 ? n_links : 1) * sizeof(int64_t));
        if (pos == NULL || perm == NULL || elink == NULL ||
            sorted == NULL || fill == NULL) {
            free(pos); free(perm); free(elink); free(sorted); free(fill);
            return -1;
        }
        /* Pass 1 orders the entries by community, stably: (community,
         * link, v2).  Pass 2 deals them back into their links' slices,
         * stably: (link, community, v2). */
        for (int64_t k = 0; k < n_links; k++) {
            fill[k] = foffs[k];
            for (int64_t j = foffs[k]; j < foffs[k + 1]; j++) {
                elink[j] = (int32_t)k;
                pos[comm2[rows[j]] + 2]++;
            }
        }
        for (int64_t c = 1; c <= n_comm + 1; c++) pos[c] += pos[c - 1];
        for (int64_t j = 0; j < fn; j++)
            perm[pos[comm2[rows[j]] + 1]++] = j;
        for (int64_t t = 0; t < fn; t++)
            sorted[fill[elink[perm[t]]]++] = rows[perm[t]];
        memcpy(rows, sorted, (size_t)fn * sizeof(uint32_t));
        free(pos); free(perm); free(elink); free(sorted); free(fill);
    }
    for (int64_t k = 0; k < n_links; k++) {
        roffs[k] = nr;
        int64_t js = foffs[k], je = foffs[k + 1];
        if (js == je) continue;
        rstart[nr] = js;
        rcomm[nr++] = comm2 != NULL ? comm2[rows[js]] : -1;
        if (comm2 == NULL) continue;
        for (int64_t j = js + 1; j < je; j++) {
            int32_t c = comm2[rows[j]];
            if (c == rcomm[nr - 1]) continue;
            rstart[nr] = j;
            rcomm[nr++] = c;
        }
    }
    roffs[n_links] = nr;
    rstart[nr] = fn;
    return 0;
}

/* The witness join, row-major and sort-free.  Two phases behind one
 * entry point:
 *
 *   out_l == NULL  ->  bound pass: walk the eligible-v1 rows and
 *     return (via *emitted) an upper bound on output rows — the sum of
 *     the linked right-side row lengths — so the caller can allocate
 *     exact-capacity output arrays and the fill pass never reallocates
 *     or copies.
 *
 *   out_l != NULL  ->  fill pass.  The per-link right-side rows are
 *     eligibility-filtered once into a flat uint32 buffer and split
 *     into runs (repro_group_runs): one run per row, or with
 *     communities one per (row, community).  Every candidate v1
 *     (ascending) then gathers the runs it may read from its
 *     contributing links (those with a non-empty filtered row) and
 *     dispatches on their count.  Neighbor rows are strictly ascending
 *     and duplicate-free (the Graph stores adjacency as sets;
 *     interning sorts rows), and so is every run, so one run IS the
 *     output — a straight copy with count 1 — and two mean a
 *     two-pointer sorted merge (equal heads, from two links, emit
 *     count 2).  Three or more fall back to the dense scatter: a
 *     bitmap marks touched columns and an n2-sized scratch array
 *     accumulates counts — the same dataflow as the sparse incidence
 *     matmul, but without materializing the incidence matrices and
 *     with a branchless 3-op inner loop.  Rows flush by scanning the
 *     bitmap words between the runs' first and last entries (O(1) per
 *     run); set bits come out lowest-first.  When the entries are
 *     dense over that span (at least one per two columns) no bitmap is
 *     marked and the flush scans the span's counts in place, also
 *     lowest-first.  So every path emits (left, right) rows already in
 *     canonical ascending packed-key order — no sort ever happens on
 *     the join path, and the caller never unpacks a key.
 *
 * Community pruning (comm1/comm2 != NULL; ids in [-1, n_comm), -1 =
 * unassigned) keeps a pair when comm1[v1] == comm2[v2] or either is
 * -1: an assigned v1 reads only its own community's run of each link
 * (found by binary search in the link's sorted run list) plus the
 * unassigned run, and an unassigned v1 reads every run.  The kept
 * rows, their counts and their order are exactly the unpruned join's
 * allowed rows, and the pruned pairs cost no witness work at all.
 *
 * The fill pass writes only rows whose count is at least min_count
 * (>= 1; 1 keeps every nonzero count).  A pair's count is at most the
 * number of links with a run its candidate reads, so a candidate with
 * fewer than min_count of them writes nothing; the two-run merge drops
 * heads below the floor, and the flushes still clear every touched
 * scratch slot but write only those at or above it.  The
 * bound pass ignores the floor and the communities (it stays the
 * output capacity; pages never written cost no RSS), and *emitted is
 * the full expansion Σ a_k·b_k whatever the floor or the pruning.
 *
 * Counts use int32 scratch: a pair's witness count is at most n_links
 * (each link contributes at most one witness per pair), and the caller
 * rejects n_links >= 2^31.  Writes the total pair expansion (the
 * paper's cost unit) to *emitted; returns rows written, or -1 on
 * allocation failure (-2, unreachable with a bound-pass cap, if the
 * output would overflow).  Generated for each CSR index dtype (the
 * interning compacts neighbor ids to uint32 when they fit) crossed
 * with the output width: _o32 variants emit int32 columns — valid
 * whenever max(n1, n2) fits int32, which halves the output memory the
 * fill pass has to touch — and _o64 the full-width fallback. */
#define REPRO_JOIN(NAME, T1, T2, OUT_T)                                 \
int64_t NAME(                                                           \
    const int64_t *indptr1, const T1 *indices1,                         \
    const int64_t *indptr2, const T2 *indices2,                         \
    const int64_t *link_l, const int64_t *link_r, int64_t n_links,      \
    const uint8_t *elig1, const uint8_t *elig2,                         \
    const int32_t *comm1, const int32_t *comm2, int64_t n_comm,         \
    int64_t n1, int64_t n2,                                             \
    OUT_T *out_l, OUT_T *out_r, OUT_T *out_vals, int64_t cap,           \
    int64_t min_count, int64_t *emitted                                 \
) {                                                                     \
    int64_t n_words = (n2 >> 6) + 1;                                    \
    int64_t *head = (int64_t *)malloc(                                  \
        (size_t)(n1 > 0 ? n1 : 1) * sizeof(int64_t));                   \
    int64_t *next = (int64_t *)malloc(                                  \
        (size_t)(n_links > 0 ? n_links : 1) * sizeof(int64_t));         \
    if (head == NULL || next == NULL) {                                 \
        free(head); free(next);                                         \
        return -1;                                                      \
    }                                                                   \
    for (int64_t i = 0; i < n1; i++) head[i] = -1;                      \
    int64_t fcap = 0;                                                   \
    for (int64_t k = 0; k < n_links; k++) {                             \
        next[k] = head[link_l[k]];                                      \
        head[link_l[k]] = k;                                            \
        fcap += indptr2[link_r[k] + 1] - indptr2[link_r[k]];            \
    }                                                                   \
    if (out_l == NULL) {                                                \
        int64_t bound = 0;                                              \
        for (int64_t v1 = 0; v1 < n1; v1++) {                           \
            if (!elig1[v1]) continue;                                   \
            for (int64_t i = indptr1[v1]; i < indptr1[v1 + 1]; i++) {   \
                int64_t u1 = (int64_t)indices1[i];                      \
                for (int64_t k = head[u1]; k != -1; k = next[k]) {      \
                    int64_t u2 = link_r[k];                             \
                    bound += indptr2[u2 + 1] - indptr2[u2];             \
                }                                                       \
            }                                                           \
        }                                                               \
        free(head); free(next);                                         \
        *emitted = bound;                                               \
        return 0;                                                       \
    }                                                                   \
    uint32_t *fbuf = (uint32_t *)malloc(                                \
        (size_t)(fcap > 0 ? fcap : 1) * sizeof(uint32_t));              \
    int64_t *foffs = (int64_t *)malloc(                                 \
        (size_t)(n_links + 1) * sizeof(int64_t));                       \
    int64_t *roffs = (int64_t *)malloc(                                 \
        (size_t)(n_links + 1) * sizeof(int64_t));                       \
    /* Runs: one per non-empty row, or at most one per entry. */      \
    int64_t rmax = comm2 != NULL ? fcap : n_links;                      \
    int64_t *rstart = (int64_t *)malloc(                                \
        (size_t)(rmax + 1) * sizeof(int64_t));                          \
    int32_t *rcomm = (int32_t *)malloc(                                 \
        (size_t)(rmax > 0 ? rmax : 1) * sizeof(int32_t));               \
    int64_t *rlist = (int64_t *)malloc(                                 \
        (size_t)(rmax > 0 ? rmax : 1) * sizeof(int64_t));               \
    int32_t *scratch = (int32_t *)calloc(                               \
        (size_t)(n2 > 0 ? n2 : 1), sizeof(int32_t));                    \
    uint64_t *bits = (uint64_t *)calloc(                                \
        (size_t)n_words, sizeof(uint64_t));                             \
    int64_t total = 0, rows = 0, rc = 0;                                \
    if (fbuf == NULL || foffs == NULL || roffs == NULL ||               \
        rstart == NULL || rcomm == NULL || rlist == NULL ||             \
        scratch == NULL || bits == NULL) {                              \
        rc = -1; goto NAME##_done;                                      \
    }                                                                   \
    int64_t fn = 0;                                                     \
    foffs[0] = 0;                                                       \
    for (int64_t k = 0; k < n_links; k++) {                             \
        int64_t u2 = link_r[k];                                         \
        for (int64_t j = indptr2[u2]; j < indptr2[u2 + 1]; j++) {       \
            int64_t v2 = (int64_t)indices2[j];                          \
            if (elig2[v2]) fbuf[fn++] = (uint32_t)v2;                   \
        }                                                               \
        foffs[k + 1] = fn;                                              \
    }                                                                   \
    if (repro_group_runs(fbuf, foffs, n_links, comm2, n_comm,           \
                         roffs, rstart, rcomm) != 0) {                  \
        rc = -1; goto NAME##_done;                                      \
    }                                                                   \
    for (int64_t v1 = 0; v1 < n1; v1++) {                               \
        if (!elig1[v1]) continue;                                       \
        int32_t c1 = comm1 != NULL ? comm1[v1] : -1;                    \
        int64_t nl = 0, nr = 0;                                         \
        for (int64_t i = indptr1[v1]; i < indptr1[v1 + 1]; i++) {       \
            int64_t u1 = (int64_t)indices1[i];                          \
            for (int64_t k = head[u1]; k != -1; k = next[k]) {          \
                int64_t r = roffs[k], re = roffs[k + 1];                \
                if (r == re) continue;                                  \
                total += rstart[re] - rstart[r];                        \
                if (c1 < 0) {                                           \
                    while (r < re) rlist[nr++] = r++;                   \
                    nl++;                                               \
                    continue;                                           \
                }                                                       \
                int64_t got = nr;                                       \
                if (rcomm[r] < 0) rlist[nr++] = r++;                    \
                while (r < re) {                                        \
                    int64_t mid = r + ((re - r) >> 1);                  \
                    if (rcomm[mid] < c1) r = mid + 1; else re = mid;    \
                }                                                       \
                if (r < roffs[k + 1] && rcomm[r] == c1)                 \
                    rlist[nr++] = r;                                    \
                nl += nr > got;                                         \
            }                                                           \
        }                                                               \
        if (nl < min_count || nr == 0) continue;                        \
        if (nr == 1) {                                                  \
            int64_t js = rstart[rlist[0]], je = rstart[rlist[0] + 1];   \
            if (rows + (je - js) > cap) { rc = -2; goto NAME##_done; }  \
            for (int64_t j = js; j < je; j++) {                         \
                out_l[rows] = (OUT_T)v1;                                \
                out_r[rows] = (OUT_T)fbuf[j];                           \
                out_vals[rows] = 1;                                     \
                rows++;                                                 \
            }                                                           \
            continue;                                                   \
        }                                                               \
        if (nr == 2) {                                                  \
            int64_t ja = rstart[rlist[0]], jae = rstart[rlist[0] + 1];  \
            int64_t jb = rstart[rlist[1]], jbe = rstart[rlist[1] + 1];  \
            while (ja < jae || jb < jbe) {                              \
                uint32_t va = ja < jae ? fbuf[ja] : (uint32_t)-1;       \
                uint32_t vb = jb < jbe ? fbuf[jb] : (uint32_t)-1;       \
                int64_t v2, c;                                          \
                if (va < vb)      { v2 = va; c = 1; ja++; }             \
                else if (vb < va) { v2 = vb; c = 1; jb++; }             \
                else              { v2 = va; c = 2; ja++; jb++; }       \
                if (c < min_count) continue;                            \
                if (rows == cap) { rc = -2; goto NAME##_done; }         \
                out_l[rows] = (OUT_T)v1;                                \
                out_r[rows] = (OUT_T)v2;                                \
                out_vals[rows] = (OUT_T)c;                              \
                rows++;                                                 \
            }                                                           \
            continue;                                                   \
        }                                                               \
        int64_t lo = n_words, hi = -1, ops = 0;                         \
        for (int64_t t = 0; t < nr; t++) {                              \
            int64_t js = rstart[rlist[t]], je = rstart[rlist[t] + 1];   \
            int64_t wlo = (int64_t)(fbuf[js] >> 6);                     \
            int64_t whi = (int64_t)(fbuf[je - 1] >> 6);                 \
            lo = wlo < lo ? wlo : lo;                                   \
            hi = whi > hi ? whi : hi;                                   \
            ops += je - js;                                             \
        }                                                               \
        if (ops * 2 >= (hi - lo + 1) << 6) {                            \
            /* Dense: at least one entry per two columns of the span.  \
             * Scanning the span's counts costs less than marking the  \
             * bitmap entry by entry (a read-modify-write chain when   \
             * neighbors share a word). */                              \
            for (int64_t t = 0; t < nr; t++) {                          \
                int64_t je = rstart[rlist[t] + 1];                      \
                for (int64_t j = rstart[rlist[t]]; j < je; j++)         \
                    scratch[fbuf[j]]++;                                 \
            }                                                           \
            int64_t end = (hi + 1) << 6 < n2 ? (hi + 1) << 6 : n2;      \
            for (int64_t v2 = lo << 6; v2 < end; v2++) {                \
                int32_t c = scratch[v2];                                \
                if (c == 0) continue;                                   \
                scratch[v2] = 0;                                        \
                if (c < min_count) continue;                            \
                if (rows == cap) { rc = -2; goto NAME##_done; }         \
                out_l[rows] = (OUT_T)v1;                                \
                out_r[rows] = (OUT_T)v2;                                \
                out_vals[rows] = (OUT_T)c;                              \
                rows++;                                                 \
            }                                                           \
            continue;                                                   \
        }                                                               \
        for (int64_t t = 0; t < nr; t++) {                              \
            int64_t je = rstart[rlist[t] + 1];                          \
            for (int64_t j = rstart[rlist[t]]; j < je; j++) {           \
                uint32_t v2 = fbuf[j];                                  \
                bits[v2 >> 6] |= (uint64_t)1 << (v2 & 63);              \
                scratch[v2]++;                                          \
            }                                                           \
        }                                                               \
        for (int64_t w = lo; w <= hi; w++) {                            \
            uint64_t word = bits[w];                                    \
            if (word == 0) continue;                                    \
            bits[w] = 0;                                                \
            int64_t wb = w << 6;                                        \
            do {                                                        \
                int64_t v2 = wb + repro_ctz64(word);                    \
                int32_t c = scratch[v2];                                \
                word &= word - 1;                                       \
                scratch[v2] = 0;                                        \
                if (c < min_count) continue;                            \
                if (rows == cap) { rc = -2; goto NAME##_done; }         \
                out_l[rows] = (OUT_T)v1;                                \
                out_r[rows] = (OUT_T)v2;                                \
                out_vals[rows] = (OUT_T)c;                              \
                rows++;                                                 \
            } while (word != 0);                                        \
        }                                                               \
    }                                                                   \
NAME##_done:                                                            \
    free(head); free(next); free(fbuf); free(foffs); free(roffs);       \
    free(rstart); free(rcomm); free(rlist); free(scratch); free(bits);  \
    *emitted = total;                                                   \
    return rc == 0 ? rows : rc;                                         \
}

REPRO_JOIN(repro_join_i64_i64_o64, int64_t,  int64_t,  int64_t)
REPRO_JOIN(repro_join_u32_u32_o64, uint32_t, uint32_t, int64_t)
REPRO_JOIN(repro_join_u32_i64_o64, uint32_t, int64_t,  int64_t)
REPRO_JOIN(repro_join_i64_u32_o64, int64_t,  uint32_t, int64_t)
REPRO_JOIN(repro_join_i64_i64_o32, int64_t,  int64_t,  int32_t)
REPRO_JOIN(repro_join_u32_u32_o32, uint32_t, uint32_t, int32_t)
REPRO_JOIN(repro_join_u32_i64_o32, uint32_t, int64_t,  int32_t)
REPRO_JOIN(repro_join_i64_u32_o32, int64_t,  uint32_t, int32_t)

/* ------------------------------------------------------------------ *
 * Selection kernels over (left, right, score) triples (threshold
 * pre-applied by the caller).
 * ------------------------------------------------------------------ */

/* Mutual-best: one pass building per-side (best score, best partner,
 * tied) tables, then an ascending-left emit — exactly the semantics of
 * kernels._best_per_group + the mutual join.  skip_ties != 0 drops a
 * side whose maximum is not unique (TiePolicy.SKIP); otherwise the
 * canonical-minimum partner wins (TiePolicy.LOWEST_ID).  Returns the
 * number of links written (or -1 on allocation failure).  Generated
 * for int64 input columns and for the int32 columns the _o32 joins
 * emit, so a thresholded join table is selected in place. */
#define REPRO_MUTUAL_BEST(NAME, IN_T)                                   \
int64_t NAME(                                                           \
    const IN_T *left, const IN_T *right, const IN_T *score,             \
    int64_t n, int64_t n1, int64_t n2, int32_t skip_ties,               \
    int64_t *out_l, int64_t *out_r                                      \
) {                                                                     \
    int64_t *best_s1 = (int64_t *)calloc((size_t)(n1 > 0 ? n1 : 1),     \
                                         sizeof(int64_t));              \
    int64_t *best_p1 = (int64_t *)malloc((size_t)(n1 > 0 ? n1 : 1)      \
                                         * sizeof(int64_t));            \
    uint8_t *tied1 = (uint8_t *)calloc((size_t)(n1 > 0 ? n1 : 1), 1);   \
    int64_t *best_s2 = (int64_t *)calloc((size_t)(n2 > 0 ? n2 : 1),     \
                                         sizeof(int64_t));              \
    int64_t *best_p2 = (int64_t *)malloc((size_t)(n2 > 0 ? n2 : 1)      \
                                         * sizeof(int64_t));            \
    uint8_t *tied2 = (uint8_t *)calloc((size_t)(n2 > 0 ? n2 : 1), 1);   \
    int64_t written = -1;                                               \
    if (best_s1 == NULL || best_p1 == NULL || tied1 == NULL ||          \
        best_s2 == NULL || best_p2 == NULL || tied2 == NULL)            \
        goto NAME##_done;                                               \
    for (int64_t i = 0; i < n; i++) {                                   \
        int64_t v1 = left[i], v2 = right[i], sc = score[i];             \
        /* scores are >= 1 after thresholding: 0 means "unseen" */      \
        if (sc > best_s1[v1]) {                                         \
            best_s1[v1] = sc; best_p1[v1] = v2; tied1[v1] = 0;          \
        } else if (sc == best_s1[v1]) {                                 \
            tied1[v1] = 1;                                              \
            if (v2 < best_p1[v1]) best_p1[v1] = v2;                     \
        }                                                               \
        if (sc > best_s2[v2]) {                                         \
            best_s2[v2] = sc; best_p2[v2] = v1; tied2[v2] = 0;          \
        } else if (sc == best_s2[v2]) {                                 \
            tied2[v2] = 1;                                              \
            if (v1 < best_p2[v2]) best_p2[v2] = v1;                     \
        }                                                               \
    }                                                                   \
    written = 0;                                                        \
    for (int64_t v1 = 0; v1 < n1; v1++) {                               \
        if (best_s1[v1] == 0) continue;                                 \
        if (skip_ties && tied1[v1]) continue;                           \
        int64_t v2 = best_p1[v1];                                       \
        if (best_p2[v2] != v1) continue;                                \
        if (skip_ties && tied2[v2]) continue;                           \
        out_l[written] = v1;                                            \
        out_r[written] = v2;                                            \
        written++;                                                      \
    }                                                                   \
NAME##_done:                                                            \
    free(best_s1); free(best_p1); free(tied1);                          \
    free(best_s2); free(best_p2); free(tied2);                          \
    return written;                                                     \
}

REPRO_MUTUAL_BEST(repro_mutual_best, int64_t)
REPRO_MUTUAL_BEST(repro_mutual_best_i32, int32_t)

/* ------------------------------------------------------------------ *
 * Carried score table: the dense int32[n1 * n2] buffer the array sweep
 * keeps across rounds (kernels.CarriedWitnessTable).
 * ------------------------------------------------------------------ */

/* Scatter-add a join's (left, right, count) rows into the table.  Join
 * rows have unique keys, so this is buf[left * n2 + right] += count.
 * Generated for the int32 columns the _o32 joins emit and for int64. */
#define REPRO_CARRIED_FOLD(NAME, IN_T)                                  \
void NAME(                                                              \
    int32_t *buf, int64_t n2,                                           \
    const IN_T *left, const IN_T *right, const IN_T *count, int64_t n   \
) {                                                                     \
    for (int64_t i = 0; i < n; i++)                                     \
        buf[(int64_t)left[i] * n2 + (int64_t)right[i]] +=               \
            (int32_t)count[i];                                          \
}

REPRO_CARRIED_FOLD(repro_carried_fold_i32, int32_t)
REPRO_CARRIED_FOLD(repro_carried_fold_i64, int64_t)

/* One round's extraction: the entries of rows x cols (both strictly
 * ascending id lists) scoring at least threshold, as int32 (left,
 * right, score) rows in ascending packed-key order.  Two phases behind
 * one entry point, like the join:
 *
 *   out_l == NULL  ->  count pass: return the number of entries.
 *   out_l != NULL  ->  fill pass into arrays of capacity cap (-2 if
 *     the entries would not fit).
 *
 * The fill pass writes every column of a row and advances past the
 * entries below the threshold (no branch to mispredict: a third of the
 * entries qualify in a typical round) whenever the whole row fits in
 * the remaining capacity, and checks entry by entry otherwise. */
int64_t repro_carried_extract(
    const int32_t *buf, int64_t n2,
    const int64_t *rows, int64_t n_rows,
    const int64_t *cols, int64_t n_cols,
    int32_t threshold,
    int32_t *out_l, int32_t *out_r, int32_t *out_s, int64_t cap
) {
    int64_t found = 0;
    if (out_l == NULL) {
        for (int64_t i = 0; i < n_rows; i++) {
            const int32_t *row = buf + rows[i] * n2;
            for (int64_t j = 0; j < n_cols; j++)
                found += row[cols[j]] >= threshold;
        }
        return found;
    }
    for (int64_t i = 0; i < n_rows; i++) {
        const int32_t *row = buf + rows[i] * n2;
        int32_t v1 = (int32_t)rows[i];
        if (cap - found >= n_cols) {
            for (int64_t j = 0; j < n_cols; j++) {
                int32_t c = row[cols[j]];
                out_l[found] = v1;
                out_r[found] = (int32_t)cols[j];
                out_s[found] = c;
                found += c >= threshold;
            }
            continue;
        }
        for (int64_t j = 0; j < n_cols; j++) {
            int32_t c = row[cols[j]];
            if (c < threshold) continue;
            if (found == cap) return -2;
            out_l[found] = v1;
            out_r[found] = (int32_t)cols[j];
            out_s[found] = c;
            found++;
        }
    }
    return found;
}

/* Greedy accept scan over pairs pre-ranked by (-score, left, right):
 * take each pair while both endpoints are free.  The ranking is done
 * by the caller (one lexsort); only this inherently sequential scan
 * runs here.  Returns links written (or -1 on allocation failure). */
int64_t repro_greedy_scan(
    const int64_t *left, const int64_t *right, int64_t n,
    int64_t n1, int64_t n2, int64_t *out_l, int64_t *out_r
) {
    uint8_t *used1 = (uint8_t *)calloc((size_t)(n1 > 0 ? n1 : 1), 1);
    uint8_t *used2 = (uint8_t *)calloc((size_t)(n2 > 0 ? n2 : 1), 1);
    if (used1 == NULL || used2 == NULL) {
        free(used1); free(used2);
        return -1;
    }
    int64_t written = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t v1 = left[i], v2 = right[i];
        if (used1[v1] || used2[v2]) continue;
        used1[v1] = used2[v2] = 1;
        out_l[written] = v1;
        out_r[written] = v2;
        written++;
    }
    free(used1); free(used2);
    return written;
}
"""

_EMPTY = np.empty(0, dtype=np.int64)

#: Largest node id the int32 join output columns can hold.  When both
#: graphs fit, the fill pass writes half the bytes (the counts column
#: fits for free: a witness count is at most ``n_links``, already
#: capped at int32 by the wrapper).  Patchable in tests to force the
#: ``_o64`` variants on small workloads.
_NATIVE_OUT32_MAX = 2**31 - 1


def check_eligibility_masks(
    eligible1: np.ndarray, eligible2: np.ndarray, n1: int, n2: int
) -> None:
    """Refuse witness-join masks that are not ``bool[n1]`` / ``bool[n2]``.

    Both joins read the masks by node id: a short mask is read past its
    end by the C join, and a non-bool one is reinterpreted byte-wise
    (C) or taken as a fancy index (numpy) — either way a plausible but
    wrong table.

    Raises:
        KernelInputError: on a wrong dtype or length.
    """
    for side, mask, n in ((1, eligible1, n1), (2, eligible2, n2)):
        if mask.dtype != np.bool_ or mask.shape != (n,):
            raise KernelInputError(
                f"eligible{side} must be a bool array of shape ({n},), "
                f"got {mask.dtype} of shape {mask.shape}"
            )


def check_pair_ids(
    left: np.ndarray,
    right: np.ndarray,
    n1: int,
    n2: int,
    names: tuple[str, str] = ("left", "right"),
) -> None:
    """Refuse parallel pair columns the C kernels would index past.

    The join, mutual-best and greedy kernels index per-node arrays by
    these ids with no bounds checks: a short column is read past its
    end, and an id outside ``[0, n1)`` / ``[0, n2)`` reads or writes out
    of bounds.  O(n) min/max scans, no sort.

    Raises:
        KernelInputError: on unequal or non-1-d columns, or an id out
            of range.
    """
    if left.ndim != 1 or left.shape != right.shape:
        raise KernelInputError(
            f"{names[0]} and {names[1]} must be 1-d arrays of equal "
            f"length, got shapes {left.shape} and {right.shape}"
        )
    for side, ids, n in ((1, left, n1), (2, right, n2)):
        if len(ids) and (ids.min() < 0 or ids.max() >= n):
            raise KernelInputError(
                f"{names[side - 1]} ids on side {side} must lie in "
                f"[0, {n}), got [{ids.min()}, {ids.max()}]"
            )


def check_communities(
    comm1: np.ndarray,
    comm2: np.ndarray,
    num_communities: int,
    n1: int,
    n2: int,
) -> None:
    """Refuse community labels the pruned C join would index past.

    The join reads ``comm1``/``comm2`` by node id and sizes its run
    tables by the community count, with no bounds checks: a short or
    non-``int32`` array is read past its end or misread, and a label
    outside ``[-1, num_communities)`` indexes past the tables.  O(n)
    min/max scans, no sort.

    Raises:
        KernelInputError: on a wrong dtype or length, a label out of
            range, or a community count outside ``[0, 2**31)``.
    """
    if not 0 <= num_communities < 2**31:
        raise KernelInputError(
            f"num_communities must lie in [0, 2**31), got {num_communities}"
        )
    for side, comm, n in ((1, comm1, n1), (2, comm2, n2)):
        if comm.dtype != np.int32 or comm.shape != (n,):
            raise KernelInputError(
                f"comm{side} must be an int32 array of shape ({n},), "
                f"got {comm.dtype} of shape {comm.shape}"
            )
        if n and (comm.min() < -1 or comm.max() >= num_communities):
            raise KernelInputError(
                f"comm{side} labels must lie in [-1, {num_communities}), "
                f"got [{comm.min()}, {comm.max()}]"
            )


def check_min_count(min_count: int) -> None:
    """Refuse a witness-count floor below 1.

    Every witnessed pair has a count of at least 1, so 1 already keeps
    the whole table; a smaller floor is a caller error, not a request.

    Raises:
        KernelInputError: if *min_count* is below 1.
    """
    if min_count < 1:
        raise KernelInputError(f"min_count must be >= 1, got {min_count}")


def check_carried_buffer(buf: np.ndarray, n1: int, n2: int) -> None:
    """Refuse a carried score table that is not C-contiguous ``int32[n1*n2]``.

    The carried-table kernels address the buffer as ``row * n2 + col``
    with no bounds checks: a short buffer is read or written past its
    end, and any other dtype or layout is misread.

    Raises:
        KernelInputError: on a wrong dtype, shape or layout.
    """
    if (
        not isinstance(buf, np.ndarray)
        or buf.dtype != np.int32
        or buf.shape != (n1 * n2,)
        or not buf.flags.c_contiguous
    ):
        raise KernelInputError(
            f"the carried table must be a C-contiguous int32 array of "
            f"shape ({n1 * n2},), got {getattr(buf, 'dtype', type(buf))} "
            f"of shape {getattr(buf, 'shape', None)}"
        )


def check_ascending_ids(ids: np.ndarray, n: int, name: str) -> None:
    """Refuse an id list that is not 1-d, strictly ascending, in ``[0, n)``.

    Raises:
        KernelInputError: on a wrong shape, an id out of range, or an
            id not above its predecessor.
    """
    if ids.ndim != 1:
        raise KernelInputError(f"{name} must be 1-d, got shape {ids.shape}")
    if len(ids) > 1 and not (ids[1:] > ids[:-1]).all():
        raise KernelInputError(f"{name} must be strictly ascending")
    # Ascending, so the ends bound every id.
    if len(ids) and (ids[0] < 0 or ids[-1] >= n):
        raise KernelInputError(
            f"{name} must lie in [0, {n}), got [{ids[0]}, {ids[-1]}]"
        )


#: module-level cache: ``None`` = not attempted, ``(kernels,)`` =
#: loaded, ``()`` = attempted and failed (don't recompile every round).
_CACHE: "tuple[NativeKernels] | tuple[()] | None" = None


def _source_digest() -> str:
    """Short content hash keying the build cache to the C source."""
    return hashlib.sha256(_C_SOURCE.encode("utf-8")).hexdigest()[:16]


def _compiler_command() -> list[str]:
    """The C compiler argv prefix: env override, sysconfig CC, or cc."""
    override = os.environ.get("REPRO_NATIVE_CC")
    if override:
        return override.split()
    cc = sysconfig.get_config_var("CC")
    if cc:
        head = str(cc).split()[0]
        if shutil.which(head):
            return str(cc).split()
    return ["cc"]


def _build_library(build_dir: Path) -> Path:
    """Compile the C source into *build_dir*; return the .so path.

    The object name embeds the source hash, so a persistent
    ``REPRO_NATIVE_DIR`` cache is invalidated exactly when the kernel
    source changes.  Raises on any toolchain failure — the caller
    (:func:`load_native_library`) turns that into the warned fallback.
    """
    digest = _source_digest()
    lib_path = build_dir / f"repro_native_{digest}.so"
    if lib_path.exists():
        return lib_path
    src_path = build_dir / f"repro_native_{digest}.c"
    src_path.write_text(_C_SOURCE, encoding="utf-8")
    argv = _compiler_command() + [
        "-O3",
        "-std=c99",
        "-shared",
        "-fPIC",
        "-o",
        str(lib_path),
        str(src_path),
    ]
    proc = subprocess.run(
        argv, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0 or not lib_path.exists():
        raise RuntimeError(
            f"{argv[0]} failed (exit {proc.returncode}): "
            f"{proc.stderr.strip()[:500]}"
        )
    return lib_path


def _load_shared_library(lib_path: Path) -> "ctypes.CDLL | None":
    """The sanctioned ctypes boundary (lint rule RPR007).

    Every shared-object load in ``repro.core`` must go through this
    helper: the ``CDLL`` call is dominated by the handler that maps any
    loader failure to ``None``, which callers treat as "fall back to
    the csr kernels".  A bare ``CDLL`` elsewhere would turn an
    environmental problem into a crash.
    """
    try:
        return ctypes.CDLL(str(lib_path))
    except OSError:
        return None


class NativeKernels:
    """ctypes facade over the compiled kernel library.

    One instance wraps one loaded shared object; the heavy lifting of
    staying bit-identical to the numpy kernels is in the row order every
    kernel emits (ascending packed-key order == ``np.unique`` order).
    All methods raise :class:`MemoryError` if the C side reports an
    allocation failure — never silently degrade mid-run.
    """

    def __init__(self, lib: ctypes.CDLL, lib_path: Path) -> None:
        self.lib_path = lib_path
        self._lib = lib
        c = ctypes
        i64, u8, vp = c.c_int64, c.c_uint8, c.c_void_p
        p64, pu8 = c.POINTER(i64), c.POINTER(u8)
        for tags in ("i64_i64", "u32_u32", "u32_i64", "i64_u32"):
            for width in ("o64", "o32"):
                fn = getattr(lib, f"repro_join_{tags}_{width}")
                fn.argtypes = [
                    p64, vp, p64, vp, p64, p64, i64, pu8, pu8,
                    vp, vp, i64, i64, i64, vp, vp, vp, i64, i64, p64,
                ]
                fn.restype = i64
        lib.repro_mutual_best.argtypes = [
            p64, p64, p64, i64, i64, i64, c.c_int32, p64, p64,
        ]
        lib.repro_mutual_best.restype = i64
        lib.repro_mutual_best_i32.argtypes = [
            vp, vp, vp, i64, i64, i64, c.c_int32, p64, p64,
        ]
        lib.repro_mutual_best_i32.restype = i64
        lib.repro_greedy_scan.argtypes = [p64, p64, i64, i64, i64, p64, p64]
        lib.repro_greedy_scan.restype = i64
        for width in ("i32", "i64"):
            fn = getattr(lib, f"repro_carried_fold_{width}")
            fn.argtypes = [vp, i64, vp, vp, vp, i64]
            fn.restype = None
        lib.repro_carried_extract.argtypes = [
            vp, i64, vp, i64, vp, i64, c.c_int32, vp, vp, vp, i64,
        ]
        lib.repro_carried_extract.restype = i64

    # ------------------------------------------------------------------
    @staticmethod
    def _p64(arr: np.ndarray) -> "ctypes._Pointer[ctypes.c_int64]":
        return arr.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))

    @staticmethod
    def _pu8(arr: np.ndarray) -> "ctypes._Pointer[ctypes.c_uint8]":
        return arr.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8))

    def _join_fn(
        self, indices1: np.ndarray, indices2: np.ndarray, out32: bool
    ) -> "ctypes._FuncPointer":
        tag1 = "u32" if indices1.dtype == np.uint32 else "i64"
        tag2 = "u32" if indices2.dtype == np.uint32 else "i64"
        width = "o32" if out32 else "o64"
        return getattr(self._lib, f"repro_join_{tag1}_{tag2}_{width}")

    # ------------------------------------------------------------------
    def witness_join(
        self,
        indptr1: np.ndarray,
        indices1: np.ndarray,
        indptr2: np.ndarray,
        indices2: np.ndarray,
        link_l: np.ndarray,
        link_r: np.ndarray,
        eligible1: np.ndarray,
        eligible2: np.ndarray,
        n1: int,
        n2: int,
        min_count: int = 1,
        communities: "tuple[np.ndarray, np.ndarray, int] | None" = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Row-major CSR witness join, already unpacked and canonical.

        Returns ``(left, right, counts, emitted)`` with the rows in
        ascending packed-key (``left * n2 + right``) order — the exact
        table :func:`repro.core.kernels.count_witnesses` produces,
        without materializing or sorting the pair expansion (set bits
        scan out of the row bitmap lowest-first, so rows are born in
        canonical order) and without the key pack/divmod round-trip —
        the C side emits the two columns directly.  Two C calls: a
        bound pass sizing the output arrays exactly once, then a fill
        pass writing into them directly — no growable buffer, no
        export copy.  Columns are int32 when every node id fits (half
        the memory the fill pass touches), int64 otherwise; consumers
        pack keys with strong ``np.int64`` scalars, so the narrow
        columns promote before any arithmetic can overflow.

        Only rows with ``counts >= min_count`` are written (the default
        1 keeps every witnessed pair).  *communities* ``(comm1, comm2,
        K)`` — ``int32`` labels in ``[-1, K)``, ``-1`` unassigned —
        prunes inside the join: only pairs with ``comm1[v1] ==
        comm2[v2]`` or an unassigned endpoint are counted, exactly the
        rows (and counts, and order) the full join followed by the
        frontier-0 ``allowed_mask`` keeps.  *emitted* is the full
        expansion ``Σ a_k · b_k`` whatever the floor or the pruning.

        Raises:
            KernelInputError: on malformed masks, row pointers, link
                ids or community labels, or ``min_count < 1``.
        """
        check_min_count(min_count)
        # The C join indexes every array below by node id with no
        # bounds checks: refuse anything that would read or write out
        # of bounds, in O(links) — the neighbor ids are not scanned.
        check_eligibility_masks(eligible1, eligible2, n1, n2)
        for side, indptr, n in ((1, indptr1, n1), (2, indptr2, n2)):
            if indptr.shape != (n + 1,):
                raise KernelInputError(
                    f"indptr{side} must have length n{side} + 1 = {n + 1}, "
                    f"got shape {indptr.shape}"
                )
        check_pair_ids(link_l, link_r, n1, n2, ("link_l", "link_r"))
        vp = ctypes.c_void_p
        labels1 = labels2 = vp()
        num_communities = 0
        if communities is not None:
            comm1, comm2, num_communities = communities
            check_communities(comm1, comm2, num_communities, n1, n2)
            comm1 = np.ascontiguousarray(comm1)
            comm2 = np.ascontiguousarray(comm2)
            labels1 = comm1.ctypes.data_as(vp)
            labels2 = comm2.ctypes.data_as(vp)
        if len(link_l) == 0:
            return _EMPTY, _EMPTY, _EMPTY, 0
        if len(link_l) >= 2**31:
            # int32 count scratch: a pair's witness count is bounded by
            # the number of links, so this is the one shape the compiled
            # join cannot represent.
            raise ValueError("native witness join supports < 2**31 links")
        if n2 >= 2**32:
            # The filtered right-row buffer compacts candidate ids to
            # uint32 (and the two-run merge uses UINT32_MAX as its
            # exhausted-run sentinel).
            raise ValueError(
                "native witness join supports < 2**32 right-side nodes"
            )
        indptr1 = np.ascontiguousarray(indptr1, dtype=np.int64)
        indptr2 = np.ascontiguousarray(indptr2, dtype=np.int64)
        if indices1.dtype != np.uint32:
            indices1 = np.ascontiguousarray(indices1, dtype=np.int64)
        if indices2.dtype != np.uint32:
            indices2 = np.ascontiguousarray(indices2, dtype=np.int64)
        link_l = np.ascontiguousarray(link_l, dtype=np.int64)
        link_r = np.ascontiguousarray(link_r, dtype=np.int64)
        elig1 = np.ascontiguousarray(eligible1).view(np.uint8)
        elig2 = np.ascontiguousarray(eligible2).view(np.uint8)
        out32 = max(n1, n2) <= _NATIVE_OUT32_MAX
        out_dtype = np.int32 if out32 else np.int64
        join = self._join_fn(indices1, indices2, out32)
        # Both passes share one set of pointers: ``data_as`` is not free.
        inputs = (
            self._p64(indptr1),
            indices1.ctypes.data_as(vp),
            self._p64(indptr2),
            indices2.ctypes.data_as(vp),
            self._p64(link_l),
            self._p64(link_r),
            len(link_l),
            self._pu8(elig1),
            self._pu8(elig2),
            labels1,
            labels2,
            num_communities,
            n1,
            n2,
        )

        def call(out_l, out_r, out_vals, cap):
            emitted = ctypes.c_int64(0)
            status = join(
                *inputs,
                out_l,
                out_r,
                out_vals,
                cap,
                min_count,
                ctypes.byref(emitted),
            )
            if status < 0:
                raise MemoryError("native witness join ran out of memory")
            return int(status), int(emitted.value)

        null = vp()
        _, bound = call(null, null, null, 0)
        if bound == 0:
            return _EMPTY, _EMPTY, _EMPTY, 0
        left = np.empty(bound, dtype=out_dtype)
        right = np.empty(bound, dtype=out_dtype)
        counts = np.empty(bound, dtype=out_dtype)
        rows, emitted = call(
            left.ctypes.data_as(vp),
            right.ctypes.data_as(vp),
            counts.ctypes.data_as(vp),
            bound,
        )
        return left[:rows], right[:rows], counts[:rows], emitted

    def carried_fold(
        self,
        buf: np.ndarray,
        n1: int,
        n2: int,
        left: np.ndarray,
        right: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        """Add a join's ``(left, right, counts)`` rows to a carried table.

        In place, ``buf[left * n2 + right] += counts`` over the dense
        ``int32[n1 * n2]`` table of
        :class:`repro.core.kernels.CarriedWitnessTable`.  The rows must
        have unique keys, as every join's do.  Three int32 columns (the
        ``_o32`` join's output) are read in place; anything else is
        widened to int64 first.

        Raises:
            KernelInputError: on a malformed buffer, columns of unequal
                length, or an id outside ``[0, n1)`` / ``[0, n2)``.
        """
        check_carried_buffer(buf, n1, n2)
        if not buf.flags.writeable:
            raise KernelInputError("the carried table must be writeable")
        narrow = all(a.dtype == np.int32 for a in (left, right, counts))
        dtype = np.int32 if narrow else np.int64
        left = np.ascontiguousarray(left, dtype=dtype)
        right = np.ascontiguousarray(right, dtype=dtype)
        counts = np.ascontiguousarray(counts, dtype=dtype)
        check_pair_ids(left, right, n1, n2)
        if counts.shape != left.shape:
            raise KernelInputError(
                f"counts must match left/right in shape, got {counts.shape} "
                f"and {left.shape}"
            )
        if len(left) == 0:
            return
        fold = (
            self._lib.repro_carried_fold_i32
            if narrow
            else self._lib.repro_carried_fold_i64
        )
        fold(
            buf.ctypes.data,
            n2,
            left.ctypes.data,
            right.ctypes.data,
            counts.ctypes.data,
            len(left),
        )

    def carried_extract(
        self,
        buf: np.ndarray,
        n1: int,
        n2: int,
        rows: np.ndarray,
        cols: np.ndarray,
        threshold: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One round's rows of a carried table: ``rows x cols`` at or above
        *threshold*.

        Returns int32 ``(left, right, score)`` columns in ascending
        packed-key order, scanning only the listed (strictly ascending)
        row and column ids.  Two C calls, like the join: a count pass
        sizing the outputs exactly, then a fill pass into them.

        Raises:
            KernelInputError: on a malformed buffer, row or column ids
                out of range or not strictly ascending, or
                ``threshold < 1``.
        """
        check_carried_buffer(buf, n1, n2)
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        check_ascending_ids(rows, n1, "rows")
        check_ascending_ids(cols, n2, "cols")
        if threshold < 1:
            raise KernelInputError(f"threshold must be >= 1, got {threshold}")
        if max(n1, n2) > 2**31 - 1:
            raise ValueError("carried extraction emits int32 node ids")
        empty = np.empty(0, dtype=np.int32)
        if threshold > 2**31 - 1:
            return empty, empty, empty  # no int32 score reaches it
        inputs = (
            buf.ctypes.data,
            n2,
            rows.ctypes.data,
            len(rows),
            cols.ctypes.data,
            len(cols),
            threshold,
        )
        extract = self._lib.repro_carried_extract
        found = int(extract(*inputs, None, None, None, 0))
        if found == 0:
            return empty, empty, empty
        out = [np.empty(found, dtype=np.int32) for _ in range(3)]
        written = int(extract(*inputs, *(a.ctypes.data for a in out), found))
        if written != found:
            raise RuntimeError(
                f"carried extraction wrote {written} of {found} counted rows"
            )
        return out[0], out[1], out[2]

    def mutual_best(
        self,
        left: np.ndarray,
        right: np.ndarray,
        score: np.ndarray,
        n1: int,
        n2: int,
        skip_ties: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mutual-best selection over thresholded score triples.

        Exact :func:`repro.core.kernels.select_mutual_best_arrays`
        semantics (the caller applies the threshold mask); one pass,
        no lexsort.  Three int32 columns (the ``_o32`` join's output)
        are read in place; anything else is widened to int64 first.

        Raises:
            KernelInputError: on unequal columns, an id out of range,
                or a score below 1 (the C pass reads 0 as "unseen").
        """
        narrow = all(a.dtype == np.int32 for a in (left, right, score))
        dtype = np.int32 if narrow else np.int64
        left = np.ascontiguousarray(left, dtype=dtype)
        right = np.ascontiguousarray(right, dtype=dtype)
        score = np.ascontiguousarray(score, dtype=dtype)
        check_pair_ids(left, right, n1, n2)
        if score.shape != left.shape:
            raise KernelInputError(
                f"score must match left/right in shape, got {score.shape} "
                f"and {left.shape}"
            )
        n = len(score)
        if n == 0:
            return _EMPTY, _EMPTY
        if score.min() < 1:
            raise KernelInputError(
                f"scores must be >= 1, got a minimum of {score.min()}"
            )
        cap = min(n, min(n1, n2)) if min(n1, n2) > 0 else 0
        out_l = np.empty(max(cap, 1), dtype=np.int64)
        out_r = np.empty(max(cap, 1), dtype=np.int64)
        if narrow:
            select, cols = self._lib.repro_mutual_best_i32, ctypes.c_void_p
        else:
            select = self._lib.repro_mutual_best
            cols = ctypes.POINTER(ctypes.c_int64)
        written = int(
            select(
                left.ctypes.data_as(cols),
                right.ctypes.data_as(cols),
                score.ctypes.data_as(cols),
                n,
                n1,
                n2,
                1 if skip_ties else 0,
                self._p64(out_l),
                self._p64(out_r),
            )
        )
        if written < 0:
            raise MemoryError("native mutual-best ran out of memory")
        return out_l[:written].copy(), out_r[:written].copy()

    def greedy_scan(
        self,
        ranked_left: np.ndarray,
        ranked_right: np.ndarray,
        n1: int,
        n2: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Greedy accept scan over pre-ranked pairs.

        Input must already be sorted by ``(-score, left, right)`` (the
        caller's lexsort); this is the sequential accept loop of
        :func:`repro.core.kernels.select_greedy_arrays` at C speed.

        Raises:
            KernelInputError: on unequal columns or an id out of range.
        """
        ranked_left = np.ascontiguousarray(ranked_left, dtype=np.int64)
        ranked_right = np.ascontiguousarray(ranked_right, dtype=np.int64)
        check_pair_ids(ranked_left, ranked_right, n1, n2)
        n = len(ranked_left)
        if n == 0:
            return _EMPTY, _EMPTY
        cap = min(n, min(n1, n2)) if min(n1, n2) > 0 else 0
        out_l = np.empty(max(cap, 1), dtype=np.int64)
        out_r = np.empty(max(cap, 1), dtype=np.int64)
        written = int(
            self._lib.repro_greedy_scan(
                self._p64(ranked_left),
                self._p64(ranked_right),
                n,
                n1,
                n2,
                self._p64(out_l),
                self._p64(out_r),
            )
        )
        if written < 0:
            raise MemoryError("native greedy scan ran out of memory")
        return out_l[:written].copy(), out_r[:written].copy()


def _build_dir() -> Path:
    """Where compiled objects live: override dir or a per-user cache.

    The per-user cache sits in the shared temp directory, where another
    local user could create it first and plant a library that
    :func:`_build_library` would then load as-is.  So it is created
    0700 and used only if it is a real directory owned by this user
    that no one else can write; otherwise this raises, which
    :func:`load_native_library` turns into the warned csr fallback.
    """
    override = os.environ.get("REPRO_NATIVE_DIR")
    if override:
        path = Path(override)
        path.mkdir(parents=True, exist_ok=True)
        return path
    path = Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = path.lstat()
    if (
        not stat.S_ISDIR(st.st_mode)
        or st.st_uid != os.getuid()
        or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        raise RuntimeError(
            f"refusing native build dir {path}: not a directory owned "
            "by this user and writable only by it"
        )
    return path


def _self_check(kernels: NativeKernels) -> None:
    """One join + mutual-best round trip on a hand-built pair of graphs.

    Both graphs are the same four nodes: 0 and 1 are linked, 2 is next
    to both, 3 is next to 0 only.  Link 0 witnesses every pair of
    ``{2, 3}``, link 1 only ``(2, 2)``, so the table is ``(2, 2): 2`` and
    1 elsewhere, and mutual-best (ties skipped) links just ``2 -> 2``.

    Raises:
        RuntimeError: if either kernel returns anything else.
    """
    indptr = np.array([0, 2, 3, 5, 6], dtype=np.int64)
    indices = np.array([2, 3, 2, 0, 1, 0], dtype=np.int64)
    links = np.array([0, 1], dtype=np.int64)
    free = np.array([False, False, True, True])
    left, right, counts, emitted = kernels.witness_join(
        indptr, indices, indptr, indices, links, links, free, free, 4, 4
    )
    table = (left.tolist(), right.tolist(), counts.tolist(), emitted)
    if table != ([2, 2, 3, 3], [2, 3, 2, 3], [2, 1, 1, 1], 5):
        raise RuntimeError(f"native self-check: wrong join table {table}")
    picked = kernels.mutual_best(left, right, counts, 4, 4, True)
    if [a.tolist() for a in picked] != [[2], [2]]:
        raise RuntimeError(f"native self-check: wrong selection {picked}")


def load_native_library(*, warn: bool = True) -> NativeKernels | None:
    """Compile (once) and load the native kernels, or fall back.

    Returns the cached :class:`NativeKernels` facade, or ``None`` —
    with a :class:`NativeFallbackWarning` naming the cause — when the
    ``REPRO_NATIVE_DISABLE`` kill-switch is set, no toolchain is
    available, compilation fails, or the object cannot be loaded.
    Failure is cached so the toolchain is probed once per process, but
    the kill-switch is re-read on every call (tests and CI toggle it).

    ``backend="native"`` callers treat ``None`` as "run the csr
    kernels" — the MapReduce-oracle property wall guarantees identical
    links.
    """
    global _CACHE
    if os.environ.get("REPRO_NATIVE_DISABLE") == "1":
        if warn:
            warnings.warn(
                "REPRO_NATIVE_DISABLE=1: backend='native' is running "
                "the csr kernels",
                NativeFallbackWarning,
                stacklevel=2,
            )
        return None
    if _CACHE is not None:
        if _CACHE:
            return _CACHE[0]
        if warn:
            warnings.warn(
                "native kernels unavailable (earlier compile/load "
                "failed); backend='native' is running the csr kernels",
                NativeFallbackWarning,
                stacklevel=2,
            )
        return None
    try:
        lib_path = _build_library(_build_dir())
        lib = _load_shared_library(lib_path)
        if lib is None:
            raise RuntimeError(f"could not load {lib_path}")
        kernels = NativeKernels(lib, lib_path)
        # A miscompiled object should fall back, not corrupt tables.
        _self_check(kernels)
    except Exception as exc:
        _CACHE = ()
        if warn:
            warnings.warn(
                f"could not build/load the native kernels ({exc!r}); "
                "backend='native' is running the csr kernels",
                NativeFallbackWarning,
                stacklevel=2,
            )
        return None
    _CACHE = (kernels,)
    return kernels


def native_available() -> bool:
    """Whether the compiled kernels can be (or already are) loaded."""
    return load_native_library(warn=False) is not None


def _reset_native_cache() -> None:
    """Testing hook: forget the cached load outcome."""
    global _CACHE
    _CACHE = None
