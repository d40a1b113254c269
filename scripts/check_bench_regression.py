#!/usr/bin/env python
"""CI perf-regression gate over the ``BENCH_*.json`` trajectory.

Compares a freshly produced ``pytest-benchmark`` JSON against the
committed baseline of the same suite and **fails (exit 1) when any
shared benchmark's mean slowed down by more than the threshold**
(default 1.5x).  The gate is what turns the committed ``BENCH_kernels``
/ ``BENCH_pruning`` / ``BENCH_serving`` files from upload-only
artifacts into an enforced floor: a PR that accidentally serializes the
witness join or deoptimizes a kernel turns the bench-smoke job red
instead of silently rotting the trajectory.

Noise tolerance:

- benchmarks whose baseline mean is below their noise floor (default
  1 ms via ``--min-seconds``) are reported but never fail the gate — at
  that scale the ratio measures the allocator and the CI runner's
  scheduler, not the code.  The floor is per-benchmark-configurable
  with repeatable ``--floor SUBSTRING=SECONDS`` overrides (longest
  matching substring wins), because one global floor is wrong in both
  directions: a microkernel suite may need a 0.1 ms floor to gate at
  all, while a jittery end-to-end suite may need 10 ms to stop
  crying wolf;
- only benchmarks present in *both* files are compared (a renamed or
  new benchmark is a baseline refresh, not a regression) — but if the
  two files share *no* benchmarks the gate fails loudly, because that
  means it is comparing the wrong files;
- the comparison uses each benchmark's reported ``stats.mean`` over all
  rounds, not a single sample.

Backend columns: every benchmark name is classified by its backend
suffix (``_csr``, ``_native``, else ``any``: backend-independent)
and the delta table is grouped per backend with its own verdict line,
so a regression in one backend's column cannot hide inside an
improvement in another's.  Fresh benchmarks with no baseline entry yet
(a backend column newly added to the suite) are *skipped with a printed
note* — adding a column is a baseline refresh, not a regression and not
an error.

Usage::

    python scripts/check_bench_regression.py BASELINE FRESH \
        [--threshold 1.5] [--min-seconds 0.001] [--label kernels] \
        [--floor SUBSTRING=SECONDS ...]

Exit codes: 0 = no regression, 1 = regression (or nothing comparable),
2 = bad invocation/unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_means(path: str) -> dict[str, float]:
    """``{benchmark fullname: mean seconds}`` from a pytest-benchmark JSON.

    ``fullname`` (e.g. ``bench_pruning.py::test_bench_matcher_pruning
    [pruning=community]``) disambiguates parametrized variants; plain
    ``name`` is used for entries that lack it.
    """
    with open(path) as handle:
        data = json.load(handle)
    means: dict[str, float] = {}
    for bench in data.get("benchmarks", []):
        key = bench.get("fullname") or bench["name"]
        means[key] = float(bench["stats"]["mean"])
    return means


#: Report order of the backend columns.
BACKENDS = ("any", "csr", "native")


def backend_of(name: str) -> str:
    """Backend column a benchmark belongs to, from its name suffix.

    Suffix convention of the bench suites: ``test_bench_foo_csr`` /
    ``_native`` run one backend each; an unsuffixed ``test_bench_foo``
    does not depend on the backend (column ``any``).  Parametrized
    variants keep their ``[...]`` id out of the match.
    """
    stem = name.split("[", 1)[0].rstrip()
    if stem.endswith("_native"):
        return "native"
    if stem.endswith("_csr"):
        return "csr"
    return "any"


def floor_for(
    name: str,
    default: float,
    overrides: list[tuple[str, float]],
) -> float:
    """Noise floor for *name*: longest matching override, else *default*.

    Overrides are ``(substring, seconds)`` pairs from ``--floor``; a
    benchmark matches when the substring occurs in its fullname.  The
    longest matching substring wins, so a suite-wide override
    (``bench_kernels``) can coexist with a benchmark-specific one
    (``bench_kernels.py::test_bench_pack``).
    """
    best, best_len = default, -1
    for substring, seconds in overrides:
        if substring in name and len(substring) > best_len:
            best, best_len = seconds, len(substring)
    return best


def compare(
    baseline: dict[str, float],
    fresh: dict[str, float],
    threshold: float,
    min_seconds: float,
    floors: list[tuple[str, float]] | None = None,
) -> tuple[list[tuple[str, float, float, float, str]], list[str]]:
    """Delta rows + regressed benchmark names for two mean tables.

    Returns ``(rows, regressions)`` where each row is ``(name,
    baseline_mean, fresh_mean, ratio, verdict)`` and *regressions* lists
    the shared benchmarks that slowed past *threshold* with a baseline
    mean at or above their noise floor (*min_seconds*, unless a
    ``--floor`` override in *floors* matches the name).
    """
    rows: list[tuple[str, float, float, float, str]] = []
    regressions: list[str] = []
    for name in sorted(set(baseline) & set(fresh)):
        base = baseline[name]
        now = fresh[name]
        floor = floor_for(name, min_seconds, floors or [])
        ratio = now / base if base > 0 else float("inf")
        if ratio <= threshold:
            verdict = "ok"
        elif base < floor:
            verdict = f"noise (under {floor * 1e3:g} ms floor)"
        else:
            verdict = "REGRESSION"
            regressions.append(name)
        rows.append((name, base, now, ratio, verdict))
    return rows, regressions


def format_delta_table(
    rows: list[tuple[str, float, float, float, str]]
) -> str:
    """Render the delta rows as an aligned ASCII table."""
    header = ("benchmark", "baseline", "fresh", "ratio", "verdict")
    body = [
        (name, f"{base * 1e3:.3f} ms", f"{now * 1e3:.3f} ms",
         f"{ratio:.2f}x", verdict)
        for name, base, now, ratio, verdict in rows
    ]
    table = [header, *body]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in table
    ]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        description=(
            "fail when a fresh pytest-benchmark run regressed past the "
            "committed baseline"
        )
    )
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument("fresh", help="freshly produced benchmark JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        help="max allowed fresh/baseline mean ratio (default 1.5)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.001,
        help=(
            "baseline means below this never fail the gate "
            "(default 0.001 s: sub-millisecond ratios are noise)"
        ),
    )
    parser.add_argument(
        "--floor",
        action="append",
        default=[],
        metavar="SUBSTRING=SECONDS",
        help=(
            "per-benchmark noise-floor override (repeatable): any "
            "benchmark whose fullname contains SUBSTRING uses this "
            "floor instead of --min-seconds; the longest matching "
            "SUBSTRING wins"
        ),
    )
    parser.add_argument(
        "--label",
        default=None,
        help="suite name used in the report headline",
    )
    args = parser.parse_args(argv)
    if args.threshold <= 0 or args.min_seconds < 0:
        parser.error("threshold must be > 0 and min-seconds >= 0")
    floors: list[tuple[str, float]] = []
    for spec in args.floor:
        substring, eq, seconds = spec.partition("=")
        try:
            value = float(seconds)
        except ValueError:
            value = -1.0
        if not eq or not substring or value < 0:
            parser.error(
                f"--floor expects SUBSTRING=SECONDS with SECONDS >= 0, "
                f"got {spec!r}"
            )
        floors.append((substring, value))
    label = args.label or args.fresh
    try:
        baseline = load_means(args.baseline)
        fresh = load_means(args.fresh)
    except (OSError, ValueError, KeyError) as exc:
        print(f"[{label}] cannot load benchmark JSON: {exc!r}")
        return 2
    rows, regressions = compare(
        baseline, fresh, args.threshold, args.min_seconds, floors
    )
    if not rows:
        print(
            f"[{label}] no shared benchmarks between "
            f"{args.baseline} and {args.fresh} — wrong files?"
        )
        return 1
    print(f"[{label}] {len(rows)} shared benchmarks, "
          f"threshold {args.threshold:.2f}x, "
          f"noise floor {args.min_seconds * 1e3:.1f} ms"
          + (f" ({len(floors)} per-benchmark override(s))"
             if floors else ""))
    for backend in BACKENDS:
        group = [r for r in rows if backend_of(r[0]) == backend]
        if not group:
            continue
        bad = [name for name in regressions if backend_of(name) == backend]
        verdict = (
            f"REGRESSION ({len(bad)} of {len(group)})" if bad
            else f"ok ({len(group)} benchmarks)"
        )
        print(f"[{label}] backend {backend}: {verdict}")
        print(format_delta_table(group))
    skipped = sorted(set(fresh) - set(baseline))
    if skipped:
        print(
            f"[{label}] note: {len(skipped)} fresh benchmark(s) have no "
            "baseline entry yet (skipped, refresh the baseline to gate "
            "them): " + ", ".join(skipped)
        )
    if regressions:
        print(
            f"[{label}] FAIL: {len(regressions)} benchmark(s) regressed "
            f"past {args.threshold:.2f}x: " + ", ".join(regressions)
        )
        return 1
    print(f"[{label}] OK: no benchmark regressed past the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
