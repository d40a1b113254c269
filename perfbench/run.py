"""Benchmark entry point.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload rmat-native --seed 1 --seconds 10 --trace 0

Workloads: ``rmat-native`` and ``affiliation-pruned`` (batch
reconciliation, :mod:`perfbench.batch`) and ``serve-stream`` (a durable
served stream, :mod:`perfbench.serve`).  ``--trace 0`` prints the
end-to-end metrics, measured with no wrappers installed; ``--trace 1``
is a separate run that wraps the program's layers and prints the
per-layer metrics, including the tracing overhead.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Any wrong output, unexpected HTTP status or exception of
the program counts as a failed operation: an exception stops the run, which
still prints the result and exits 1.  When the program's sources are
missing the run prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import batch, serve  # noqa: E402
from perfbench.common import (  # noqa: E402
    END_TO_END,
    BenchmarkError,
    Tally,
    prepare_environment,
)

WORKLOADS = ("rmat-native", "affiliation-pruned", "serve-stream")


def _parse(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: "list[str] | None" = None) -> int:
    args = _parse(argv)
    tally = Tally()
    try:
        env = prepare_environment()
        if args.workload == "serve-stream":
            outcome = serve.run(args.seed, args.seconds, bool(args.trace), env, tally)
        else:
            outcome = batch.run(
                args.workload, args.seed, args.seconds, bool(args.trace), tally
            )
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # The operation under way raised; it is already attempted.
        traceback.print_exc()
        tally.failed += 1
        tally.attempted = max(tally.attempted, tally.failed)
        outcome = {"metrics": {}, "counters": {"stopped": True}}
    # Every workload reports every metric; one it never measured is 0.
    units = (
        {**batch.LAYER_METRICS, **serve.LAYER_METRICS} if args.trace else END_TO_END
    )
    metrics = outcome["metrics"]
    metrics = {name: metrics.get(name, (0, unit)) for name, unit in units.items()}
    correct = tally.failed == 0
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} "
        + json.dumps(outcome["counters"], sort_keys=True)
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
