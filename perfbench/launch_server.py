"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python perfbench/launch_server.py serve <repro serve flags>``,
with ``PERFBENCH_TRACE_DIR`` naming where spans go.  The process answers
two signals:

- ``SIGUSR1`` writes every span recorded so far to
  ``$PERFBENCH_TRACE_DIR/<pid>.json`` (the client sends it before it
  kills or stops the server, whose in-memory spans would otherwise be
  lost);
- ``SIGUSR2`` switches span recording off or on and writes the new
  state to ``$PERFBENCH_TRACE_DIR/<pid>.state``, so one run can time
  writes both with and without spans.

``PERFBENCH_SPAWNED_NS`` (the client's ``time.monotonic_ns()`` at spawn)
gives ``process.start.s``: interpreter start and imports until the serve
entry point runs.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def main() -> int:
    import signal

    from perfbench.serve import install_server_wrappers
    from perfbench.trace import Patches, Tracer

    trace_dir = Path(os.environ["PERFBENCH_TRACE_DIR"])
    spawned_ns = int(os.environ["PERFBENCH_SPAWNED_NS"])
    pid = os.getpid()
    tracer = Tracer()
    install_server_wrappers(Patches(tracer))
    from repro.cli import main as repro_main

    def write_atomically(name: str, text: str) -> None:
        tmp = trace_dir / f".{name}.tmp"
        tmp.write_text(text)
        os.replace(tmp, trace_dir / name)

    def dump(signum: int, frame: object) -> None:
        document = {
            "pid": pid,
            "spawned_ns": spawned_ns,
            "entered_ns": entered_ns,
            "spans": tracer.export(),
        }
        write_atomically(f"{pid}.json", json.dumps(document))

    def toggle(signum: int, frame: object) -> None:
        tracer.enabled = not tracer.enabled
        write_atomically(f"{pid}.state", "1" if tracer.enabled else "0")

    entered_ns = time.monotonic_ns()
    signal.signal(signal.SIGUSR1, dump)
    signal.signal(signal.SIGUSR2, toggle)
    return repro_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
