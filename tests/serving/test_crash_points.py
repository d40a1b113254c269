"""Crash-point wall for the serving layer's durable writes.

A service dies at each of its write points — the log append, the
checkpoint's temporary write, its fsync, the ``os.replace`` that swaps
it in, and the directory fsync after it — and is then resumed from what
the crash left on disk.  The resumed service must serve links, version
and per-round phases bit-identical to an uninterrupted service at the
same version, or refuse loudly with :class:`ReproError`.  A crash kills
the process before any cleanup runs, so every scenario also leaves a
stray ``<checkpoint>.tmp`` behind — a complete, valid checkpoint of a
*different* state — which resume must never load.
"""

import asyncio
import os
import stat

import pytest

from repro.core import links_io
from repro.core.links_io import LinkStore
from repro.errors import ReproError
from repro.serving.service import ReconciliationService

from serving_helpers import make_engine

#: Batch whose submission crashes; with ``checkpoint_every=2`` it is a
#: checkpointing batch.
CRASH_BATCH = 2

#: Crash points inside a checkpoint write, in write order.
CHECKPOINT_POINTS = ["temp-write", "temp-fsync", "replace", "dir-fsync"]


class InjectedCrash(Exception):
    """The simulated process death at a write point."""


def crash(point):
    raise InjectedCrash(point)


def arm(m, point, path):
    """Make the next write at *point* raise :class:`InjectedCrash`.

    *m* is a monkeypatch context; *path* the service's checkpoint.
    ``log-append-<type>`` crashes before an event of that type is
    appended, ``log-torn`` after half a line is written.
    """
    tmp = path.with_name(path.name + ".tmp")
    real_append = LinkStore.append
    real_fsync = os.fsync

    def append(self, event):
        if point == "log-torn":
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write('{"type": "delta", "batch": ')
            crash(point)
        if event.get("type") == point.removeprefix("log-append-"):
            crash(point)
        real_append(self, event)

    def savez(fh, **payload):
        fh.write(b"PK\x03\x04 half an archive")
        crash(point)

    def replace(src, dst):
        crash(point)

    def fsync(fd):
        st = os.fstat(fd)
        if point == "dir-fsync" and stat.S_ISDIR(st.st_mode):
            crash(point)
        if point == "temp-fsync" and tmp.exists():
            if os.path.samestat(st, os.stat(tmp)):
                crash(point)
        real_fsync(fd)

    if point.startswith("log-"):
        m.setattr(LinkStore, "append", append)
    elif point == "temp-write":
        m.setattr(links_io.np, "savez", savez)
    elif point == "replace":
        m.setattr(links_io.os, "replace", replace)
    else:
        assert point in ("temp-fsync", "dir-fsync"), point
        m.setattr(links_io.os, "fsync", fsync)


def state(service):
    """What a reader sees: version, links and the per-round phases."""
    return service.version, service.links, service.engine.result.phases


@pytest.fixture(scope="module")
def references(workload):
    """State of an uninterrupted in-memory service after 0..4 batches."""
    pair, seeds, deltas = workload

    async def go():
        service = ReconciliationService(make_engine(pair, seeds))
        await service.start()
        states = [state(service)]
        for delta in deltas:
            await service.submit(delta)
            states.append(state(service))
        await service.close()
        return states

    return asyncio.run(go())


@pytest.fixture(scope="module")
def decoy(tmp_path_factory, workload):
    """Bytes of a valid serving checkpoint that no scenario reaches."""
    pair, seeds, deltas = workload
    engine = make_engine(pair, dict(list(seeds.items())[::2]))
    for delta in deltas:
        engine.apply(delta)
    path = tmp_path_factory.mktemp("decoy") / "decoy.npz"
    engine.save_checkpoint(path, extra_meta={"serving": {"batches_done": 4}})
    return path.read_bytes()


def plant_stray_tmp(path, decoy):
    """What a kill -9 mid-write leaves: a ``.tmp`` next to the target."""
    path.with_name(path.name + ".tmp").write_bytes(decoy)


def finish(service, deltas):
    """Start a resumed service, feed it the rest, return its state."""

    async def go():
        await service.start()
        for delta in deltas[service.version :]:
            await service.submit(delta)
        final = state(service)
        await service.close()
        return final

    return asyncio.run(go())


@pytest.mark.parametrize(
    "point, survives",
    [
        ("log-append-delta", CRASH_BATCH - 1),
        ("log-append-links", CRASH_BATCH),
        ("log-torn", None),
        *[(point, CRASH_BATCH) for point in CHECKPOINT_POINTS],
    ],
)
def test_crash_mid_batch_resumes_exactly_or_refuses(
    tmp_path, monkeypatch, workload, references, decoy, point, survives
):
    """A crash while writing batch 2 resumes to the last durable batch.

    The batch survives once its delta line is in the log: every
    checkpoint point lies after it, so a failed checkpoint only means a
    longer log tail.  A torn delta line is refused loudly.
    """
    pair, seeds, deltas = workload
    path = tmp_path / "serve.npz"

    async def run_until_crash():
        service = ReconciliationService(
            make_engine(pair, seeds), checkpoint_path=path, checkpoint_every=2
        )
        await service.start()
        for delta in deltas[: CRASH_BATCH - 1]:
            await service.submit(delta)
        with monkeypatch.context() as m:
            arm(m, point, path)
            with pytest.raises(InjectedCrash):
                await service.submit(deltas[CRASH_BATCH - 1])
        service.abort()

    asyncio.run(run_until_crash())
    plant_stray_tmp(path, decoy)
    if survives is None:
        with pytest.raises(ReproError, match="truncated"):
            ReconciliationService.resume(path)
        return
    resumed = ReconciliationService.resume(path)
    assert state(resumed) == references[survives]
    assert finish(resumed, deltas) == references[-1]


@pytest.mark.parametrize("old_end", ["close", "abort"])
@pytest.mark.parametrize("point", [*CHECKPOINT_POINTS, "log-append-seeds"])
def test_crash_in_fresh_start_over_old_files(
    tmp_path, monkeypatch, workload, references, decoy, point, old_end
):
    """A fresh service booting over an old service's checkpoint and log
    crashes while writing its boot state.  Resume gives the old
    service's last checkpoint or the new service's first state — never
    the new checkpoint with the old log's deltas replayed on top.

    The old service ran 3 batches with a checkpoint every 2.  Closed,
    its last checkpoint holds batch 3.  Killed, it holds batch 2 and
    batch 3 lived only in the log, which the fresh start removes first;
    a crash before the new checkpoint lands then resumes batch 2 — the
    documented limit of a fresh start over a killed service.
    """
    pair, seeds, deltas = workload
    path = tmp_path / "serve.npz"

    async def old_run():
        service = ReconciliationService(
            make_engine(pair, seeds), checkpoint_path=path, checkpoint_every=2
        )
        await service.start()
        for delta in deltas[:3]:
            await service.submit(delta)
        if old_end == "close":
            await service.close()
        else:
            service.abort()

    async def new_boot():
        service = ReconciliationService(
            make_engine(pair, dict(list(seeds.items())[1::2])),
            checkpoint_path=path,
        )
        fresh = state(service)
        with monkeypatch.context() as m:
            arm(m, point, path)
            with pytest.raises(InjectedCrash):
                await service.start()
        service.abort()
        return fresh

    asyncio.run(old_run())
    new_first = asyncio.run(new_boot())
    plant_stray_tmp(path, decoy)
    resumed = state(ReconciliationService.resume(path))
    old_checkpoint = references[3 if old_end == "close" else 2]
    replaced = point in ("dir-fsync", "log-append-seeds")
    assert resumed == (new_first if replaced else old_checkpoint)


def test_stray_tmp_is_overwritten_by_the_next_checkpoint(
    tmp_path, workload, decoy
):
    pair, seeds, _deltas = workload
    path = tmp_path / "serve.npz"
    plant_stray_tmp(path, decoy)

    async def go():
        service = ReconciliationService(
            make_engine(pair, seeds), checkpoint_path=path
        )
        await service.start()
        await service.close()

    asyncio.run(go())
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "serve.npz",
        "serve.npz.jsonl",
    ]
    assert path.read_bytes() != decoy
