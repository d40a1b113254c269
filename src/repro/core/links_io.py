"""Persistence for identification links and reconciliation state.

A reconciliation system's output is the link set; these helpers persist
it in three forms:

- **TSV link files** (:func:`write_links` / :func:`read_links`):
  ``g1_node<TAB>g2_node``, ``#``-comments, ``.gz`` transparent — the
  paper's incremental-deployment loop ("use the newly generated set of
  links as input to the next phase").
- **Append-only JSONL event logs** (:class:`LinkStore`): one JSON
  object per line recording seeds, deltas, and per-round link batches
  as a reconciliation progresses.  Append-only means a crash loses at
  most the final partial line, and :meth:`LinkStore.events` detects
  exactly that (truncation raises :class:`~repro.errors.ReproError`).
- **npz score-table checkpoints** (:func:`save_checkpoint` /
  :func:`load_checkpoint`): the dense arrays + JSON metadata an
  :class:`~repro.incremental.engine.IncrementalReconciler` needs to
  stop, persist, and warm-resume in another process.  Checkpoints are
  pickle-free: every member is a plain numeric array, written
  uncompressed (``np.savez``) and read with ``allow_pickle=False``, so
  loading a file runs no code from it.  Node ids ride as ``int64``
  when every id is an ``int``, else as a UTF-8 buffer of
  :func:`format_node_token` tokens (:func:`encode_node_ids` /
  :func:`decode_node_ids`).  A write goes to a temporary sibling that
  is fsynced, renamed over the target with :func:`os.replace`, and
  then the directory is fsynced, so after a crash the path holds
  either the old checkpoint or the new one, and the rename survives
  power loss.
"""

from __future__ import annotations

import gzip
import json
import numbers
import os
from pathlib import Path
from typing import IO, Hashable, Iterable, Iterator, cast

import numpy as np

from repro.errors import ReproError

Node = Hashable

#: Key under which checkpoint metadata JSON rides inside the npz.
_META_KEY = "__meta_json__"

#: Checkpoint format written by :func:`save_checkpoint` and the only
#: one :func:`load_checkpoint` reads.  Version 2 is pickle-free (node
#: ids as ``int64`` or a token buffer, see :func:`encode_node_ids`);
#: version-1 files stored them pickled and are refused.
CHECKPOINT_VERSION = 2


def _open(path: Path, mode: str) -> IO[str]:
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _parse_node(token: str) -> object:
    """Decode one TSV token written by :func:`_format_node`.

    A leading ``"`` marks a JSON-quoted string (the escape hatch for
    ids that would otherwise corrupt the TSV or lose their type);
    int-like bare tokens are ints, everything else is the raw string.
    """
    if token.startswith('"'):
        try:
            value = json.loads(token)
        except ValueError:
            raise ReproError(
                f"malformed quoted node id {token!r}"
            ) from None
        if not isinstance(value, str):
            raise ReproError(
                f"quoted node id must decode to a string, got {value!r}"
            )
        return value
    try:
        return int(token)
    except ValueError:
        return token


def _format_node(node: Node, label: str) -> str:
    """Encode one node id as a TSV token that round-trips exactly.

    Ints are written bare.  Strings are written bare only when the
    bare form parses back to the identical string: anything int-like
    (``"1"`` must not come back as ``int`` 1), containing TSV
    structure (tab/newline/carriage return), starting with ``"`` or
    ``#``, or empty is JSON-quoted instead.  Any other type is
    rejected: link TSV, the event log and checkpoints all take only
    ``int`` and ``str`` ids.
    """
    if isinstance(node, bool):
        raise ReproError(
            f"{label}: cannot write node id {node!r}: only int and str "
            "ids round-trip through link TSV"
        )
    if isinstance(node, numbers.Integral):
        return str(int(node))
    if not isinstance(node, str):
        raise ReproError(
            f"{label}: cannot write node id {node!r} of type "
            f"{type(node).__name__}: only int and str ids round-trip "
            "through link TSV"
        )
    needs_quoting = (
        not node
        or node[0] in ('"', "#")
        or any(ch in node for ch in "\t\n\r")
    )
    if not needs_quoting:
        # Bare int-like strings would come back as ints; quote them.
        try:
            int(node)
        except ValueError:
            return node
        needs_quoting = True
    return json.dumps(node, ensure_ascii=False)


def write_links(
    links: dict[Node, Node], path: str | Path, header: str = ""
) -> None:
    """Write a link mapping as TSV (ids must be ints or strings).

    Ids round-trip exactly through :func:`read_links`: strings that
    would be ambiguous or corrupt the TSV (int-like, embedded
    tab/newline, leading ``"``/``#``, empty) are JSON-quoted on disk.
    Other id types raise :class:`ReproError` at write time instead of
    producing a file that mis-reads later.
    """
    path = Path(path)
    with _open(path, "w") as fh:
        fh.write(f"# links={len(links)}\n")
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for v1, v2 in links.items():
            left = _format_node(v1, "source")
            right = _format_node(v2, "target")
            fh.write(f"{left}\t{right}\n")


def read_links(path: str | Path) -> dict[Node, Node]:
    """Read a TSV link mapping written by :func:`write_links`.

    Int-like bare tokens come back as ints; JSON-quoted tokens come
    back as the exact string they encode (so a *string* id ``"1"``
    keeps its type).  Raises :class:`ReproError` on malformed lines or
    duplicate sources.
    """
    path = Path(path)
    links: dict[Node, Node] = {}
    with _open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ReproError(
                    f"{path}:{lineno}: expected 'v1<TAB>v2', got {line!r}"
                )
            v1 = _parse_node(parts[0])
            if v1 in links:
                raise ReproError(
                    f"{path}:{lineno}: duplicate source node {v1!r}"
                )
            links[v1] = _parse_node(parts[1])
    return links


def parse_node_token(token: str) -> object:
    """Decode a node-id token in the shared TSV/URL convention.

    Bare int-like tokens are ints; JSON-quoted tokens are the exact
    string they encode.  The serving layer uses the same convention in
    URL path segments, so a *string* id ``"1"`` is addressable without
    colliding with the *int* id ``1``.
    """
    return _parse_node(token)


def format_node_token(node: Node) -> str:
    """Encode a node id in the shared TSV/URL token convention.

    Inverse of :func:`parse_node_token`; raises :class:`ReproError`
    for ids that are neither ints nor strings.
    """
    return _format_node(node, "node")


# ----------------------------------------------------------------------
# Append-only JSONL event log
# ----------------------------------------------------------------------
class LinkStore:
    """Append-only JSONL log of a reconciliation's link history.

    Each :meth:`append` writes one JSON object per line; the file is
    opened, written, flushed, fsynced, and closed per event (the append
    that starts an empty log also fsyncs its directory), so concurrent
    readers always see whole lines and — with *fsync* left on — a crash
    or power loss loses at most the event being written.
    Node ids must be JSON-representable (ints and strings round-trip
    exactly, as in link TSV and checkpoints).

    Parameters
    ----------
    path : str or Path
        Log location; parent directories must exist.  A missing file
        is an empty store.
    fsync : bool, optional
        Force every appended event to stable storage with
        :func:`os.fsync` (the default).  ``False`` keeps the
        flush-per-event (whole lines for concurrent readers) but lets
        the OS schedule the disk write — an unclean *power loss* can
        then drop recent events; use it only where the log is
        disposable (tests, benchmarks).

    Examples
    --------
    >>> store = LinkStore(tmp / "run.jsonl")      # doctest: +SKIP
    >>> store.append_seeds({1: 10})               # doctest: +SKIP
    >>> store.append_links({2: 20}, round=1)      # doctest: +SKIP
    >>> store.links()                             # doctest: +SKIP
    {1: 10, 2: 20}
    """

    def __init__(self, path: "str | Path", *, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync

    # ------------------------------------------------------------------
    def append(self, event: dict) -> None:
        """Append one event object as a JSON line (durably by default).

        Parameters
        ----------
        event : dict
            JSON-serializable payload; by convention carries a
            ``"type"`` key (``"seeds"``, ``"links"``, ``"delta"``, ...).
        """
        line = json.dumps(event, separators=(",", ":"))
        with open(self.path, "a", encoding="utf-8") as fh:
            created = fh.tell() == 0
            fh.write(line + "\n")
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        if created and self.fsync:
            # A fresh log's directory entry is not durable until its
            # directory is fsynced too; later appends only extend it.
            _fsync_directory(self.path.parent)

    def append_seeds(self, seeds: dict[Node, Node]) -> None:
        """Record the seed links a reconciliation starts from."""
        self.append(
            {"type": "seeds", "links": [[v1, v2] for v1, v2 in seeds.items()]}
        )

    def append_links(
        self, links: dict[Node, Node], *, round: int | None = None
    ) -> None:
        """Record a batch of newly selected links (one round / delta)."""
        event: dict = {
            "type": "links",
            "links": [[v1, v2] for v1, v2 in links.items()],
        }
        if round is not None:
            event["round"] = round
        self.append(event)

    def append_delta(self, summary: dict) -> None:
        """Record that a graph delta was applied (summary only)."""
        self.append({"type": "delta", **summary})

    def append_retractions(self, nodes: "Iterable[Node]") -> None:
        """Record links withdrawn by a delta (g1 endpoints).

        Edge removals — or even additions, via mutual-best flips — can
        invalidate previously confirmed links; retraction events keep
        :meth:`links` replay exact.
        """
        self.append({"type": "retract", "nodes": list(nodes)})

    # ------------------------------------------------------------------
    def events(self) -> Iterator[dict]:
        """Yield every logged event in append order.

        Raises
        ------
        ReproError
            If a line is not valid JSON or the final line is truncated
            (missing its newline) — the caller decides whether to
            repair or discard.
        """
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith("\n"):
                    raise ReproError(
                        f"{self.path}:{lineno}: truncated event line "
                        "(no trailing newline) — the log was cut off "
                        "mid-write"
                    )
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    event = json.loads(stripped)
                except ValueError as exc:
                    raise ReproError(
                        f"{self.path}:{lineno}: invalid JSON event "
                        f"({exc})"
                    ) from None
                if not isinstance(event, dict):
                    raise ReproError(
                        f"{self.path}:{lineno}: event must be a JSON "
                        f"object, got {type(event).__name__}"
                    )
                yield event

    def links(self) -> dict[Node, Node]:
        """Replay the log into the cumulative link mapping.

        ``seeds`` and ``links`` events accumulate in order (later
        confirmations overwrite earlier ones, mirroring how the
        incremental engine treats re-confirmed seeds); ``retract``
        events withdraw links by g1 endpoint.
        """
        out: dict[Node, Node] = {}
        for event in self.events():
            kind = event.get("type")
            if kind in ("seeds", "links"):
                for v1, v2 in event.get("links", []):
                    out[v1] = v2
            elif kind == "retract":
                for v1 in event.get("nodes", []):
                    out.pop(v1, None)
        return out

    def __repr__(self) -> str:
        return f"LinkStore({str(self.path)!r})"


# ----------------------------------------------------------------------
# npz score-table checkpoints
# ----------------------------------------------------------------------
def encode_node_ids(nodes: "list[Node]") -> np.ndarray:
    """Node ids as a pickle-free array that :func:`decode_node_ids` inverts.

    When every id is exactly ``int`` and fits ``int64`` the result is an
    ``int64`` array.  Otherwise each id is written as its
    :func:`format_node_token` token and the tokens are joined by
    newlines into one ``uint8`` UTF-8 buffer (a token never holds a
    newline: strings containing one are JSON-quoted).

    Raises
    ------
    ReproError
        If an id is neither an ``int`` nor a ``str`` (``bool`` and
        numpy integers included: they would come back as plain ints);
        the message names the id's type.
    """
    types = set(map(type, nodes))
    if types <= {int}:
        try:
            return np.fromiter(nodes, dtype=np.int64, count=len(nodes))
        except OverflowError:
            pass  # ints past int64 travel as tokens
    if not types <= {int, str}:
        bad = next(v for v in nodes if type(v) not in (int, str))
        raise ReproError(
            f"cannot checkpoint node id {bad!r} of type "
            f"{type(bad).__name__}: only int and str ids are stored"
        )
    text = "\n".join(map(format_node_token, nodes))
    return np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)


def decode_node_ids(ids: np.ndarray) -> "list[Node]":
    """The node ids an :func:`encode_node_ids` array holds.

    Raises
    ------
    ReproError
        If *ids* has neither encoding.
    """
    if ids.ndim == 1 and ids.dtype == np.int64:
        return cast("list[Node]", ids.tolist())
    if ids.ndim == 1 and ids.dtype == np.uint8:
        text = ids.tobytes().decode("utf-8", "surrogatepass")
        tokens = text.split("\n") if text else []
        return cast("list[Node]", list(map(parse_node_token, tokens)))
    raise ReproError(
        f"node id array has dtype {ids.dtype} (expected int64 ids "
        "or a uint8 token buffer)"
    )


def _fsync_directory(directory: Path) -> None:
    """Make a rename inside *directory* durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_checkpoint(
    path: "str | Path", arrays: dict[str, np.ndarray], meta: dict
) -> None:
    """Durably and atomically write a checkpoint of arrays plus JSON metadata.

    Parameters
    ----------
    path : str or Path
        Target file (conventionally ``*.npz``).  The arrays go to a
        temporary sibling ``<path>.tmp``, which is fsynced and then
        renamed over *path* with :func:`os.replace`; the directory is
        fsynced last.  Readers never see a half-written checkpoint, and
        a crash at any point leaves either the old file or the new one
        at *path* (a stray ``.tmp`` is never read).
    arrays : dict of str to ndarray
        Named numeric arrays, stored uncompressed.  Object arrays are
        refused: checkpoints never hold pickles (see
        :func:`encode_node_ids` for node ids).
    meta : dict
        JSON-serializable metadata stored alongside the arrays, under
        ``"version": CHECKPOINT_VERSION``.

    Raises
    ------
    ReproError
        If an array name or the ``"version"`` meta key is reserved, or
        an array has object dtype.
    """
    path = Path(path)
    if _META_KEY in arrays:
        raise ReproError(f"array name {_META_KEY!r} is reserved")
    if "version" in meta:
        raise ReproError(
            "meta key 'version' is reserved: save_checkpoint stamps "
            "the format version itself"
        )
    for name, arr in arrays.items():
        if np.asarray(arr).dtype.hasobject:
            raise ReproError(
                f"checkpoint array {name!r} has object dtype; checkpoints "
                "are pickle-free, so store plain numeric arrays"
            )
    payload = dict(arrays)
    payload[_META_KEY] = np.frombuffer(
        json.dumps({"version": CHECKPOINT_VERSION, **meta}).encode("utf-8"),
        dtype=np.uint8,
    )
    # Stream straight into a temporary sibling (passing an open handle
    # also stops numpy from appending '.npz' to the name).  Members are
    # stored, not deflated: numpy writes each in chunks of at most
    # 16 MiB, so peak memory stays flat.
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_directory(path.parent)


def load_checkpoint(
    path: "str | Path",
) -> tuple[dict[str, np.ndarray], dict]:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Parameters
    ----------
    path : str or Path
        The checkpoint file.

    Returns
    -------
    (arrays, meta) : tuple
        The named arrays and the caller's metadata dict (without the
        ``"version"`` key :func:`save_checkpoint` stamped).

    Raises
    ------
    ReproError
        If the file is missing, truncated, or not a valid checkpoint
        (including a zip/npz that lacks the metadata member), has a
        format version other than :data:`CHECKPOINT_VERSION` (checked
        before any array is read), or holds a pickled (object) member,
        which is refused unread and never unpickled.
    """
    path = Path(path)
    if not path.exists():
        raise ReproError(f"checkpoint {path} does not exist")
    try:
        # Own the handle: np.load leaks it when the zip is unreadable.
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            if _META_KEY not in data.files:
                raise ReproError(
                    f"checkpoint {path} has no metadata — not written "
                    "by save_checkpoint?"
                )
            meta = json.loads(bytes(data[_META_KEY]).decode("utf-8"))
            found = meta.pop("version", None)
            if found != CHECKPOINT_VERSION:
                raise ReproError(_version_message(path, found))
            arrays = {k: data[k] for k in data.files if k != _META_KEY}
    except ReproError:
        raise
    except Exception as exc:
        raise ReproError(
            f"checkpoint {path} is unreadable or truncated: {exc!r}"
        ) from exc
    return arrays, meta


def _version_message(path: Path, found: object) -> str:
    if isinstance(found, int) and found < CHECKPOINT_VERSION:
        return (
            f"checkpoint {path} has format version {found}, an older "
            "format this build no longer reads (version "
            f"{CHECKPOINT_VERSION} is pickle-free); it must be "
            "rewritten: rebuild the state without resuming to write a "
            "new checkpoint"
        )
    return (
        f"checkpoint {path} has format version {found!r}; this build "
        f"reads version {CHECKPOINT_VERSION}"
    )
