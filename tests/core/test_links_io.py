"""Unit tests for link persistence."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.links_io import (
    CHECKPOINT_VERSION,
    LinkStore,
    decode_node_ids,
    encode_node_ids,
    load_checkpoint,
    read_links,
    save_checkpoint,
    write_links,
)
from repro.errors import ReproError


#: Appended to whenever a :class:`_Tripwire` is unpickled.
TRIPPED = []


def _trip():
    TRIPPED.append(True)


class _Tripwire:
    """Runs :func:`_trip` when it is unpickled."""

    def __reduce__(self):
        return (_trip, ())


class TestLinksRoundTrip:
    def test_int_ids(self, tmp_path):
        links = {1: 10, 2: 20}
        path = tmp_path / "links.tsv"
        write_links(links, path)
        assert read_links(path) == links

    def test_string_ids(self, tmp_path):
        links = {"fr:42": "de:42", "fr:7": "de:9"}
        path = tmp_path / "links.tsv"
        write_links(links, path)
        assert read_links(path) == links

    def test_gzip(self, tmp_path):
        links = {i: i + 100 for i in range(50)}
        path = tmp_path / "links.tsv.gz"
        write_links(links, path)
        assert read_links(path) == links

    def test_header_comment(self, tmp_path):
        path = tmp_path / "links.tsv"
        write_links({1: 2}, path, header="threshold=2\niterations=2")
        text = path.read_text()
        assert "# threshold=2" in text
        assert read_links(path) == {1: 2}

    def test_malformed_raises(self, tmp_path):
        path = tmp_path / "links.tsv"
        path.write_text("only-one-column\n")
        with pytest.raises(ReproError):
            read_links(path)

    def test_duplicate_source_raises(self, tmp_path):
        path = tmp_path / "links.tsv"
        path.write_text("1\t2\n1\t3\n")
        with pytest.raises(ReproError):
            read_links(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "links.tsv"
        write_links({}, path)
        assert read_links(path) == {}


class TestSeedingLoop:
    def test_saved_links_seed_a_second_run(self, tmp_path, pa_pair, pa_seeds):
        """The incremental-deployment loop: run, persist, reload, rerun."""
        from repro.core.config import MatcherConfig
        from repro.core.matcher import UserMatching

        first = UserMatching(
            MatcherConfig(threshold=3, iterations=1)
        ).run(pa_pair.g1, pa_pair.g2, pa_seeds)
        path = tmp_path / "links.tsv"
        write_links(first.links, path)
        reloaded = read_links(path)
        second = UserMatching(
            MatcherConfig(threshold=3, iterations=1)
        ).run(pa_pair.g1, pa_pair.g2, reloaded)
        assert len(second.links) >= len(first.links)
        for v1, v2 in first.links.items():
            assert second.links[v1] == v2


class TestLinkStore:
    def test_append_and_replay(self, tmp_path):
        store = LinkStore(tmp_path / "run.jsonl")
        store.append_seeds({1: 10, 2: 20})
        store.append_links({3: 30}, round=1)
        store.append_delta({"added_edges": 4})
        events = list(store.events())
        assert [e["type"] for e in events] == ["seeds", "links", "delta"]
        assert events[1]["round"] == 1
        assert store.links() == {1: 10, 2: 20, 3: 30}

    def test_missing_file_is_empty(self, tmp_path):
        store = LinkStore(tmp_path / "absent.jsonl")
        assert list(store.events()) == []
        assert store.links() == {}

    def test_empty_store_round_trips_empty_result(self, tmp_path):
        store = LinkStore(tmp_path / "run.jsonl")
        store.append_seeds({})
        store.append_links({}, round=1)
        assert store.links() == {}

    def test_unicode_node_ids(self, tmp_path):
        store = LinkStore(tmp_path / "run.jsonl")
        links = {"fr:héros": "de:größe", "日本": "中文"}
        store.append_links(links)
        assert store.links() == links

    def test_later_confirmations_overwrite(self, tmp_path):
        store = LinkStore(tmp_path / "run.jsonl")
        store.append_seeds({1: 10})
        store.append_links({1: 11})
        assert store.links() == {1: 11}

    def test_truncated_final_line_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        store = LinkStore(path)
        store.append_seeds({1: 10})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "links", "links": [[2,')  # no newline
        with pytest.raises(ReproError, match="truncated|invalid"):
            list(store.events())

    def test_invalid_json_line_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("not json at all\n", encoding="utf-8")
        with pytest.raises(ReproError):
            list(LinkStore(path).events())

    def test_non_object_event_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("[1, 2, 3]\n", encoding="utf-8")
        with pytest.raises(ReproError):
            list(LinkStore(path).events())


class TestCheckpointIO:
    def test_arrays_and_meta_round_trip(self, tmp_path):
        path = tmp_path / "state.npz"
        arrays = {
            "ints": np.arange(5, dtype=np.int64),
            "empty": np.empty(0, dtype=np.int64),
            "bytes": np.frombuffer("ünï".encode(), dtype=np.uint8),
        }
        save_checkpoint(path, arrays, {"note": "ünï"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"note": "ünï"}
        assert set(loaded) == set(arrays)
        for name, arr in arrays.items():
            assert loaded[name].dtype == arr.dtype
            assert np.array_equal(loaded[name], arr)

    def test_object_arrays_refused_at_save(self, tmp_path):
        path = tmp_path / "state.npz"
        nodes = np.empty(3, dtype=object)
        nodes[:] = ["fr:héros", 7, "中文"]
        with pytest.raises(ReproError, match="'nodes' has object dtype"):
            save_checkpoint(
                path, {"ints": np.arange(3), "nodes": nodes}, {"v": 1}
            )
        assert list(tmp_path.iterdir()) == []

    def test_mixed_ids_round_trip_through_engine_resume(self, tmp_path):
        """Ids that are not all ints ride as tokens and come back with
        their types, through the engine's save and resume."""
        from repro.core.config import MatcherConfig
        from repro.graphs.graph import Graph
        from repro.incremental.engine import IncrementalReconciler

        ids = ["fr:héros", 7, "中文"]
        g1, g2 = Graph(), Graph()
        for g in (g1, g2):
            g.add_edge(ids[0], ids[1])
            g.add_edge(ids[1], ids[2])
            g.add_edge(ids[2], ids[0])
        engine = IncrementalReconciler(MatcherConfig(threshold=1))
        engine.start(g1, g2, {"fr:héros": "fr:héros"})
        path = tmp_path / "state.npz"
        engine.save_checkpoint(path)
        arrays, _meta = load_checkpoint(path)
        assert arrays["nodes1"].dtype == np.uint8
        resumed = IncrementalReconciler.resume(path)
        assert list(resumed.g1.nodes()) == list(engine.index.csr1.node_ids)
        assert [type(v) for v in resumed.g1.nodes()] == [
            type(v) for v in engine.index.csr1.node_ids
        ]
        for got, saved in ((resumed.g1, g1), (resumed.g2, g2)):
            assert set(map(frozenset, got.edges())) == set(
                map(frozenset, saved.edges())
            )
        assert resumed.seeds == {"fr:héros": "fr:héros"}
        assert resumed.result.links == engine.result.links
        assert resumed.result.phases == engine.result.phases

    def test_pickled_member_refused_unread(self, tmp_path):
        """A hand-made npz whose member is a pickle is refused at load,
        and the pickle is never run."""
        path = tmp_path / "evil.npz"
        TRIPPED.clear()
        payload = np.empty(1, dtype=object)
        payload[0] = _Tripwire()
        np.savez(
            path,
            a=np.arange(3),
            nodes=payload,
            __meta_json__=np.frombuffer(b'{"version": 2}', dtype=np.uint8),
        )
        with pytest.raises(ReproError):
            load_checkpoint(path)
        assert TRIPPED == []
        # The tripwire does fire when unpickled: the refusal is real.
        with np.load(path, allow_pickle=True) as data:
            data["nodes"]
        assert TRIPPED == [True]

    def test_format_version_stamped_and_checked(self, tmp_path):
        """save_checkpoint stamps the format version; load_checkpoint
        refuses any other before reading an array."""
        path = tmp_path / "state.npz"
        save_checkpoint(path, {"a": np.arange(3)}, {"v": 1})
        with np.load(path) as data:
            stored = json.loads(bytes(data["__meta_json__"]))
        assert stored == {"version": CHECKPOINT_VERSION, "v": 1}
        TRIPPED.clear()
        payload = np.empty(1, dtype=object)
        payload[0] = _Tripwire()
        for found, message in (
            (1, "older format.*rewritten"),
            (CHECKPOINT_VERSION + 1, "reads version 2"),
            (None, "reads version 2"),
        ):
            meta = {} if found is None else {"version": found}
            np.savez(
                path,
                nodes=payload,
                __meta_json__=np.frombuffer(
                    json.dumps(meta).encode(), dtype=np.uint8
                ),
            )
            with pytest.raises(ReproError, match=message):
                load_checkpoint(path)
        assert TRIPPED == []

    def test_caller_version_key_refused(self, tmp_path):
        with pytest.raises(ReproError, match="'version' is reserved"):
            save_checkpoint(tmp_path / "x.npz", {}, {"version": 2})
        assert list(tmp_path.iterdir()) == []

    def test_write_fsyncs_file_then_renames_then_fsyncs_directory(
        self, tmp_path, monkeypatch
    ):
        import os
        import stat

        from repro.core import links_io

        path = tmp_path / "state.npz"
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            events.append(("fsync", kind))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", Path(src).name, Path(dst).name))
            real_replace(src, dst)

        monkeypatch.setattr(links_io.os, "fsync", fsync)
        monkeypatch.setattr(links_io.os, "replace", replace)
        save_checkpoint(path, {"a": np.arange(3)}, {"v": 1})
        assert events == [
            ("fsync", "file"),
            ("replace", "state.npz.tmp", "state.npz"),
            ("fsync", "dir"),
        ]

    def test_members_are_stored_uncompressed(self, tmp_path):
        import zipfile

        path = tmp_path / "state.npz"
        save_checkpoint(path, {"a": np.zeros(10_000)}, {"v": 1})
        with zipfile.ZipFile(path) as zf:
            assert {i.compress_type for i in zf.infolist()} == {
                zipfile.ZIP_STORED
            }

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError):
            load_checkpoint(tmp_path / "absent.npz")

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "state.npz"
        save_checkpoint(path, {"a": np.arange(1000)}, {"v": 1})
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ReproError):
            load_checkpoint(path)

    def test_foreign_npz_without_meta_raises(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, a=np.arange(3))
        with pytest.raises(ReproError):
            load_checkpoint(path)

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            save_checkpoint(
                tmp_path / "x.npz",
                {"__meta_json__": np.arange(1)},
                {},
            )

    def test_write_is_atomic(self, tmp_path):
        path = tmp_path / "state.npz"
        save_checkpoint(path, {"a": np.arange(3)}, {"v": 1})
        # No temp file left behind after a successful write.
        assert list(tmp_path.iterdir()) == [path]

    def test_retractions_withdraw_links(self, tmp_path):
        store = LinkStore(tmp_path / "run.jsonl")
        store.append_seeds({1: 10, 2: 20})
        store.append_retractions([2])
        store.append_links({3: 30})
        assert store.links() == {1: 10, 3: 30}


class TestCheckpointNodeIds:
    def test_plain_ints_ride_as_int64(self):
        ids = [5, -3, 0, 2**62]
        encoded = encode_node_ids(ids)
        assert encoded.dtype == np.int64
        decoded = decode_node_ids(encoded)
        assert decoded == ids
        assert {type(v) for v in decoded} == {int}

    @pytest.mark.parametrize(
        "ids",
        [
            ["fr:héros", 7, "中文"],
            ["7", 7, "", '"q', "#h", "a\nb", "t\tab", "nul\x00", "\ud800"],
            [2**70, -(2**70), 1],
            ["only", "strings"],
        ],
    )
    def test_other_ids_ride_as_tokens(self, ids):
        encoded = encode_node_ids(ids)
        assert encoded.dtype == np.uint8
        decoded = decode_node_ids(encoded)
        assert decoded == ids
        assert [type(v) for v in decoded] == [type(v) for v in ids]

    def test_empty(self):
        assert decode_node_ids(encode_node_ids([])) == []
        empty_tokens = np.empty(0, dtype=np.uint8)
        assert decode_node_ids(empty_tokens) == []

    @pytest.mark.parametrize(
        "bad, type_name",
        [
            ((1, 2), "tuple"),
            (True, "bool"),
            (np.int64(3), "int64"),
            (1.5, "float"),
        ],
    )
    def test_other_types_refused_naming_the_type(self, bad, type_name):
        with pytest.raises(ReproError, match=f"of type {type_name}"):
            encode_node_ids([1, "a", bad])

    def test_unknown_encoding_refused(self):
        with pytest.raises(ReproError, match="dtype"):
            decode_node_ids(np.zeros(3, dtype=np.float64))


class TestNodeIdEscaping:
    """Ids that used to corrupt the TSV or lose their type (PR 8)."""

    def test_tab_and_newline_ids_round_trip(self, tmp_path):
        links = {"a\tb": "c\nd", "e\rf": "plain"}
        path = tmp_path / "links.tsv"
        write_links(links, path)
        # The file must still be line/tab parseable: 1 header + 2 rows.
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert all(line.count("\t") == 1 for line in lines[1:])
        assert read_links(path) == links

    def test_int_like_string_keeps_its_type(self, tmp_path):
        links = {"1": 2, 3: "4", " 5 ": "+6"}
        path = tmp_path / "links.tsv"
        write_links(links, path)
        restored = read_links(path)
        assert restored == links
        assert {type(k) for k in restored} == {str, int}

    def test_leading_quote_and_hash_and_empty(self, tmp_path):
        links = {'"quoted"': "#comment", "": "ok"}
        path = tmp_path / "links.tsv"
        write_links(links, path)
        assert read_links(path) == links

    def test_unwritable_id_type_rejected(self, tmp_path):
        path = tmp_path / "links.tsv"
        with pytest.raises(ReproError, match="round-trip"):
            write_links({(1, 2): 3}, path)
        with pytest.raises(ReproError, match="round-trip"):
            write_links({True: 1}, path)

    def test_token_helpers_round_trip(self):
        from repro.core.links_io import format_node_token, parse_node_token

        for node in [1, -7, "plain", "1", "", '"x"', "#y", "a\tb"]:
            assert parse_node_token(format_node_token(node)) == node
        with pytest.raises(ReproError):
            parse_node_token('"unterminated')
        with pytest.raises(ReproError):
            parse_node_token('"123"'[:-1] + "5")  # still malformed


class TestLinkStoreFsync:
    def test_fsync_default_on(self, tmp_path, monkeypatch):
        import os

        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd))
        )
        store = LinkStore(tmp_path / "run.jsonl")
        assert store.fsync
        store.append_seeds({1: 10})
        # The log, then the directory entry the first append created.
        assert len(calls) == 2

    def test_first_append_fsyncs_file_then_directory(
        self, tmp_path, monkeypatch
    ):
        import os
        import stat

        from repro.core import links_io

        events = []
        real_fsync = os.fsync

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            events.append(kind)
            real_fsync(fd)

        monkeypatch.setattr(links_io.os, "fsync", fsync)
        store = LinkStore(tmp_path / "run.jsonl")
        store.append_seeds({1: 10})
        assert events == ["file", "dir"]
        store.append_links({2: 20})
        store.append_links({3: 30}, round=2)
        assert events == ["file", "dir", "file", "file"]
        assert store.links() == {1: 10, 2: 20, 3: 30}

    def test_existing_log_skips_directory_fsync(self, tmp_path, monkeypatch):
        import os
        import stat

        from repro.core import links_io

        path = tmp_path / "run.jsonl"
        LinkStore(path).append_seeds({1: 10})
        kinds = []
        real_fsync = os.fsync

        def fsync(fd):
            kinds.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(links_io.os, "fsync", fsync)
        # A fresh store object over an existing log: nothing is created.
        LinkStore(path).append_links({2: 20})
        assert kinds == [False]

    def test_fsync_opt_out(self, tmp_path, monkeypatch):
        import os

        monkeypatch.setattr(
            os,
            "fsync",
            lambda fd: pytest.fail("fsync called with fsync=False"),
        )
        store = LinkStore(tmp_path / "run.jsonl", fsync=False)
        store.append_seeds({1: 10})
        assert store.links() == {1: 10}
