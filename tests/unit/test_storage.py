"""The result cache's directory: one ``<sha256>.json`` file per entry.

Whole-entry round-trips, absent entries reading as misses, last-writer-wins
overwrites, ``clear`` removing exactly the live entries, corrupt entries
reading as misses, failed writes never raising and concurrent writers never
tearing an entry: the behaviour ``repro serve`` and ``repro bench`` rely on
when they share one directory.
"""

import json
import multiprocessing

import pytest

from repro.engine import ResultCache


# The one ``directory`` id keeps these tests' names from when the cache also
# had an in-memory backend.
@pytest.fixture(params=["directory"])
def cache(tmp_path):
    return ResultCache(tmp_path / "store")


def _entry_files(cache: ResultCache) -> list[str]:
    return sorted(path.name for path in cache.directory.iterdir())


class TestConformance:
    def test_absent_entry_reads_none(self, cache):
        assert cache.get("missing-entry") is None
        assert cache.stats()["entries"] == 0

    def test_round_trip_preserves_bytes(self, cache):
        payload = {"proved": True, "text": "h <= n ≤ \x00 tail"}
        cache.put("a" * 64, payload, task_name="toy", suite="table2")
        assert cache.get("a" * 64) == payload
        # The file is the entry's JSON document, named by its key.
        assert _entry_files(cache) == ["a" * 64 + ".json"]
        entry = json.loads((cache.directory / ("a" * 64 + ".json")).read_bytes())
        assert entry["payload"] == payload
        assert entry["task"] == "toy" and entry["suite"] == "table2"

    def test_overwrite_is_last_writer_wins(self, cache):
        cache.put("a" * 64, {"value": "first"})
        cache.put("a" * 64, {"value": "second"})
        assert cache.get("a" * 64) == {"value": "second"}
        # The temp file of each atomic write was renamed away.
        assert _entry_files(cache) == ["a" * 64 + ".json"]

    def test_delete_reports_whether_an_entry_existed(self, cache):
        cache.put("a" * 64, {"proved": True})
        assert cache.clear() == 1
        assert cache.get("a" * 64) is None
        assert cache.clear() == 0

    def test_names_lists_exactly_the_written_entries(self, cache):
        cache.put("a" * 64, {"proved": True}, suite="table2")
        cache.put("b" * 64, {"proved": False}, suite="fig3")
        # A file that is not an entry is neither counted nor cleared.
        (cache.directory / "notes.txt").write_text("not an entry")
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["suites"] == {"fig3": 1, "table2": 1}
        assert stats["bytes"] == sum(
            (cache.directory / f"{key * 64}.json").stat().st_size for key in "ab"
        )
        assert cache.clear() == 2
        assert _entry_files(cache) == ["notes.txt"]

    def test_result_cache_treats_corruption_as_a_miss(self, cache):
        key, not_an_object = "c" * 64, "d" * 64
        cache.directory.mkdir(parents=True)
        (cache.directory / f"{key}.json").write_bytes(b"{not json")
        (cache.directory / f"{not_an_object}.json").write_bytes(b"[1]")
        assert cache.get(key) is None
        assert cache.get(not_an_object) is None
        assert cache.stats()["suites"] == {"(none)": 2}
        cache.put(key, {"proved": True})
        assert cache.get(key) == {"proved": True}


class TestFailedWrites:
    def test_result_cache_put_swallows_a_failed_write(self, tmp_path):
        # A cache directory whose path is a regular file cannot be created,
        # so every write fails; a broken cache must not break the run.
        blocker = tmp_path / "not-a-directory"
        blocker.write_bytes(b"")
        cache = ResultCache(blocker)
        cache.put("a" * 64, {"proved": True})
        assert cache.get("a" * 64) is None
        assert cache.stats()["entries"] == 0


#: Entry files that are not a stored payload, each of which must read as a
#: miss and be replaced by the next ``put``.
CORRUPT_ENTRIES = {
    "empty": b"",
    "truncated": b'{"payload": {"proved": tr',
    "not-utf8": b"\xff\xfe\x00\x80",
    "json-list": b"[1, 2]",
    "json-string": b'"payload"',
    "json-number": b"42",
    "json-null": b"null",
    "no-payload": b'{"schema": 1, "suite": "table2"}',
    "payload-not-object": b'{"payload": [true]}',
}


class TestCorruptEntries:
    @pytest.mark.parametrize(
        "content", CORRUPT_ENTRIES.values(), ids=list(CORRUPT_ENTRIES)
    )
    def test_reads_as_a_miss_until_rewritten(self, tmp_path, content):
        cache = ResultCache(tmp_path)
        (tmp_path / ("e" * 64 + ".json")).write_bytes(content)
        assert cache.get("e" * 64) is None
        assert cache.stats()["entries"] == 1
        cache.put("e" * 64, {"proved": True})
        assert cache.get("e" * 64) == {"proved": True}

    def test_a_directory_named_like_an_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / ("f" * 64 + ".json")).mkdir()
        assert cache.get("f" * 64) is None
        # Writing over it fails, and the failure is swallowed.
        cache.put("f" * 64, {"proved": True})
        assert cache.get("f" * 64) is None
        # ``clear`` removes entries only; it skips what it cannot unlink.
        cache.put("a" * 64, {"proved": True})
        assert cache.clear() == 1
        assert (tmp_path / ("f" * 64 + ".json")).is_dir()


class TestAtomicWrites:
    def test_failed_rename_keeps_the_old_entry_and_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, {"value": "old"})

        def refuse(source, target):
            raise OSError("disk full")

        monkeypatch.setattr("repro.engine.cache.os.replace", refuse)
        cache.put("a" * 64, {"value": "new"})
        assert cache.get("a" * 64) == {"value": "old"}
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a" * 64 + ".json"]

    def test_unserializable_payload_writes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        cache.put("a" * 64, {"bound": {1, 2}})
        assert cache.get("a" * 64) is None
        assert not cache.directory.exists()

    def test_concurrent_writers_never_tear_an_entry(self, tmp_path):
        """Two processes overwrite one key while a third reads it: every
        read sees one writer's complete payload, never a mix or a miss."""
        payloads = [
            {"writer": writer, "text": str(writer) * 50_000} for writer in (0, 1)
        ]
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, payloads[0])
        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(target=_write_repeatedly, args=(tmp_path, payload))
            for payload in payloads
        ]
        for writer in writers:
            writer.start()
        try:
            while True:
                assert cache.get("a" * 64) in payloads
                if not any(writer.is_alive() for writer in writers):
                    break
        finally:
            for writer in writers:
                writer.join(timeout=60)
                if writer.is_alive():
                    writer.kill()
                    writer.join()
        assert [writer.exitcode for writer in writers] == [0, 0]
        assert cache.get("a" * 64) in payloads
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a" * 64 + ".json"]


def _write_repeatedly(directory, payload, count=200):
    cache = ResultCache(directory)
    for _ in range(count):
        cache.put("a" * 64, payload)


class TestDirectory:
    def test_construction_and_misses_create_nothing(self, tmp_path):
        cache = ResultCache(tmp_path / "a" / "b")
        assert cache.get("a" * 64) is None
        assert not (tmp_path / "a").exists()

    def test_missing_directory_reads_as_empty(self, tmp_path):
        cache = ResultCache(tmp_path / "absent")
        assert cache.stats() == {
            "directory": str(tmp_path / "absent"),
            "entries": 0,
            "bytes": 0,
            "suites": {},
        }
        assert cache.clear() == 0

    def test_put_creates_missing_parents(self, tmp_path):
        cache = ResultCache(str(tmp_path / "a" / "b"))
        cache.put("a" * 64, {"proved": True})
        assert cache.directory == tmp_path / "a" / "b"
        assert (tmp_path / "a" / "b" / ("a" * 64 + ".json")).is_file()

    def test_leftover_temp_files_are_not_entries(self, tmp_path):
        """A writer killed between its temp file and the rename leaves a
        ``.cache-*.tmp`` file behind; it is never read, counted or cleared."""
        cache = ResultCache(tmp_path)
        leftover = tmp_path / ".cache-interrupted.tmp"
        leftover.write_bytes(b'{"payload": {"proved": true}}')
        cache.put("a" * 64, {"proved": False})
        assert cache.stats()["entries"] == 1
        assert cache.clear() == 1
        assert leftover.exists()
