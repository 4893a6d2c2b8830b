"""The CacheStorage conformance suite: one contract, every backend.

Each backend — the directory default and the in-memory test store — must
present the same observable semantics: whole-entry round-trips, absent
entries reading ``None``, last-writer-wins overwrites, delete reporting
whether anything existed, and listings of exactly the live entries.
Testing the contract once, parameterized, replaces the ad-hoc per-backend
tests.
"""

import pytest

from repro.engine import DirectoryStorage, MemoryStorage, ResultCache


@pytest.fixture(params=["directory", "memory"])
def store(request, tmp_path):
    if request.param == "directory":
        return DirectoryStorage(tmp_path / "store")
    return MemoryStorage()


class TestConformance:
    def test_absent_entry_reads_none(self, store):
        assert store.read("missing-entry") is None

    def test_round_trip_preserves_bytes(self, store):
        data = b'{"payload": 1}\x00\xff binary tail'
        store.write("entry-a", data)
        assert store.read("entry-a") == data

    def test_overwrite_is_last_writer_wins(self, store):
        store.write("entry-a", b"first")
        store.write("entry-a", b"second")
        assert store.read("entry-a") == b"second"

    def test_delete_reports_whether_an_entry_existed(self, store):
        store.write("entry-a", b"data")
        assert store.delete("entry-a") is True
        assert store.read("entry-a") is None
        assert store.delete("entry-a") is False

    def test_names_lists_exactly_the_written_entries(self, store):
        store.write("entry-a", b"1")
        store.write("entry-b", b"2")
        store.delete("entry-a")
        assert sorted(store.names()) == ["entry-b"]

    def test_result_cache_treats_corruption_as_a_miss(self, store):
        cache = ResultCache(storage=store)
        key = "c" * 64
        store.write(key, b"{not json")
        assert cache.get(key) is None
        cache.put(key, {"proved": True})
        assert cache.get(key) == {"proved": True}


class TestFailedWrites:
    def test_result_cache_put_swallows_a_failed_write(self, tmp_path):
        # A directory store whose path is a regular file cannot be created,
        # so every write raises; a broken cache must not break the run.
        blocker = tmp_path / "not-a-directory"
        blocker.write_bytes(b"")
        store = DirectoryStorage(blocker)
        with pytest.raises(FileExistsError):
            store.write("a" * 64, b"data")
        cache = ResultCache(storage=store)
        cache.put("a" * 64, {"proved": True})
        assert cache.get("a" * 64) is None
