"""The CacheStorage conformance suite: one contract, every backend.

Each backend — the directory default, the in-memory test store, the
generic prefix view, and the HTTP-backed remote store — must present the
same observable semantics: whole-entry round-trips, absent entries reading
``None``, last-writer-wins overwrites, delete reporting whether anything
existed, batch reads matching per-entry reads, namespace views that never
leak reads into each other, and a uniform ``stats()`` shape.  Testing the
contract once, parameterized, replaces the ad-hoc per-backend tests and is
what lets a new transport claim drop-in status.

The remote backend runs against a real :class:`AnalysisServer` (event loop
in a thread, no worker forks — the pool is a stub), so the conformance
answers here exercise the actual ``/v1/cache`` routes, not a mock.
"""

import pickle
import threading
import time

import pytest

from repro.engine import DirectoryStorage, MemoryStorage, ResultCache
from repro.engine.storage import PrefixStorage
from repro.service.remote import RemoteStorage
from repro.service.server import AnalysisServer


class _StubPool:
    """Just enough pool for AnalysisServer when only cache routes matter."""

    workers = 1
    cache = None

    def stats_dict(self):
        return {}

    def busy_workers(self):
        return 0

    def close(self):
        pass


def _start_cache_server():
    cache = ResultCache(storage=MemoryStorage())
    server = AnalysisServer(_StubPool(), port=0, cache=cache)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.address
    url = f"http://{host}:{port}"
    _wait_until_serving(url)
    return server, thread, url


def _wait_until_serving(url, deadline=10.0):
    from repro.service.client import ServiceClient, ServiceError

    started = time.monotonic()
    while True:
        try:
            with ServiceClient(url, timeout=2.0) as client:
                client.healthz()
            return
        except ServiceError:
            if time.monotonic() - started > deadline:
                raise
            time.sleep(0.02)


def _stop_cache_server(server, thread):
    server.shutdown()
    server.close()
    thread.join(5)


BACKENDS = ["directory", "memory", "prefix-directory", "prefix-memory", "remote"]

#: Prefix views share their inner backend's raw listing, so namespaced
#: entries legitimately appear in the parent's names (see storage.py).
LISTING_ISOLATED = {"directory", "memory", "remote"}


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    if request.param == "directory":
        yield request.param, DirectoryStorage(tmp_path / "store")
    elif request.param == "memory":
        yield request.param, MemoryStorage()
    elif request.param == "prefix-directory":
        yield request.param, PrefixStorage(DirectoryStorage(tmp_path / "store"), "view")
    elif request.param == "prefix-memory":
        yield request.param, PrefixStorage(MemoryStorage(), "view")
    else:
        server, thread, url = _start_cache_server()
        store = RemoteStorage(url)
        yield request.param, store
        store.close()
        _stop_cache_server(server, thread)


class TestConformance:
    def test_absent_entry_reads_none(self, backend):
        _, store = backend
        assert store.read("missing-entry") is None
        assert store.size_of("missing-entry") == 0

    def test_round_trip_preserves_bytes(self, backend):
        _, store = backend
        data = b'{"payload": 1}\x00\xff binary tail'
        store.write("entry-a", data)
        assert store.read("entry-a") == data
        assert store.size_of("entry-a") == len(data)

    def test_overwrite_is_last_writer_wins(self, backend):
        _, store = backend
        store.write("entry-a", b"first")
        store.write("entry-a", b"second")
        assert store.read("entry-a") == b"second"

    def test_delete_reports_whether_an_entry_existed(self, backend):
        _, store = backend
        store.write("entry-a", b"data")
        assert store.delete("entry-a") is True
        assert store.read("entry-a") is None
        assert store.delete("entry-a") is False

    def test_names_lists_exactly_the_written_entries(self, backend):
        _, store = backend
        store.write("entry-a", b"1")
        store.write("entry-b", b"2")
        store.delete("entry-a")
        assert sorted(store.names()) == ["entry-b"]

    def test_read_many_matches_per_entry_reads(self, backend):
        _, store = backend
        store.write("entry-a", b"aa")
        store.write("entry-b", b"bb")
        found = store.read_many(["entry-a", "missing", "entry-b"])
        assert found == {"entry-a": b"aa", "entry-b": b"bb"}

    def test_write_many_stores_every_pair(self, backend):
        _, store = backend
        store.write_many({"entry-a": b"aa", "entry-b": b"bb"})
        assert store.read("entry-a") == b"aa"
        assert store.read("entry-b") == b"bb"

    def test_namespaces_do_not_leak_reads(self, backend):
        _, store = backend
        first = store.namespace("memo")
        second = store.namespace("incremental")
        first.write("shared-name", b"from-first")
        assert second.read("shared-name") is None
        assert store.read("shared-name") is None
        assert first.read("shared-name") == b"from-first"

    def test_namespaced_entries_stay_out_of_the_parent_listing(self, backend):
        name, store = backend
        if name not in LISTING_ISOLATED:
            pytest.skip("prefix views share the inner backend's raw listing")
        store.write("entry-a", b"top")
        store.namespace("memo").write("snapshot", b"ns")
        assert sorted(store.names()) == ["entry-a"]
        assert sorted(store.namespace("memo").names()) == ["snapshot"]

    def test_stats_has_the_uniform_shape(self, backend):
        _, store = backend
        store.write("entry-a", b"12345")
        stats = store.stats()
        assert isinstance(stats["location"], str) and stats["location"]
        assert stats["entries"] == 1
        assert stats["bytes"] == 5
        assert isinstance(stats["namespaces"], dict)

    def test_stats_counts_namespaces_when_enumerable(self, backend):
        name, store = backend
        if name not in LISTING_ISOLATED:
            pytest.skip("prefix views cannot enumerate their namespaces")
        store.namespace("memo").write("snapshot", b"123")
        namespaces = store.stats()["namespaces"]
        assert namespaces["memo"] == {"entries": 1, "bytes": 3}

    def test_result_cache_treats_corruption_as_a_miss(self, backend):
        _, store = backend
        cache = ResultCache(storage=store)
        key = "c" * 64
        store.write(key, b"{not json")
        assert cache.get(key) is None
        assert cache.get_many([key]) == {}
        cache.put(key, {"proved": True})
        assert cache.get(key) == {"proved": True}
        assert cache.get_many([key]) == {key: {"proved": True}}


class TestRemoteSpecifics:
    """Semantics only the HTTP backend has: failure mapping, fork safety."""

    @pytest.fixture()
    def remote(self):
        server, thread, url = _start_cache_server()
        store = RemoteStorage(url)
        yield server, store
        store.close()
        _stop_cache_server(server, thread)

    def test_unreachable_host_degrades_reads_to_misses(self):
        store = RemoteStorage("http://127.0.0.1:1")
        assert store.read("a" * 64) is None
        with pytest.raises(OSError):
            store.write("a" * 64, b"data")
        with pytest.raises(OSError):
            list(store.names())
        with pytest.raises(OSError):
            store.stats()

    def test_result_cache_put_swallows_unreachable_writes(self):
        cache = ResultCache(storage=RemoteStorage("http://127.0.0.1:1"))
        cache.put("a" * 64, {"proved": True})  # must not raise
        assert cache.get("a" * 64) is None

    def test_pickle_round_trip_keeps_namespace_and_url(self, remote):
        _, store = remote
        memo = store.namespace("memo")
        memo.write("snapshot", b"state")
        clone = pickle.loads(pickle.dumps(memo))
        assert clone.read("snapshot") == b"state"
        root_clone = pickle.loads(pickle.dumps(store))
        assert root_clone.read("snapshot") is None

    def test_bad_entry_names_are_rejected_not_routed(self, remote):
        _, store = remote
        from repro.service.client import ServiceHTTPError

        with pytest.raises(ServiceHTTPError) as excinfo:
            store._service().request_bytes("GET", "cache/results/..%2Fescape")
        assert excinfo.value.status == 400

    def test_stats_reports_the_url_as_location(self, remote):
        _, store = remote
        assert store.stats()["location"] == store.location()
        assert store.location().startswith("http://")
