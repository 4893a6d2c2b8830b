"""Tests for the persistable polyhedral memo snapshot and storage namespaces.

The projection/LP memo tables (:mod:`repro.polyhedra.cache`) can be saved
into — and absorbed back from — a :class:`~repro.engine.storage.CacheStorage`
namespace.  These tests pin the contract: round-trips preserve entries and
results, snapshots written by different code fingerprints are ignored,
merging is additive, and the namespace is disjoint from the result cache's
own entries.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.engine.storage import DirectoryStorage, MemoryStorage
from repro.formulas import sym
from repro.polyhedra import LinearConstraint, eliminate
from repro.polyhedra import cache as memo

X, Y, Z = sym("x"), sym("y"), sym("z")

SOURCE_ROOT = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(autouse=True)
def _cold_tables():
    memo.clear_caches(force=True)
    yield
    memo.clear_caches(force=True)


def _chain_system():
    return [
        LinearConstraint.make({X: 1, Y: -1}),            # x <= y
        LinearConstraint.make({Y: 1, Z: -1}),            # y <= z
        LinearConstraint.make({Z: 1}, Fraction(-9)),     # z <= 9
        LinearConstraint.make({X: -1}),                  # 0 <= x
    ]


class TestSnapshotRoundTrip:
    def test_save_load_preserves_projection_results(self):
        storage = MemoryStorage()
        system = _chain_system()
        cold = eliminate(system, [Y])
        table = memo.register_cache("fm.eliminate")
        assert len(table) > 0
        saved = memo.save_snapshot(storage, fingerprint="fp")
        assert saved >= len(table)

        memo.clear_caches(force=True)
        assert len(table) == 0
        loaded = memo.load_snapshot(storage, fingerprint="fp")
        assert loaded == saved
        hits_before = table.hits
        assert eliminate(system, [Y]) == cold
        assert table.hits == hits_before + 1  # served from the snapshot

    def test_fingerprint_mismatch_is_a_cold_start(self):
        storage = MemoryStorage()
        eliminate(_chain_system(), [Y])
        assert memo.save_snapshot(storage, fingerprint="old-code") > 0
        memo.clear_caches(force=True)
        assert memo.load_snapshot(storage, fingerprint="new-code") == 0

    def test_corrupt_snapshot_is_a_cold_start(self):
        storage = MemoryStorage()
        storage.write(memo.SNAPSHOT_NAME, b"not a pickle")
        assert memo.load_snapshot(storage, fingerprint="fp") == 0

    def test_malicious_snapshot_cannot_execute_code(self, tmp_path):
        """Cache directories are shareable; a planted pickle must not run."""
        import pickle

        class Exploit:
            def __reduce__(self):
                import os

                return (os.system, (f"touch {tmp_path}/pwned",))

        storage = MemoryStorage()
        payload = {
            "schema": memo.SNAPSHOT_SCHEMA,
            "fingerprint": "fp",
            "tables": {"fm.eliminate": [(("k",), Exploit())]},
        }
        storage.write(memo.SNAPSHOT_NAME, pickle.dumps(payload))
        assert memo.load_snapshot(storage, fingerprint="fp") == 0
        assert not (tmp_path / "pwned").exists()

    def test_only_persistent_tables_are_snapshotted(self):
        storage = MemoryStorage()
        eliminate(_chain_system(), [Y])  # populates persistent fm/lp tables
        ephemeral = memo.register_cache("test.ephemeral")
        ephemeral.lookup("key", lambda: "value")
        memo.save_snapshot(storage, fingerprint="fp")
        stats = memo.snapshot_stats(storage, fingerprint="fp")
        assert "test.ephemeral" not in stats["tables"]
        assert "fm.eliminate" in stats["tables"]

    def test_save_merges_with_existing_snapshot(self):
        storage = MemoryStorage()
        eliminate(_chain_system(), [Y])
        first = memo.save_snapshot(storage, fingerprint="fp")
        memo.clear_caches(force=True)
        eliminate(_chain_system(), [Z])  # a different projection
        second = memo.save_snapshot(storage, fingerprint="fp")
        assert second > first  # old entries survived the second save
        memo.clear_caches(force=True)
        assert memo.load_snapshot(storage, fingerprint="fp") == second

    def test_snapshot_stats_reports_tables(self):
        storage = MemoryStorage()
        eliminate(_chain_system(), [Y])
        memo.save_snapshot(storage, fingerprint="fp")
        stats = memo.snapshot_stats(storage, fingerprint="fp")
        assert stats["present"] is True
        assert stats["bytes"] > 0
        assert stats["entries"] >= 1
        assert "fm.eliminate" in stats["tables"]
        absent = memo.snapshot_stats(MemoryStorage(), fingerprint="fp")
        assert absent == {"present": False, "bytes": 0, "entries": 0, "tables": {}}

    def test_directory_storage_round_trip(self, tmp_path):
        storage = DirectoryStorage(tmp_path)
        eliminate(_chain_system(), [Y])
        saved = memo.save_snapshot(storage, fingerprint="fp")
        memo.clear_caches(force=True)
        assert memo.load_snapshot(storage, fingerprint="fp") == saved

    def test_schema_1_and_fraction_blobs_are_cold_starts(self):
        """Schema 1 stored Fraction-valued rows; neither that schema nor a
        blob naming ``fractions.Fraction`` may warm the integer-row tables."""
        import pickle

        eliminate(_chain_system(), [Y])
        table = memo.register_cache("fm.eliminate")
        entries = table.export_entries()
        memo.clear_caches(force=True)
        old_schema = {"schema": 1, "fingerprint": "fp", "tables": {"fm.eliminate": entries}}
        with_fraction = {
            "schema": memo.SNAPSHOT_SCHEMA,
            "fingerprint": "fp",
            "tables": {"fm.eliminate": [(("k",), Fraction(1, 2))]},
        }
        for payload in (old_schema, with_fraction):
            storage = MemoryStorage()
            storage.write(memo.SNAPSHOT_NAME, pickle.dumps(payload))
            assert memo.load_snapshot(storage, fingerprint="fp") == 0
            assert memo.snapshot_stats(storage, fingerprint="fp")["entries"] == 0
        assert len(table) == 0


#: Shared by both children below: the system and the values they exchange.
_CHILD_PRELUDE = """
import json, pickle, sys
from pathlib import Path
from repro.engine.storage import DirectoryStorage
from repro.formulas import Monomial, Polynomial, sym
from repro.polyhedra import LinearConstraint, eliminate
from repro.polyhedra import cache as memo

X, Y, Z = sym("x"), sym("y"), sym("z")
SYSTEM = [
    LinearConstraint.make({X: 1, Y: -1}),
    LinearConstraint.make({Y: 1, Z: -1}),
    LinearConstraint.make({Z: 1}, -9),
    LinearConstraint.make({X: -1}),
]
XY = Monomial.of(X) * Monomial.of(Y)
POLY = Polynomial({XY: 2, Monomial.of(Z): -1, Monomial.unit(): 5})
directory = Path(sys.argv[1])
storage = DirectoryStorage(directory / "memo")
"""

#: Under one hash seed: fill the memo with one projection, save it, and
#: pickle symbols, a monomial-keyed dict and a polynomial beside it.
_WRITER = _CHILD_PRELUDE + """
eliminate(SYSTEM, [Y])
assert memo.save_snapshot(storage, fingerprint="fp") > 0
values = {"symbols": frozenset({X, Y, Z}), "by_monomial": {XY: "xy"}, "polynomial": POLY}
(directory / "values.pickle").write_bytes(pickle.dumps(values))
"""

#: Under another hash seed: load both and look them up with fresh values.
_READER = _CHILD_PRELUDE + """
assert memo.load_snapshot(storage, fingerprint="fp") > 0
values = pickle.loads((directory / "values.pickle").read_bytes())
fresh_xy = Monomial.of(sym("x")) * Monomial.of(sym("y"))
fresh_poly = Polynomial({fresh_xy: 2, Monomial.of(sym("z")): -1, Monomial.unit(): 5})
table = memo.register_cache("fm.eliminate")
hits = table.hits
eliminate(SYSTEM, [Y])
print(json.dumps({
    "symbol_in_set": sym("y") in values["symbols"],
    "monomial_key": values["by_monomial"].get(fresh_xy) == "xy",
    "polynomial_equal": values["polynomial"] == fresh_poly,
    "polynomial_hash": hash(values["polynomial"]) == hash(fresh_poly),
    "memo_hit": table.hits == hits + 1,
}))
"""

#: Seconds each child may take; each finishes in a few seconds.
CHILD_TIMEOUT = 120


def _run_child(script: str, hash_seed: int, directory: Path) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SOURCE_ROOT))
    done = subprocess.run(
        [sys.executable, "-c", script, str(directory)],
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    assert done.returncode == 0, f"PYTHONHASHSEED={hash_seed} child failed:\n{done.stderr}"
    return done.stdout


class TestHashSeedPortability:
    def test_pickled_symbols_rehash_under_another_seed(self, tmp_path):
        """Symbols and monomials cache their hash, which is valid under one
        ``PYTHONHASHSEED`` only; pickles must carry values, never hashes."""
        _run_child(_WRITER, 0, tmp_path)
        checks = json.loads(_run_child(_READER, 1, tmp_path))
        assert checks == {
            "symbol_in_set": True,
            "monomial_key": True,
            "polynomial_equal": True,
            "polynomial_hash": True,
            "memo_hit": True,
        }


class TestAbsorb:
    def test_local_entries_win_and_capacity_holds(self):
        table = memo.MemoCache("t", capacity=3)
        table.lookup("a", lambda: 1)
        added = table.absorb([("a", 99), ("b", 2), ("c", 3), ("d", 4)])
        # "a" already present (local value wins), "b"/"c" fit, "d" is past
        # the capacity and must not evict anything this process computed.
        assert added == 2
        assert table.lookup("a", lambda: -1) == 1
        assert len(table) == 3
        assert not table.contains("d")
        # absorb never touches the hit/miss counters (one miss + one hit
        # from the lookups above).
        assert table.misses == 1
        assert table.hits == 1


class TestStorageNamespaces:
    def test_memory_namespace_is_disjoint(self):
        storage = MemoryStorage()
        ns = storage.namespace("memo")
        storage.write("result", b"r")
        ns.write("snapshot", b"s")
        assert list(storage.names()) == ["result"]
        assert list(ns.names()) == ["snapshot"]
        assert ns.read("snapshot") == b"s"
        assert storage.read("snapshot") is None
        assert ns.size_of("snapshot") == 1
        assert ns.delete("snapshot") is True
        assert list(ns.names()) == []

    def test_directory_namespace_is_a_subdirectory(self, tmp_path):
        storage = DirectoryStorage(tmp_path)
        ns = storage.namespace("memo")
        storage.write("result", b"r")
        ns.write("snapshot", b"s")
        assert isinstance(ns, DirectoryStorage)
        assert list(storage.names()) == ["result"]
        assert list(ns.names()) == ["snapshot"]
        assert (tmp_path / "memo" / "snapshot.json").exists()
