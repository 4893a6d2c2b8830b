"""Symbols and monomials keep their values, not their hashes, in a pickle.

``Symbol`` and ``Monomial`` compute their hash once, at construction, and a
``str`` hash holds only under the ``PYTHONHASHSEED`` of the process that
computed it.  Pickles still cross process boundaries (the pipes between the
batch engine or the warm pool and their workers), so ``__reduce__`` must
rebuild both through their constructors.  The test below pickles values
under one hash seed and looks them up under another.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parents[2] / "src"


#: Shared by both children below: the values they exchange.
_CHILD_PRELUDE = """
import json, pickle, sys
from pathlib import Path
from repro.formulas import Monomial, Polynomial, sym

X, Y, Z = sym("x"), sym("y"), sym("z")
XY = Monomial.of(X) * Monomial.of(Y)
POLY = Polynomial({XY: 2, Monomial.of(Z): -1, Monomial.unit(): 5})
directory = Path(sys.argv[1])
"""

#: Under one hash seed: pickle symbols, a monomial-keyed dict and a
#: polynomial.
_WRITER = _CHILD_PRELUDE + """
values = {"symbols": frozenset({X, Y, Z}), "by_monomial": {XY: "xy"}, "polynomial": POLY}
(directory / "values.pickle").write_bytes(pickle.dumps(values))
"""

#: Under another hash seed: load them and look them up with fresh values.
_READER = _CHILD_PRELUDE + """
values = pickle.loads((directory / "values.pickle").read_bytes())
fresh_xy = Monomial.of(sym("x")) * Monomial.of(sym("y"))
fresh_poly = Polynomial({fresh_xy: 2, Monomial.of(sym("z")): -1, Monomial.unit(): 5})
print(json.dumps({
    "symbol_in_set": sym("y") in values["symbols"],
    "monomial_key": values["by_monomial"].get(fresh_xy) == "xy",
    "polynomial_equal": values["polynomial"] == fresh_poly,
    "polynomial_hash": hash(values["polynomial"]) == hash(fresh_poly),
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
        }
