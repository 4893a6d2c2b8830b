"""``tools/check_invariants.py``: the source-invariant checker.

The real sources must be clean, and each checker must actually catch the
defect class it exists for (seeded violations in a temporary tree).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location(
        "check_invariants", REPO_ROOT / "tools" / "check_invariants.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_invariants", module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def seeded_tree(tmp_path, checker, monkeypatch):
    root = tmp_path / "src" / "repro"
    root.mkdir(parents=True)
    monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
    return root


class TestRepositoryIsClean:
    def test_knob_isolation(self, checker):
        assert checker.check_knob_isolation() == []

    def test_no_unpickling(self, checker):
        assert checker.check_no_unpickling() == []

    def test_declared_dependencies(self, checker):
        assert checker.check_declared_dependencies() == []

    def test_fraction_free_modules(self, checker):
        assert checker.check_fraction_free_modules() == []

    def test_layering(self, checker):
        assert checker.check_layering() == []


class TestKnobIsolation:
    def test_key_function_referencing_a_knob_is_flagged(self, checker, seeded_tree):
        (seeded_tree / "bad.py").write_text(
            "def cache_key(task):\n"
            "    from .engine.tasks import lint_gate_enabled\n"
            "    return lint_gate_enabled()\n"
        )
        problems = checker.check_knob_isolation(seeded_tree)
        assert len(problems) == 1
        assert "lint_gate_enabled" in problems[0]

    def test_key_module_referencing_a_knob_is_flagged(self, checker, seeded_tree):
        cache = seeded_tree / "engine"
        cache.mkdir()
        (cache / "cache.py").write_text(
            "from .tasks import LINT_GATE_ENV\n"
        )
        problems = checker.check_knob_isolation(seeded_tree)
        assert len(problems) == 1
        assert "LINT_GATE_ENV" in problems[0]

    def test_options_dataclass_with_knob_field_is_flagged(self, checker, seeded_tree):
        (seeded_tree / "opts.py").write_text(
            "class FooOptions:\n    lint_gate_enabled: bool = False\n"
        )
        problems = checker.check_knob_isolation(seeded_tree)
        assert len(problems) == 1
        assert "FooOptions" in problems[0]

    def test_clean_function_is_not_flagged(self, checker, seeded_tree):
        (seeded_tree / "ok.py").write_text(
            "def cache_key(task):\n    return hash(task)\n"
            "def run(options):\n"
            "    from .engine.tasks import lint_gate_enabled\n"
            "    return lint_gate_enabled()\n"
        )
        assert checker.check_knob_isolation(seeded_tree) == []


class TestNoUnpickling:
    def test_pickle_imports_are_flagged(self, checker, seeded_tree):
        (seeded_tree / "store.py").write_text(
            "import pickle\n"
            "def load(data):\n"
            "    from pickle import loads\n"
            "    return loads(data)\n"
        )
        problems = checker.check_no_unpickling(seeded_tree)
        assert len(problems) == 2
        assert any("store.py:1" in p for p in problems)
        assert any("store.py:3" in p for p in problems)

    def test_json_import_is_clean(self, checker, seeded_tree):
        (seeded_tree / "store.py").write_text("import json\n")
        assert checker.check_no_unpickling(seeded_tree) == []


class TestDeclaredDependencies:
    @pytest.fixture()
    def pyproject(self, seeded_tree):
        path = seeded_tree.parents[1] / "pyproject.toml"
        path.write_text(
            '[project]\nname = "demo"\ndependencies = [\n'
            '    "sympy>=1.11",\n    # the LP screen\n    "Scikit-Learn>=1",\n]\n\n'
            '[project.optional-dependencies]\ntest = ["pytest>=8"]\n'
        )
        return path

    def test_undeclared_third_party_import_is_flagged(
        self, checker, seeded_tree, pyproject
    ):
        (seeded_tree / "lp.py").write_text(
            "import math\nimport numpy as np\nfrom sympy import Rational\n"
        )
        problems = checker.check_declared_dependencies(seeded_tree)
        assert len(problems) == 1
        assert "lp.py:2" in problems[0] and "`numpy`" in problems[0]

    def test_optional_dependency_does_not_count(self, checker, seeded_tree, pyproject):
        (seeded_tree / "t.py").write_text("def f():\n    import pytest\n")
        problems = checker.check_declared_dependencies(seeded_tree)
        assert len(problems) == 1
        assert "`pytest`" in problems[0]

    def test_stdlib_package_and_declared_imports_are_clean(
        self, checker, seeded_tree, pyproject
    ):
        (seeded_tree / "ok.py").write_text(
            "from __future__ import annotations\n"
            "import concurrent.futures\nfrom fractions import Fraction\n"
            "from . import sibling\nfrom repro.formulas import sym\n"
            "import sympy\nfrom scikit_learn import thing\n"
        )
        assert checker.check_declared_dependencies(seeded_tree) == []

    def test_unreadable_dependency_list_is_flagged(self, checker, seeded_tree):
        (seeded_tree.parents[1] / "pyproject.toml").write_text(
            '[project]\nname = "demo"\ndependencies = deps()\n'
        )
        problems = checker.check_declared_dependencies(seeded_tree)
        assert len(problems) == 1
        assert "dependencies" in problems[0]


class TestFractionFreeModules:
    def test_fractions_import_in_projection_layer_is_flagged(
        self, checker, seeded_tree
    ):
        polyhedra = seeded_tree / "polyhedra"
        polyhedra.mkdir()
        (polyhedra / "fourier_motzkin.py").write_text(
            "import math\nfrom fractions import Fraction\n"
        )
        (polyhedra / "hull.py").write_text("import fractions\n")
        problems = checker.check_fraction_free_modules(seeded_tree)
        assert len(problems) == 2
        assert any("fourier_motzkin.py:2" in p for p in problems)
        assert any("hull.py:1" in p for p in problems)

    def test_boundary_modules_may_use_fractions(self, checker, seeded_tree):
        polyhedra = seeded_tree / "polyhedra"
        polyhedra.mkdir()
        (polyhedra / "constraint.py").write_text("from fractions import Fraction\n")
        (polyhedra / "cache.py").write_text("import math\n")
        assert checker.check_fraction_free_modules(seeded_tree) == []


class TestLayering:
    @staticmethod
    def write(root, relative, text):
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    def test_recurrence_importing_lang_is_flagged(self, checker, seeded_tree):
        self.write(seeded_tree, "recurrence/stratified.py", "from ..lang import ast\n")
        problems = checker.check_layering(seeded_tree)
        assert len(problems) == 1
        assert "stratified.py:1" in problems[0]
        assert "`recurrence` imports `lang`" in problems[0]

    def test_function_level_upward_import_is_flagged(self, checker, seeded_tree):
        self.write(
            seeded_tree,
            "core/chora.py",
            "import math\n\ndef run():\n    from ..engine.tasks import execute_task\n",
        )
        self.write(seeded_tree, "graphs.py", "import repro.lang\n")
        problems = checker.check_layering(seeded_tree)
        assert len(problems) == 2
        assert any("chora.py:4" in p and "`core` imports `engine`" in p for p in problems)
        assert any("graphs.py:1" in p and "`graphs` imports `lang`" in p for p in problems)

    def test_package_outside_the_order_is_flagged(self, checker, seeded_tree):
        self.write(seeded_tree, "extras/__init__.py", "")
        problems = checker.check_layering(seeded_tree)
        assert len(problems) == 1
        assert "`extras` is not in the layer order" in problems[0]

    def test_downward_own_and_root_imports_are_clean(self, checker, seeded_tree):
        self.write(
            seeded_tree,
            "lang/callgraph.py",
            "from ..graphs import strongly_connected_components\n"
            "from ..formulas import TransitionFormula\nfrom . import ast\n",
        )
        self.write(seeded_tree, "lang/ast.py", "")
        self.write(seeded_tree, "engine/cache.py", "from .. import __version__\n")
        self.write(seeded_tree, "cli.py", "from . import engine\nfrom .core import chora\n")
        self.write(seeded_tree, "__init__.py", "__version__ = '0'\n")
        assert checker.check_layering(seeded_tree) == []
