#!/usr/bin/env python3
"""Source-invariant checker (CI's ``invariants`` step, importable by tests).

A Python-AST lint over ``src/repro`` for five invariants no unit test can
pin down once and for all, because new call sites keep appearing:

* **Process-wide knobs stay out of cache keys.**  The lint gate
  (``LINT_GATE_ENV`` / ``lint_gate_enabled`` in ``engine/tasks.py``) is
  the one process-wide knob: it reaches forked and spawned workers
  through the environment and leaves lint-clean results bit-identical, so
  it must never flow into fingerprint or cache/memo-key construction: a
  key that varied with it would split one logical result across entries.
  Every function whose name marks it as key material (``fingerprint``,
  ``cache_key``, ``cache_material``, ...) is checked for references to
  the knob, the key-building modules are checked wholesale, and the
  ``*Options`` dataclasses (whose ``to_dict`` feeds the result-cache key)
  must not grow a field named after it.
* **Nothing is unpickled from disk.**  No module may import ``pickle``
  (or ``shelve``, which stores pickles): on-disk state is JSON only, and
  unpickling a file from a shared cache directory can execute code.
  Pickles only cross pipes to the package's own child processes, through
  ``multiprocessing``.
* **The package imports only what it declares.**  Every top-level import
  that is neither standard library (``sys.stdlib_module_names``) nor
  ``repro`` itself must name a ``[project].dependencies`` entry of
  ``pyproject.toml`` (compared after lower-casing and mapping ``-``/``.``
  to ``_``, i.e. the import name is assumed to be the project name), so a
  clean install of the declared dependencies can import every module.
* **Packages import only the layers below them.**  The packages of
  ``src/repro`` form the layer order of :data:`LAYERS`, bottom first; a
  module may import its own package, the root ``repro`` package and the
  packages of strictly lower layers, nothing else.  Function-level and
  ``TYPE_CHECKING`` imports count too, so a cycle cannot hide inside a
  function body.
* **The projection, memo and hull layers are Fraction-free.**  Constraints
  are gcd-primitive integer rows; ``polyhedra/fourier_motzkin.py``,
  ``polyhedra/cache.py`` and ``polyhedra/hull.py`` may not import
  ``fractions``, so rational arithmetic cannot creep back into them.

Run from the repository root::

    python tools/check_invariants.py

Exit status 0 when the sources are clean, 1 otherwise (problems on stderr).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterator, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
SOURCE_ROOT = REPO_ROOT / "src" / "repro"

#: Identifiers of the process-wide lint gate.  Referencing any of these
#: from key-construction code is a finding.
KNOB_IDENTIFIERS = frozenset({"LINT_GATE_ENV", "lint_gate_enabled"})

#: Function names that mark a definition as key material.
KEY_FUNCTION_NAMES = frozenset(
    {"fingerprint", "code_fingerprint", "cache_key", "cache_material", "key"}
)

#: Modules that exist to build keys; the knob identifiers may not appear
#: anywhere in them, not even in imports or comments-of-code.
KEY_MODULES = ("engine/cache.py", "lang/fingerprint.py")

#: Modules that deserialise pickles; importing any of them is a finding.
UNPICKLING_MODULES = frozenset({"pickle", "_pickle", "shelve"})

#: Modules that work on integer constraint rows only.
FRACTION_FREE_MODULES = (
    "polyhedra/fourier_motzkin.py",
    "polyhedra/cache.py",
    "polyhedra/hull.py",
)

#: The packages (and top-level modules) of ``src/repro``, bottom layer
#: first.  ``graphs`` is the one SCC routine, shared by ``lang`` (call
#: graphs) and ``recurrence`` (stratification), which must not import each
#: other.
LAYERS: tuple[frozenset[str], ...] = (
    frozenset({"formulas", "benchlib", "graphs"}),
    frozenset({"lang", "polyhedra", "recurrence"}),
    frozenset({"abstraction"}),
    frozenset({"analysis", "lint"}),
    frozenset({"core"}),
    frozenset({"baselines"}),
    frozenset({"engine"}),
    frozenset({"service", "fuzz", "reporting"}),
    frozenset({"cli"}),
    frozenset({"__main__"}),
)

#: One element of a TOML string array: a quoted string or a comment.
_ARRAY_TOKEN = r"""("[^"]*"|'[^']*'|\#[^\n]*)"""

#: ``dependencies = [...]`` holding only quoted requirement strings (and
#: comments).
_DEPENDENCY_ARRAY = re.compile(
    rf"^dependencies\s*=\s*\[((?:\s*{_ARRAY_TOKEN}\s*,?)*)\s*\]", re.M
)


def python_sources(root: Path = SOURCE_ROOT) -> list[Path]:
    """Every Python file of the package, deterministic order."""
    return sorted(root.rglob("*.py"))


def _identifiers(node: ast.AST) -> Iterator[str]:
    """Every Name and Attribute identifier mentioned under ``node``."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name.split(".")[-1]


def _function_definitions(
    tree: ast.AST,
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """``(qualified_name, node)`` for every function, classes flattened."""

    def walk(node: ast.AST, prefix: str) -> Iterator[tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}{child.name}", child
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")

    yield from walk(tree, "")  # type: ignore[misc]


def check_knob_isolation(root: Path = SOURCE_ROOT) -> list[str]:
    """Knob references inside key-construction code (empty when clean)."""
    problems: list[str] = []
    for path in python_sources(root):
        relative = path.relative_to(REPO_ROOT)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(relative))
        module_is_key = str(path).replace("\\", "/").endswith(KEY_MODULES)
        if module_is_key:
            for identifier in set(_identifiers(tree)) & KNOB_IDENTIFIERS:
                problems.append(
                    f"{relative}: key-building module references process-wide knob"
                    f" `{identifier}` — knobs must not flow into cache keys"
                )
            continue
        for qualified, function in _function_definitions(tree):
            name = qualified.rsplit(".", 1)[-1]
            if name not in KEY_FUNCTION_NAMES:
                continue
            for identifier in set(_identifiers(function)) & KNOB_IDENTIFIERS:
                problems.append(
                    f"{relative}: key function `{qualified}` references process-wide"
                    f" knob `{identifier}` — knobs must not flow into cache keys"
                )
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or not node.name.endswith("Options"):
                continue
            for statement in node.body:
                if not isinstance(statement, ast.AnnAssign):
                    continue
                target = statement.target
                if isinstance(target, ast.Name) and target.id in KNOB_IDENTIFIERS:
                    problems.append(
                        f"{relative}: options dataclass `{node.name}` declares"
                        f" knob field `{target.id}` — its to_dict() feeds the"
                        " result-cache key"
                    )
    return problems


def _top_level_imports(tree: ast.AST) -> Iterator[tuple[str, int]]:
    """``(top-level module, line)`` of every absolute import under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0], node.lineno


def declared_dependencies(pyproject: Path) -> Optional[frozenset[str]]:
    """Normalised ``[project].dependencies`` names, ``None`` if unreadable."""
    text = pyproject.read_text(encoding="utf-8")
    project = re.search(r"^\[project\][ \t]*$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    array = project and _DEPENDENCY_ARRAY.search(project.group(1))
    if not array:
        return None
    names = set()
    for token in re.findall(_ARRAY_TOKEN, array.group(1)):
        name = re.match(r"""["']\s*([A-Za-z0-9][A-Za-z0-9._-]*)""", token)
        if name:
            names.add(_normalise(name.group(1)))
    return frozenset(names)


def _normalise(name: str) -> str:
    return name.lower().replace("-", "_").replace(".", "_")


def check_declared_dependencies(root: Path = SOURCE_ROOT) -> list[str]:
    """Third-party imports missing from pyproject.toml (empty when clean)."""
    pyproject = REPO_ROOT / "pyproject.toml"
    declared = declared_dependencies(pyproject)
    if declared is None:
        return [
            f"{pyproject.name}: no [project] dependencies array of quoted"
            " requirement strings"
        ]
    problems: list[str] = []
    for path in python_sources(root):
        relative = path.relative_to(REPO_ROOT)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(relative))
        for module, line in _top_level_imports(tree):
            if (
                module in sys.stdlib_module_names
                or module == "repro"
                or _normalise(module) in declared
            ):
                continue
            problems.append(
                f"{relative}:{line}: imports third-party `{module}`, which is"
                " not a declared dependency in pyproject.toml"
            )
    return problems


def check_fraction_free_modules(root: Path = SOURCE_ROOT) -> list[str]:
    """Imports of ``fractions`` in the integer-row modules (empty when clean)."""
    problems: list[str] = []
    for path in python_sources(root):
        if not str(path).replace("\\", "/").endswith(FRACTION_FREE_MODULES):
            continue
        relative = path.relative_to(REPO_ROOT)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(relative))
        for module, line in _top_level_imports(tree):
            if module == "fractions":
                problems.append(
                    f"{relative}:{line}: imports `fractions` — constraints are"
                    " integer rows; rationals belong at the make()/formula"
                    " boundary"
                )
    return problems


def _repro_imports(path: Path, root: Path) -> Iterator[tuple[str, int]]:
    """``(package, line)`` of every import of a ``repro`` package in ``path``.

    Relative imports are resolved against the module's own package; an
    import of the root package itself (``from .. import __version__``)
    names no package and is skipped.
    """
    here = ["repro", *path.relative_to(root).parts[:-1]]
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = here[: len(here) - node.level + 1] if node.level else []
            module = base + (node.module.split(".") if node.module else [])
            if len(module) > 1:
                targets = [module]
            else:  # ``from <root> import a, b``: a name may be a package
                targets = [
                    module + [alias.name]
                    for alias in node.names
                    if (root / alias.name).is_dir() or (root / f"{alias.name}.py").is_file()
                ]
        else:
            continue
        for target in targets:
            if target[0] == "repro" and len(target) > 1:
                yield target[1], node.lineno


def check_layering(root: Path = SOURCE_ROOT) -> list[str]:
    """Imports of a package that is not in a strictly lower layer."""
    rank = {package: index for index, layer in enumerate(LAYERS) for package in layer}
    problems: list[str] = []
    for path in python_sources(root):
        relative = path.relative_to(REPO_ROOT)
        parts = path.relative_to(root).with_suffix("").parts
        if parts == ("__init__",):
            continue
        package = parts[0]
        if package not in rank:
            problems.append(
                f"{relative}: package `{package}` is not in the layer order"
                " (LAYERS in tools/check_invariants.py)"
            )
            continue
        for target, line in _repro_imports(path, root):
            if target == package or rank.get(target, len(LAYERS)) < rank[package]:
                continue
            problems.append(
                f"{relative}:{line}: `{package}` imports `{target}`, which is"
                " not in a lower layer"
            )
    return problems


def check_no_unpickling(root: Path = SOURCE_ROOT) -> list[str]:
    """Imports of pickle-reading modules (empty when clean)."""
    problems: list[str] = []
    for path in python_sources(root):
        relative = path.relative_to(REPO_ROOT)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(relative))
        for module, line in _top_level_imports(tree):
            if module in UNPICKLING_MODULES:
                problems.append(
                    f"{relative}:{line}: imports `{module}` — on-disk state is"
                    " JSON; pickles only cross pipes to the package's own"
                    " child processes"
                )
    return problems


def main() -> int:
    problems = (
        check_knob_isolation()
        + check_no_unpickling()
        + check_declared_dependencies()
        + check_fraction_free_modules()
        + check_layering()
    )
    for problem in problems:
        print(f"INVARIANT: {problem}", file=sys.stderr)
    if not problems:
        print(f"invariants ok ({len(python_sources())} files checked)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
