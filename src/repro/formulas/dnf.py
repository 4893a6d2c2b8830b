"""Disjunctive-normal-form enumeration of transition formulas.

The symbolic-abstraction procedure (Alg. 1 of the paper) computes the convex
hull of a formula by enumerating the cubes of its DNF, projecting each cube,
and joining the projections.  The paper enumerates cubes lazily with an SMT
solver; this implementation enumerates them syntactically (existential
quantifiers are hoisted, conjunction is distributed over disjunction) and
lets the caller prune unsatisfiable cubes with the LP-based polyhedral check.

A hard cap on the number of cubes guards against exponential blow-up; when it
is hit the remaining disjuncts are merged conservatively (each is kept as a
single under-split cube containing only its common top-level atoms, which is a
sound over-approximation for the convex-hull client).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .formula import (
    And,
    Atom,
    Exists,
    FalseFormula,
    Formula,
    Or,
    TrueFormula,
)
from .symbols import Symbol, fresh

__all__ = ["Cube", "to_dnf", "DEFAULT_CUBE_LIMIT", "DnfLimitExceeded"]

#: Default maximum number of cubes produced by :func:`to_dnf`.
DEFAULT_CUBE_LIMIT = 512


class DnfLimitExceeded(Exception):
    """Raised internally when the cube limit would be exceeded."""


@dataclass(frozen=True)
class Cube:
    """A conjunction of atoms together with existentially bound symbols.

    Two cubes (or a cube and a hoisted quantifier) may use the *same name*
    for *distinct* bound variables — e.g. when one procedure summary is
    inlined at two call sites, both copies carry identical auxiliary names.
    Conflating them is unsound (it can make a feasible path formula
    unsatisfiable), so :meth:`conjoin` and the ``Exists`` hoist in
    :func:`to_dnf` alpha-rename colliding bound symbols to fresh ones.
    Renaming happens only on collision, so cube contents — and therefore the
    polyhedral memo keys downstream — are unchanged in the common case.
    """

    atoms: tuple[Atom, ...]
    bound: frozenset[Symbol] = frozenset()

    def symbols(self) -> frozenset[Symbol]:
        """Every symbol of the cube: atom occurrences and bound names."""
        cached = getattr(self, "_symbols", None)
        if cached is None:
            cached = self.bound
            for atom in self.atoms:
                cached |= atom.polynomial.symbols
            object.__setattr__(self, "_symbols", cached)
        return cached

    def alpha_renamed(self, collisions: frozenset[Symbol]) -> "Cube":
        """Rename the given *bound* symbols of this cube to fresh ones."""
        mapping: dict[Symbol, Symbol] = {}
        renamed_bound = set(self.bound)
        for symbol in collisions & self.bound:
            replacement = fresh(symbol.name)
            mapping[symbol] = replacement
            renamed_bound.discard(symbol)
            renamed_bound.add(replacement)
        if not mapping:
            return self
        atoms = tuple(
            Atom(atom.polynomial.rename(mapping), atom.kind)
            if atom.polynomial.symbols & mapping.keys()
            else atom
            for atom in self.atoms
        )
        return Cube(atoms, frozenset(renamed_bound))

    def conjoin(self, other: "Cube") -> "Cube":
        left, right = self, other
        # A symbol bound on one side and occurring on the other (bound *or*
        # free) names a different variable there: rename the bound one.
        if right.bound:
            collisions = right.bound & left.symbols()
            if collisions:
                right = right.alpha_renamed(collisions)
        if left.bound:
            collisions = left.bound & right.symbols()
            if collisions:
                left = left.alpha_renamed(collisions)
        return Cube(left.atoms + right.atoms, left.bound | right.bound)

    def with_bound(self, symbols: Iterable[Symbol]) -> "Cube":
        return Cube(self.atoms, self.bound | frozenset(symbols))

    @property
    def is_empty(self) -> bool:
        return not self.atoms

    def __str__(self) -> str:
        rendered = " /\\ ".join(str(a) for a in self.atoms) or "true"
        if self.bound:
            names = ", ".join(str(s) for s in sorted(self.bound))
            return f"exists {names}. {rendered}"
        return rendered


def to_dnf(formula: Formula, cube_limit: int = DEFAULT_CUBE_LIMIT) -> list[Cube]:
    """Enumerate the cubes of the DNF of ``formula``.

    Returns a (possibly empty) list of :class:`Cube`.  An empty list means the
    formula is syntactically ``false``.  A cube with no atoms means ``true``.

    The result over-approximates the formula whenever the ``cube_limit`` is
    hit: disjunctions that would blow past the limit are collapsed by keeping
    only atoms common to all of their disjuncts (a sound weakening for clients
    that compute over-approximations, such as the convex hull).
    """
    return _dnf(formula, cube_limit)


def _dnf(formula: Formula, limit: int) -> list[Cube]:
    if isinstance(formula, TrueFormula):
        return [Cube(())]
    if isinstance(formula, FalseFormula):
        return []
    if isinstance(formula, Atom):
        return [Cube((formula,))]
    convex = _conjunctive_cube(formula)
    if convex is not None:
        # Or-free formulas are already one convex cube: skip the whole
        # distribute-and-conjoin machinery (which builds a quadratic chain
        # of intermediate cubes for the deeply nested conjunctions that
        # transition-formula composition produces).
        return [convex]
    if isinstance(formula, Exists):
        inner = _dnf(formula.body, limit)
        symbols = frozenset(formula.symbols)
        hoisted = []
        for cube in inner:
            # A same-named symbol already bound inside the body is a
            # *different* (shadowing) variable: rename it before binding
            # this quantifier's occurrences.
            collisions = cube.bound & symbols
            if collisions:
                cube = cube.alpha_renamed(collisions)
            hoisted.append(cube.with_bound(symbols))
        return hoisted
    if isinstance(formula, Or):
        cubes: list[Cube] = []
        for child in formula.children:
            cubes.extend(_dnf(child, limit))
            if len(cubes) > limit:
                return _collapse(formula, limit)
        return cubes
    if isinstance(formula, And):
        product: list[Cube] = [Cube(())]
        for child in formula.children:
            child_cubes = _dnf(child, limit)
            if not child_cubes:
                return []
            if len(product) * len(child_cubes) > limit:
                collapsed = _collapse_cubes(child_cubes)
                child_cubes = [collapsed]
            product = [p.conjoin(c) for p in product for c in child_cubes]
            if len(product) > limit:
                product = [_collapse_cubes(product)]
        return product
    raise TypeError(f"unknown formula node {formula!r}")


def _conjunctive_cube(formula: Formula) -> Cube | None:
    """The single cube of an Or-free formula, or ``None`` if it has an Or.

    ``false`` anywhere in the conjunction makes the whole formula false,
    which has no cube either — callers fall through to the general case,
    whose And handler prunes it the same way.

    The walk also returns ``None`` on any bound-name collision — a name
    bound twice (sibling or shadowing quantifiers), an atom mentioning a
    name whose binder's scope has already closed, or a quantifier binding a
    name an earlier sibling atom uses freely.  Flattening such a formula
    here would conflate distinct variables; the general machinery
    alpha-renames them correctly instead.  Collisions only arise when one
    subformula is copied into two contexts (e.g. a summary inlined at two
    call sites), so the fast path still serves the common case.
    """
    atoms: list[Atom] = []
    bound: set[Symbol] = set()
    closed: set[Symbol] = set()
    seen_atom_symbols: set[Symbol] = set()
    _EXIT = object()
    stack: list[object] = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple) and node and node[0] is _EXIT:
            closed.update(node[1])
            continue
        if isinstance(node, Atom):
            atom_symbols = node.polynomial.symbols
            if closed & atom_symbols:
                return None
            atoms.append(node)
            seen_atom_symbols.update(atom_symbols)
        elif isinstance(node, And):
            stack.extend(reversed(node.children))
        elif isinstance(node, Exists):
            symbols = set(node.symbols)
            if symbols & bound or symbols & seen_atom_symbols:
                return None
            bound.update(symbols)
            stack.append((_EXIT, symbols))
            stack.append(node.body)
        elif isinstance(node, TrueFormula):
            continue
        else:
            return None
    return Cube(tuple(atoms), frozenset(bound))


def _collapse(formula: Or, limit: int) -> list[Cube]:
    """Collapse a disjunction that exceeded the limit into one weak cube."""
    child_cubes: list[Cube] = []
    for child in formula.children:
        cubes = _dnf(child, limit)
        if not cubes:
            continue
        child_cubes.append(_collapse_cubes(cubes))
    if not child_cubes:
        return []
    return [_common_atoms(child_cubes)]


def _collapse_cubes(cubes: Sequence[Cube]) -> Cube:
    """Merge several cubes into one keeping only their shared atoms."""
    if len(cubes) == 1:
        return cubes[0]
    return _common_atoms(cubes)


def _common_atoms(cubes: Sequence[Cube]) -> Cube:
    shared = set(cubes[0].atoms)
    bound: frozenset[Symbol] = frozenset()
    for cube in cubes[1:]:
        shared &= set(cube.atoms)
    for cube in cubes:
        bound |= cube.bound
    ordered = tuple(a for a in cubes[0].atoms if a in shared)
    return Cube(ordered, bound)
