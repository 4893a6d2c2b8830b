"""Transition-formula syntax.

A *transition formula* (§3) is a first-order formula over the program
variables ``Var`` and their primed copies ``Var'`` (plus auxiliary symbols).
This module provides the formula AST used throughout the analysis:

* :class:`Atom` — a polynomial inequation/equation ``p <= 0``, ``p < 0`` or
  ``p = 0``;
* :class:`And` / :class:`Or` — finite conjunction / disjunction;
* :class:`Exists` — existential quantification over auxiliary symbols;
* :data:`TRUE` / :data:`FALSE` — the trivial formulas.

Negation is not a constructor; :func:`negate` pushes negations down to atoms
(over the integers ``not (p <= 0)`` becomes ``-p + 1 <= 0``, i.e. ``p >= 1``;
over the rationals it becomes the strict atom ``-p < 0``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .polynomial import Polynomial, as_polynomial
from .symbols import Symbol

__all__ = [
    "AtomKind",
    "Formula",
    "Atom",
    "And",
    "Or",
    "Exists",
    "TrueFormula",
    "FalseFormula",
    "TRUE",
    "FALSE",
    "conjoin",
    "disjoin",
    "exists",
    "negate",
    "atom_le",
    "atom_lt",
    "atom_eq",
    "atom_ge",
    "atom_gt",
    "free_symbols",
    "substitute",
    "rename",
    "map_atoms",
    "formula_size",
]


class AtomKind(enum.Enum):
    """Relation of an atom's polynomial to zero."""

    LE = "<="   # p <= 0
    LT = "<"    # p < 0
    EQ = "=="   # p == 0


class Formula:
    """Base class of all formula nodes (value objects)."""

    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return conjoin([self, other])

    def __or__(self, other: "Formula") -> "Formula":
        return disjoin([self, other])


@dataclass(frozen=True)
class TrueFormula(Formula):
    """The formula ``true``."""

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseFormula(Formula):
    """The formula ``false``."""

    def __str__(self) -> str:
        return "false"


TRUE = TrueFormula()
FALSE = FalseFormula()


@dataclass(frozen=True)
class Atom(Formula):
    """An atomic constraint ``polynomial kind 0``."""

    polynomial: Polynomial
    kind: AtomKind

    def __str__(self) -> str:
        return f"{self.polynomial} {self.kind.value} 0"

    @property
    def is_linear(self) -> bool:
        return self.polynomial.is_linear


@dataclass(frozen=True)
class And(Formula):
    """Finite conjunction."""

    children: tuple[Formula, ...]

    def __str__(self) -> str:
        return "(" + " /\\ ".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class Or(Formula):
    """Finite disjunction."""

    children: tuple[Formula, ...]

    def __str__(self) -> str:
        return "(" + " \\/ ".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class Exists(Formula):
    """Existential quantification over a tuple of symbols."""

    symbols: tuple[Symbol, ...]
    body: Formula

    def __str__(self) -> str:
        quantified = ", ".join(str(s) for s in self.symbols)
        return f"(exists {quantified}. {self.body})"


# ---------------------------------------------------------------------- #
# Smart constructors
# ---------------------------------------------------------------------- #
def atom_le(lhs, rhs=0) -> Formula:
    """The atom ``lhs <= rhs`` (normalized to ``lhs - rhs <= 0``)."""
    poly = as_polynomial(lhs) - as_polynomial(rhs)
    return _normalize_atom(poly, AtomKind.LE)


def atom_lt(lhs, rhs=0) -> Formula:
    """The atom ``lhs < rhs``."""
    poly = as_polynomial(lhs) - as_polynomial(rhs)
    return _normalize_atom(poly, AtomKind.LT)


def atom_ge(lhs, rhs=0) -> Formula:
    """The atom ``lhs >= rhs`` (i.e. ``rhs - lhs <= 0``)."""
    return atom_le(rhs, lhs)


def atom_gt(lhs, rhs=0) -> Formula:
    """The atom ``lhs > rhs``."""
    return atom_lt(rhs, lhs)


def atom_eq(lhs, rhs=0) -> Formula:
    """The atom ``lhs == rhs``."""
    poly = as_polynomial(lhs) - as_polynomial(rhs)
    return _normalize_atom(poly, AtomKind.EQ)


def _normalize_atom(poly: Polynomial, kind: AtomKind) -> Formula:
    """Evaluate constant atoms to TRUE/FALSE; otherwise build the Atom."""
    if poly.is_constant:
        value = poly.constant_value
        if kind is AtomKind.LE:
            return TRUE if value <= 0 else FALSE
        if kind is AtomKind.LT:
            return TRUE if value < 0 else FALSE
        return TRUE if value == 0 else FALSE
    return Atom(poly, kind)


def conjoin(formulas: Iterable[Formula]) -> Formula:
    """Conjunction with flattening and TRUE/FALSE simplification."""
    flattened: list[Formula] = []
    for formula in formulas:
        if isinstance(formula, FalseFormula):
            return FALSE
        if isinstance(formula, TrueFormula):
            continue
        if isinstance(formula, And):
            flattened.extend(formula.children)
        else:
            flattened.append(formula)
    if not flattened:
        return TRUE
    if len(flattened) == 1:
        return flattened[0]
    return And(tuple(flattened))


def disjoin(formulas: Iterable[Formula]) -> Formula:
    """Disjunction with flattening and TRUE/FALSE simplification."""
    flattened: list[Formula] = []
    for formula in formulas:
        if isinstance(formula, TrueFormula):
            return TRUE
        if isinstance(formula, FalseFormula):
            continue
        if isinstance(formula, Or):
            flattened.extend(formula.children)
        else:
            flattened.append(formula)
    if not flattened:
        return FALSE
    if len(flattened) == 1:
        return flattened[0]
    return Or(tuple(flattened))


def exists(symbols: Sequence[Symbol], body: Formula) -> Formula:
    """Existential quantification, flattening nested quantifiers."""
    symbols = tuple(symbols)
    if not symbols:
        return body
    if isinstance(body, (TrueFormula, FalseFormula)):
        return body
    if isinstance(body, Exists):
        return Exists(tuple(dict.fromkeys(body.symbols + symbols)), body.body)
    relevant = tuple(s for s in dict.fromkeys(symbols) if s in free_symbols(body))
    if not relevant:
        return body
    return Exists(relevant, body)


# ---------------------------------------------------------------------- #
# Negation
# ---------------------------------------------------------------------- #
def negate(formula: Formula, integer_semantics: bool = True) -> Formula:
    """Negation-normal form negation of ``formula``.

    With ``integer_semantics`` (the default) the negation of ``p <= 0`` is the
    non-strict atom ``p >= 1``; over the rationals it is the strict ``p > 0``.
    Existentially quantified formulas cannot be negated exactly (that would
    require universal quantification); negating one raises ``ValueError`` so
    callers are forced to eliminate quantifiers first.
    """
    if isinstance(formula, TrueFormula):
        return FALSE
    if isinstance(formula, FalseFormula):
        return TRUE
    if isinstance(formula, Atom):
        poly = formula.polynomial
        if formula.kind is AtomKind.LE:
            if integer_semantics:
                return atom_le(Polynomial.constant(1) - poly)  # p >= 1
            return _normalize_atom(-poly, AtomKind.LT)  # p > 0
        if formula.kind is AtomKind.LT:
            return _normalize_atom(-poly, AtomKind.LE)  # p >= 0
        # not (p == 0)  ==  p < 0 \/ p > 0
        if integer_semantics:
            return disjoin(
                [atom_le(poly + 1), atom_le(Polynomial.constant(1) - poly)]
            )
        return disjoin(
            [_normalize_atom(poly, AtomKind.LT), _normalize_atom(-poly, AtomKind.LT)]
        )
    if isinstance(formula, And):
        return disjoin([negate(c, integer_semantics) for c in formula.children])
    if isinstance(formula, Or):
        return conjoin([negate(c, integer_semantics) for c in formula.children])
    if isinstance(formula, Exists):
        raise ValueError("cannot negate an existentially quantified formula exactly")
    raise TypeError(f"unknown formula node {formula!r}")


# ---------------------------------------------------------------------- #
# Traversals
# ---------------------------------------------------------------------- #
def free_symbols(formula: Formula) -> frozenset[Symbol]:
    """The free symbols of ``formula``."""
    if isinstance(formula, (TrueFormula, FalseFormula)):
        return frozenset()
    if isinstance(formula, Atom):
        return formula.polynomial.symbols
    if isinstance(formula, (And, Or)):
        out: set[Symbol] = set()
        for child in formula.children:
            out |= free_symbols(child)
        return frozenset(out)
    if isinstance(formula, Exists):
        return free_symbols(formula.body) - set(formula.symbols)
    raise TypeError(f"unknown formula node {formula!r}")


def map_atoms(formula: Formula, fn: Callable[[Atom], Formula]) -> Formula:
    """Rebuild ``formula`` with each atom replaced by ``fn(atom)``."""
    if isinstance(formula, (TrueFormula, FalseFormula)):
        return formula
    if isinstance(formula, Atom):
        return fn(formula)
    if isinstance(formula, And):
        return conjoin([map_atoms(c, fn) for c in formula.children])
    if isinstance(formula, Or):
        return disjoin([map_atoms(c, fn) for c in formula.children])
    if isinstance(formula, Exists):
        return exists(formula.symbols, map_atoms(formula.body, fn))
    raise TypeError(f"unknown formula node {formula!r}")


def substitute(formula: Formula, mapping: Mapping[Symbol, Polynomial]) -> Formula:
    """Substitute polynomials for free symbols (capture-avoiding).

    Quantified symbols are never substituted; if a quantified symbol collides
    with a symbol of a substituted polynomial the quantified occurrence is
    untouched (callers use globally fresh symbols for quantifiers, so capture
    does not arise in practice, but we guard against it defensively).
    """
    return _rewrite_free(formula, mapping, Polynomial.substitute)


def rename(formula: Formula, mapping: Mapping[Symbol, Symbol]) -> Formula:
    """Rename free symbols according to ``mapping``; like :func:`substitute`,
    never rewrites a symbol an ``Exists`` binds."""
    return _rewrite_free(formula, mapping, Polynomial.rename)


def _rewrite_free(
    formula: Formula,
    mapping: Mapping[Symbol, object],
    rewrite: Callable[[Polynomial, Mapping], Polynomial],
) -> Formula:
    """Apply ``rewrite(polynomial, mapping)`` to every atom, leaving bound
    symbols alone: an ``Exists`` drops its own symbols from ``mapping``."""
    if not mapping:
        return formula
    if isinstance(formula, (TrueFormula, FalseFormula)):
        return formula
    if isinstance(formula, Atom):
        return _normalize_atom(rewrite(formula.polynomial, mapping), formula.kind)
    if isinstance(formula, And):
        return conjoin([_rewrite_free(c, mapping, rewrite) for c in formula.children])
    if isinstance(formula, Or):
        return disjoin([_rewrite_free(c, mapping, rewrite) for c in formula.children])
    if isinstance(formula, Exists):
        bound = set(formula.symbols)
        inner = {s: p for s, p in mapping.items() if s not in bound}
        return exists(formula.symbols, _rewrite_free(formula.body, inner, rewrite))
    raise TypeError(f"unknown formula node {formula!r}")


def formula_size(formula: Formula) -> int:
    """Number of nodes in the formula (used for blow-up guards and tests)."""
    if isinstance(formula, (TrueFormula, FalseFormula, Atom)):
        return 1
    if isinstance(formula, (And, Or)):
        return 1 + sum(formula_size(c) for c in formula.children)
    if isinstance(formula, Exists):
        return 1 + formula_size(formula.body)
    raise TypeError(f"unknown formula node {formula!r}")
