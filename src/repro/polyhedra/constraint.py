"""Linear constraints over symbols.

A :class:`LinearConstraint` denotes ``sum_i coeff_i * symbol_i + constant REL 0``
where ``REL`` is ``<=`` or ``==``.  Strict inequalities are soundly weakened to
non-strict ones when converting from formula atoms (the polyhedral domain of
the paper is a closed-convex-set domain, so this loses no precision for the
over-approximation direction the analysis needs).

Every constraint is stored as a **gcd-primitive integer row**: the
coefficients and the constant are Python ints whose greatest common divisor
is 1.  :meth:`LinearConstraint.make` clears denominators and divides by the
row gcd, so every positive rescaling of a constraint yields the same value,
and the projection, LP and memo layers run on integer arithmetic only.
Rationals survive at the boundaries: ``make`` accepts ``Fraction`` inputs,
and :meth:`LinearConstraint.to_polynomial` hands the row to the formula
layer, whose polynomials keep ``Fraction`` coefficients.  Equalities are not
sign-canonicalised: ``x - y == 0`` and ``y - x == 0`` stay distinct rows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from ..formulas.formula import Atom, AtomKind
from ..formulas.polynomial import Monomial, Polynomial
from ..formulas.symbols import Symbol

__all__ = ["ConstraintKind", "LinearConstraint", "combine", "constraint_from_atom"]


class ConstraintKind(enum.Enum):
    """Relation of a linear constraint to zero."""

    LE = "<="
    EQ = "=="


@dataclass(frozen=True)
class LinearConstraint:
    """``sum coeffs[s]*s + constant (<=|==) 0`` as a gcd-primitive int row."""

    coeffs: tuple[tuple[Symbol, int], ...]
    constant: int
    kind: ConstraintKind

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def make(
        coeffs: Mapping[Symbol, int | Fraction],
        constant: int | Fraction = 0,
        kind: ConstraintKind = ConstraintKind.LE,
    ) -> "LinearConstraint":
        """The primitive row of ``sum coeffs[s]*s + constant (kind) 0``.

        Zero coefficients are dropped, denominators are cleared and the row
        is divided by the gcd of its entries (constant included); the scale
        factors are positive, so the solution set is unchanged.
        """
        all_int = True
        scale = 1
        for value in (constant, *coeffs.values()):
            if type(value) is int:
                continue
            if not isinstance(value, (int, Fraction)):
                raise TypeError(
                    "constraint entries must be int or Fraction, not"
                    f" {type(value).__name__}"
                )
            all_int = False
            scale = math.lcm(scale, value.denominator)
        if all_int:
            return _primitive(coeffs, constant, kind)
        return _primitive(
            {s: c.numerator * (scale // c.denominator) for s, c in coeffs.items()},
            constant.numerator * (scale // constant.denominator),
            kind,
        )

    @staticmethod
    def le(polynomial: Polynomial) -> "LinearConstraint":
        """``polynomial <= 0`` (polynomial must be linear)."""
        return _from_linear_polynomial(polynomial, ConstraintKind.LE)

    @staticmethod
    def eq(polynomial: Polynomial) -> "LinearConstraint":
        """``polynomial == 0`` (polynomial must be linear)."""
        return _from_linear_polynomial(polynomial, ConstraintKind.EQ)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def coeff_map(self) -> dict[Symbol, int]:
        return dict(self.coeffs)

    @property
    def symbols(self) -> frozenset[Symbol]:
        return frozenset(s for s, _ in self.coeffs)

    @property
    def is_trivial(self) -> bool:
        """True when the constraint has no symbols and is satisfied."""
        if self.coeffs:
            return False
        if self.kind is ConstraintKind.LE:
            return self.constant <= 0
        return self.constant == 0

    @property
    def is_contradiction(self) -> bool:
        """True when the constraint has no symbols and is violated."""
        if self.coeffs:
            return False
        if self.kind is ConstraintKind.LE:
            return self.constant > 0
        return self.constant != 0

    def coefficient(self, symbol: Symbol) -> int:
        # Hot query (the simplex presolve calls it per symbol per
        # constraint); a lazily built lookup table replaces the linear
        # scan.  ``object.__setattr__`` sidesteps the frozen-dataclass guard
        # for what is a pure cache of the ``coeffs`` field.
        try:
            table = self._coefficient_table
        except AttributeError:
            table = dict(self.coeffs)
            object.__setattr__(self, "_coefficient_table", table)
        return table.get(symbol, 0)

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #
    def to_polynomial(self) -> Polynomial:
        """The linear polynomial ``sum coeffs*sym + constant``."""
        terms: dict[Monomial, int] = {Monomial.unit(): self.constant}
        for s, c in self.coeffs:
            terms[Monomial.of(s)] = c
        return Polynomial(terms)

    def to_atom(self) -> Atom:
        """The corresponding formula atom."""
        kind = AtomKind.LE if self.kind is ConstraintKind.LE else AtomKind.EQ
        return Atom(self.to_polynomial(), kind)

    def rename(self, mapping: Mapping[Symbol, Symbol]) -> "LinearConstraint":
        """Substitute symbols; only a merge of two symbols rebuilds the row."""
        renamed = [(mapping.get(s, s), c) for s, c in self.coeffs]
        if len({s for s, _ in renamed}) < len(renamed):
            merged: dict[Symbol, int] = {}
            for s, c in renamed:
                merged[s] = merged.get(s, 0) + c
            return _primitive(merged, self.constant, self.kind)
        renamed.sort(key=_symbol_order)
        return LinearConstraint(tuple(renamed), self.constant, self.kind)

    def evaluate(self, assignment: Mapping[Symbol, Fraction | int]) -> bool:
        value = self.constant
        for s, c in self.coeffs:
            value += c * Fraction(assignment[s])
        if self.kind is ConstraintKind.LE:
            return value <= 0
        return value == 0

    def __str__(self) -> str:
        lhs = " + ".join(f"{c}*{s}" for s, c in self.coeffs) or "0"
        return f"{lhs} + {self.constant} {self.kind.value} 0"


def combine(
    first: LinearConstraint,
    first_factor: int,
    second: LinearConstraint,
    second_factor: int,
    kind: ConstraintKind,
) -> LinearConstraint:
    """The primitive row of ``first_factor * first + second_factor * second``.

    This integer multiply-add is the equality substitution of the simplex
    presolve: callers pick the factors so that one symbol cancels (its zero
    coefficient is dropped), and give every inequality a positive factor so
    it keeps its direction.
    """
    coeffs = {s: first_factor * c for s, c in first.coeffs}
    for s, c in second.coeffs:
        coeffs[s] = coeffs.get(s, 0) + second_factor * c
    constant = first_factor * first.constant + second_factor * second.constant
    return _primitive(coeffs, constant, kind)


def _symbol_order(entry: tuple[Symbol, int]) -> str:
    return str(entry[0])


def _primitive(
    coeffs: Mapping[Symbol, int], constant: int, kind: ConstraintKind
) -> LinearConstraint:
    """The gcd-primitive, symbol-sorted row of an all-int constraint."""
    entries = [(s, c) for s, c in coeffs.items() if c]
    divisor = math.gcd(constant, *(c for _, c in entries))
    if divisor > 1:
        entries = [(s, c // divisor) for s, c in entries]
        constant //= divisor
    entries.sort(key=_symbol_order)
    return LinearConstraint(tuple(entries), constant, kind)


def _from_linear_polynomial(
    polynomial: Polynomial, kind: ConstraintKind
) -> LinearConstraint:
    if not polynomial.is_linear:
        raise ValueError(f"polynomial {polynomial} is not linear")
    linear, constant, _ = polynomial.split_linear()
    return LinearConstraint.make(linear, constant, kind)


def constraint_from_atom(atom: Atom) -> LinearConstraint:
    """Convert a *linear* atom to a constraint, weakening ``<`` to ``<=``."""
    if atom.kind is AtomKind.EQ:
        return LinearConstraint.eq(atom.polynomial)
    return LinearConstraint.le(atom.polynomial)
