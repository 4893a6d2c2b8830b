"""Polynomials over :class:`~repro.formulas.symbols.Symbol` with rational coefficients.

The paper's *relational expressions* (§3) are polynomials over ``Var ∪ Var'``
with rational coefficients; candidate terms ``τ_k``, the atoms of transition
formulas, and the inequations produced by symbolic abstraction are all
represented with the :class:`Polynomial` class defined here.

Representation
--------------
A :class:`Monomial` is a product of symbol powers (the empty monomial is the
constant ``1``).  A :class:`Polynomial` is a finite map from monomials to
non-zero :class:`fractions.Fraction` coefficients.  All operations are exact.

Renaming symbols (:meth:`Polynomial.rename`) only remaps monomials: no
coefficient arithmetic beyond merging terms that collide.  Monomials, like
symbols, compute their hash once at construction and never pickle it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Union

from .symbols import Symbol

__all__ = ["Monomial", "Polynomial", "Coefficient", "as_polynomial"]

Coefficient = Union[int, Fraction]


@dataclass(frozen=True, slots=True)
class Monomial:
    """A product of symbol powers, e.g. ``x^2 * y``.

    Stored as a sorted tuple of ``(symbol, power)`` pairs with positive
    integer powers.  The empty tuple is the unit monomial (the constant 1).
    """

    powers: tuple[tuple[Symbol, int], ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # The value the generated dataclass hash would return, paid once.
        object.__setattr__(self, "_hash", hash((self.powers,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # As for Symbol: never pickle a hash computed under this process's seed.
        return (Monomial, (self.powers,))

    @staticmethod
    def unit() -> "Monomial":
        """The constant monomial ``1``."""
        return Monomial(())

    @staticmethod
    def of(symbol: Symbol, power: int = 1) -> "Monomial":
        """The monomial ``symbol**power``."""
        if power < 0:
            raise ValueError("monomial powers must be non-negative")
        if power == 0:
            return Monomial.unit()
        return Monomial(((symbol, power),))

    @staticmethod
    def from_mapping(mapping: Mapping[Symbol, int]) -> "Monomial":
        if any(p < 0 for p in mapping.values()):
            raise ValueError("monomial powers must be non-negative")
        return Monomial(tuple(sorted((s, p) for s, p in mapping.items() if p > 0)))

    @property
    def is_unit(self) -> bool:
        return not self.powers

    @property
    def degree(self) -> int:
        """Total degree of the monomial."""
        return sum(p for _, p in self.powers)

    @property
    def symbols(self) -> frozenset[Symbol]:
        return frozenset(s for s, _ in self.powers)

    def power_of(self, symbol: Symbol) -> int:
        for s, p in self.powers:
            if s == symbol:
                return p
        return 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        merged: dict[Symbol, int] = {}
        for s, p in self.powers:
            merged[s] = merged.get(s, 0) + p
        for s, p in other.powers:
            merged[s] = merged.get(s, 0) + p
        return Monomial.from_mapping(merged)

    def __str__(self) -> str:
        if self.is_unit:
            return "1"
        parts = []
        for s, p in self.powers:
            parts.append(str(s) if p == 1 else f"{s}^{p}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({self!s})"


class Polynomial:
    """A polynomial over symbols with exact rational coefficients.

    Polynomials are immutable value objects: arithmetic returns new instances
    and equality/hash are structural.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Coefficient] | None = None):
        cleaned: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                frac = Fraction(coeff)
                if frac != 0:
                    cleaned[mono] = cleaned.get(mono, Fraction(0)) + frac
                    if cleaned[mono] == 0:
                        del cleaned[mono]
        self._terms: dict[Monomial, Fraction] = cleaned

    @staticmethod
    def _adopt(terms: dict[Monomial, Fraction]) -> "Polynomial":
        """Wrap ``terms`` without cleaning it; the polynomial takes ownership.

        For arithmetic that already holds non-zero ``Fraction`` coefficients;
        everything else goes through the cleaning constructor.
        """
        poly = object.__new__(Polynomial)
        poly._terms = terms
        return poly

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def constant(value: Coefficient) -> "Polynomial":
        return Polynomial({Monomial.unit(): Fraction(value)})

    @staticmethod
    def var(symbol: Symbol) -> "Polynomial":
        return Polynomial({Monomial.of(symbol): Fraction(1)})

    @staticmethod
    def monomial(mono: Monomial, coeff: Coefficient = 1) -> "Polynomial":
        return Polynomial({mono: Fraction(coeff)})

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        """Read-only view of the monomial -> coefficient map."""
        return dict(self._terms)

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self._terms.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return all(m.is_unit for m in self._terms)

    @property
    def constant_value(self) -> Fraction:
        """The coefficient of the unit monomial."""
        return self._terms.get(Monomial.unit(), Fraction(0))

    @property
    def degree(self) -> int:
        if self.is_zero:
            return 0
        return max(m.degree for m in self._terms)

    @property
    def is_linear(self) -> bool:
        """True when every monomial has degree at most one."""
        return all(m.degree <= 1 for m in self._terms)

    @property
    def symbols(self) -> frozenset[Symbol]:
        out: set[Symbol] = set()
        for m in self._terms:
            out |= m.symbols
        return frozenset(out)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    def coefficient_of_symbol(self, symbol: Symbol) -> Fraction:
        """Coefficient of the degree-1 monomial of ``symbol`` (linear part)."""
        return self._terms.get(Monomial.of(symbol), Fraction(0))

    def linear_coefficients(self) -> dict[Symbol, Fraction]:
        """Map from symbols to their degree-1 coefficients."""
        out: dict[Symbol, Fraction] = {}
        for mono, coeff in self._terms.items():
            if mono.degree == 1:
                ((s, _),) = mono.powers
                out[s] = coeff
        return out

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: "Polynomial | Coefficient") -> "Polynomial":
        other = as_polynomial(other)
        merged = dict(self._terms)
        for mono, coeff in other._terms.items():
            _merge_term(merged, mono, coeff)
        return Polynomial._adopt(merged)

    def __radd__(self, other: Coefficient) -> "Polynomial":
        return self.__add__(other)

    def __sub__(self, other: "Polynomial | Coefficient") -> "Polynomial":
        return self + (-as_polynomial(other))

    def __rsub__(self, other: Coefficient) -> "Polynomial":
        return as_polynomial(other) - self

    def __neg__(self) -> "Polynomial":
        return Polynomial._adopt({m: -c for m, c in self._terms.items()})

    def __mul__(self, other: "Polynomial | Coefficient") -> "Polynomial":
        other = as_polynomial(other)
        result: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = m1 * m2
                previous = result.get(mono)
                result[mono] = c1 * c2 if previous is None else previous + c1 * c2
        # Zero sums drop only at the end: a monomial that cancels and then
        # recurs keeps its first position.
        return Polynomial._adopt({m: c for m, c in result.items() if c})

    def __rmul__(self, other: Coefficient) -> "Polynomial":
        return self.__mul__(other)

    def scale(self, factor: Coefficient) -> "Polynomial":
        factor = Fraction(factor)
        return Polynomial({m: c * factor for m, c in self._terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("polynomial powers must be non-negative")
        result = Polynomial.constant(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # ------------------------------------------------------------------ #
    # Substitution and evaluation
    # ------------------------------------------------------------------ #
    def substitute(self, mapping: Mapping[Symbol, "Polynomial"]) -> "Polynomial":
        """Simultaneously substitute polynomials for symbols."""
        if not mapping:
            return self
        result = Polynomial.zero()
        for mono, coeff in self._terms.items():
            term = Polynomial.constant(coeff)
            for symbol, power in mono.powers:
                replacement = mapping.get(symbol)
                if replacement is None:
                    replacement = Polynomial.var(symbol)
                term = term * (replacement ** power)
            result = result + term
        return result

    def rename(self, mapping: Mapping[Symbol, Symbol]) -> "Polynomial":
        """Simultaneously rename symbols according to ``mapping``.

        Each monomial's powers are remapped; symbols sent to one target add
        their powers.  Monomials that collide add their coefficients, in the
        term order a sum of renamed single terms would give (see
        :func:`_merge_term`), which fresh-symbol minting downstream follows.
        """
        if not mapping:
            return self
        terms: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            powers = mono.powers
            if any(s in mapping for s, _ in powers):
                merged: dict[Symbol, int] = {}
                for s, p in powers:
                    target = mapping.get(s, s)
                    merged[target] = merged.get(target, 0) + p
                mono = Monomial(tuple(sorted(merged.items())))
            _merge_term(terms, mono, coeff)
        return Polynomial._adopt(terms)

    def evaluate(self, assignment: Mapping[Symbol, Coefficient]) -> Fraction:
        """Evaluate the polynomial at a total assignment of its symbols."""
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            value = Fraction(coeff)
            for symbol, power in mono.powers:
                if symbol not in assignment:
                    raise KeyError(f"no value for symbol {symbol}")
                value *= Fraction(assignment[symbol]) ** power
            total += value
        return total

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    def split_linear(self) -> tuple[dict[Symbol, Fraction], Fraction, "Polynomial"]:
        """Split into (linear coefficients, constant, non-linear remainder)."""
        linear: dict[Symbol, Fraction] = {}
        constant = Fraction(0)
        nonlinear: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            if mono.is_unit:
                constant += coeff
            elif mono.degree == 1:
                ((s, _),) = mono.powers
                linear[s] = linear.get(s, Fraction(0)) + coeff
            else:
                nonlinear[mono] = coeff
        return linear, constant, Polynomial(nonlinear)

    def nonlinear_monomials(self) -> list[Monomial]:
        """The monomials of degree two or more appearing in the polynomial."""
        return [m for m in self._terms if m.degree >= 2]

    # ------------------------------------------------------------------ #
    # Comparison / rendering
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for mono, coeff in sorted(self._terms.items(), key=lambda kv: str(kv[0])):
            if mono.is_unit:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(str(mono))
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        rendered = " + ".join(parts)
        return rendered.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Polynomial({self!s})"


def _merge_term(terms: dict[Monomial, Fraction], mono: Monomial, coeff: Fraction) -> None:
    """Add ``coeff * mono`` into ``terms`` in place, deleting a sum of zero.

    The deletion is immediate, so a monomial that cancels and recurs later
    moves to the end: the order ``p + t1 + t2 + ...`` gives term by term.
    """
    previous = terms.get(mono)
    if previous is None:
        terms[mono] = coeff
    else:
        total = previous + coeff
        if total:
            terms[mono] = total
        else:
            del terms[mono]


def as_polynomial(value: "Polynomial | Symbol | Coefficient") -> Polynomial:
    """Coerce an int, Fraction, or Symbol into a :class:`Polynomial`."""
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, Symbol):
        return Polynomial.var(value)
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    raise TypeError(f"cannot interpret {value!r} as a polynomial")
