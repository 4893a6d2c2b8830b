"""Exponential-polynomial closed forms.

Every C-finite sequence admits a closed form that is an *exponential
polynomial* (§3, Defn. 3.1 of the paper):

    s(k) = p_1(k) r_1^k + p_2(k) r_2^k + ... + p_l(k) r_l^k

where each ``p_i`` is a polynomial in ``k`` and each ``r_i`` is a constant.
:class:`ExpPoly` represents such closed forms exactly: a map from bases
``r_i`` (sympy numbers, possibly negative or irrational) to polynomial
coefficients ``p_i(k)`` (sympy expressions in the sequence variable).

The class supports the algebra needed by the stratified-recurrence solver:
addition, multiplication (bases multiply), shifting the index, substitution
of the index by an arbitrary expression (used when the recursion height ``h``
is replaced by a depth bound such as ``log2(n) + 1``), and evaluation at
integer points (used by tests to cross-check against direct iteration of the
recurrence).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

import sympy
# Add.flatten imports this (and sympy.combinatorics) on first use; loading it
# here puts it in the image every forked worker inherits.
import sympy.tensor.tensor  # noqa: F401

__all__ = ["ExpPoly"]

#: The canonical sequence variable used when none is supplied.
DEFAULT_VARIABLE = sympy.Symbol("h", integer=True, nonnegative=True)


def _to_sympy_number(value) -> sympy.Expr:
    if isinstance(value, Fraction):
        return sympy.Rational(value.numerator, value.denominator)
    return sympy.sympify(value)


class ExpPoly:
    """An exponential-polynomial ``sum_i p_i(var) * base_i**var``."""

    __slots__ = ("var", "_terms")

    def __init__(self, var: sympy.Symbol | None = None, terms: Mapping | None = None):
        self.var = var if var is not None else DEFAULT_VARIABLE
        cleaned: dict[sympy.Expr, sympy.Expr] = {}
        if terms:
            for base, poly in terms.items():
                base = _to_sympy_number(base)
                if base == 0:
                    raise ValueError("ExpPoly bases must be non-zero")
                poly = sympy.expand(sympy.sympify(poly))
                if poly == 0:
                    continue
                cleaned[base] = sympy.expand(cleaned.get(base, sympy.Integer(0)) + poly)
                if cleaned[base] == 0:
                    del cleaned[base]
        self._terms = cleaned

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def zero(var: sympy.Symbol | None = None) -> "ExpPoly":
        return ExpPoly(var, {})

    @staticmethod
    def constant(value, var: sympy.Symbol | None = None) -> "ExpPoly":
        return ExpPoly(var, {sympy.Integer(1): _to_sympy_number(value)})

    @staticmethod
    def polynomial(poly, var: sympy.Symbol | None = None) -> "ExpPoly":
        """A purely polynomial closed form (base 1)."""
        return ExpPoly(var, {sympy.Integer(1): poly})

    @staticmethod
    def exponential(base, coefficient=1, var: sympy.Symbol | None = None) -> "ExpPoly":
        """``coefficient * base**var``."""
        return ExpPoly(var, {base: coefficient})

    @staticmethod
    def variable(var: sympy.Symbol | None = None) -> "ExpPoly":
        """The closed form ``var`` itself."""
        v = var if var is not None else DEFAULT_VARIABLE
        return ExpPoly(v, {sympy.Integer(1): v})

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def terms(self) -> dict[sympy.Expr, sympy.Expr]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        if not self._terms:
            return True
        if set(self._terms) != {sympy.Integer(1)}:
            return False
        return self.var not in self._terms[sympy.Integer(1)].free_symbols

    def dominant_term(self) -> tuple[sympy.Expr, int]:
        """The asymptotically dominant ``(|base|, degree)`` pair.

        Terms are ordered first by absolute value of the base, then by the
        degree of the polynomial coefficient.
        """
        if self.is_zero:
            return sympy.Integer(1), -1
        best = None
        for base, poly in self._terms.items():
            degree = sympy.Poly(poly, self.var).degree() if poly.has(self.var) else 0
            key = (abs(base), degree)
            if best is None or (key[0] > best[0]) or (key[0] == best[0] and key[1] > best[1]):
                best = (abs(base), degree)
        return best

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #
    def _check_var(self, other: "ExpPoly") -> None:
        if self.var != other.var:
            raise ValueError(
                f"cannot combine closed forms over different variables "
                f"({self.var} vs {other.var})"
            )

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            other = ExpPoly.constant(other, self.var)
        self._check_var(other)
        merged = dict(self._terms)
        for base, poly in other._terms.items():
            merged[base] = merged.get(base, sympy.Integer(0)) + poly
        return ExpPoly(self.var, merged)

    def __radd__(self, other) -> "ExpPoly":
        return self.__add__(other)

    def __neg__(self) -> "ExpPoly":
        return ExpPoly(self.var, {b: -p for b, p in self._terms.items()})

    def __sub__(self, other) -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            other = ExpPoly.constant(other, self.var)
        return self + (-other)

    def __rsub__(self, other) -> "ExpPoly":
        return ExpPoly.constant(other, self.var) - self

    def __mul__(self, other) -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return self.scale(other)
        self._check_var(other)
        result: dict[sympy.Expr, sympy.Expr] = {}
        for b1, p1 in self._terms.items():
            for b2, p2 in other._terms.items():
                base = sympy.simplify(b1 * b2)
                result[base] = result.get(base, sympy.Integer(0)) + sympy.expand(p1 * p2)
        return ExpPoly(self.var, result)

    def __rmul__(self, other) -> "ExpPoly":
        return self.scale(other)

    def scale(self, factor) -> "ExpPoly":
        factor = _to_sympy_number(factor)
        return ExpPoly(self.var, {b: factor * p for b, p in self._terms.items()})

    def __pow__(self, exponent: int) -> "ExpPoly":
        if exponent < 0:
            raise ValueError("ExpPoly powers must be non-negative")
        result = ExpPoly.constant(1, self.var)
        for _ in range(exponent):
            result = result * self
        return result

    def shift(self, delta: int) -> "ExpPoly":
        """The closed form of ``k -> self(k + delta)``."""
        result: dict[sympy.Expr, sympy.Expr] = {}
        for base, poly in self._terms.items():
            shifted_poly = sympy.expand(poly.subs(self.var, self.var + delta))
            scaled = sympy.expand(shifted_poly * base**delta)
            result[base] = result.get(base, sympy.Integer(0)) + scaled
        return ExpPoly(self.var, result)

    # ------------------------------------------------------------------ #
    # Conversion / evaluation
    # ------------------------------------------------------------------ #
    def to_sympy(self) -> sympy.Expr:
        """The closed form as a single sympy expression in the sequence variable."""
        expr = sympy.Integer(0)
        for base, poly in self._terms.items():
            if base == 1:
                expr += poly
            else:
                expr += poly * base**self.var
        return sympy.expand(expr)

    def substitute(self, replacement: sympy.Expr) -> sympy.Expr:
        """The closed form with the sequence variable replaced by ``replacement``.

        Exponentials are rewritten structurally — ``r**(log(n,2) + c)`` becomes
        ``r**c * n**log2(r)`` — so that substituting a logarithmic depth bound
        yields the familiar ``n**log2(r)`` complexity expressions without
        relying on sympy's general simplifier.
        """
        replacement = sympy.sympify(replacement)
        expr = sympy.Integer(0)
        for base, poly in self._terms.items():
            new_poly = poly.subs(self.var, replacement)
            if base == 1:
                expr += new_poly
                continue
            expr += new_poly * _rewrite_power(base, replacement)
        return sympy.expand(expr)

    def evaluate(self, value: int) -> sympy.Expr:
        """Evaluate the closed form at an integer index."""
        total = sympy.Integer(0)
        for base, poly in self._terms.items():
            total += poly.subs(self.var, value) * base**value
        return sympy.simplify(total)

    # ------------------------------------------------------------------ #
    # Comparison / rendering
    # ------------------------------------------------------------------ #
    def equals(self, other: "ExpPoly") -> bool:
        """Semantic equality (difference simplifies to zero)."""
        diff = self - other
        return all(sympy.simplify(p) == 0 for p in diff._terms.values()) or diff.is_zero

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self.var == other.var and self.equals(other)

    def __hash__(self) -> int:  # pragma: no cover - not used as dict keys
        return hash((self.var, frozenset(self._terms)))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for base, poly in sorted(self._terms.items(), key=lambda kv: str(kv[0])):
            if base == 1:
                parts.append(str(poly))
            else:
                parts.append(f"({poly})*({base})**{self.var}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ExpPoly({self!s})"


def _rewrite_power(base: sympy.Expr, exponent: sympy.Expr) -> sympy.Expr:
    """Rewrite ``base**exponent`` pulling logarithms out of the exponent.

    ``base**(a*log(n, 2) + rest)`` is rewritten to ``n**(a*log2(base)) *
    base**rest``; this keeps divide-and-conquer bounds in the polynomial form
    the paper reports (e.g. ``7**log2(n)`` becomes ``n**log2(7)``).
    """
    exponent = sympy.expand(exponent)
    terms = exponent.as_ordered_terms() if exponent.is_Add else [exponent]
    result = sympy.Integer(1)
    residual = sympy.Integer(0)
    for term in terms:
        log_parts = [f for f in sympy.Mul.make_args(term) if isinstance(f, sympy.log)]
        if len(log_parts) == 1:
            log_factor = log_parts[0]
            coefficient = term / log_factor
            if not coefficient.free_symbols:
                argument = log_factor.args[0]
                # base**(c * log(argument)) == argument**(c * log(base))
                result *= argument ** (coefficient * sympy.log(base) / sympy.log(sympy.E))
                continue
        residual += term
    if residual != 0:
        result *= base**residual
    return result
