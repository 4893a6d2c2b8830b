"""Linearization of non-linear atoms for the polyhedral domain.

The paper (§3, "Symbolic abstraction") computes polyhedral consequences of
*non-linear* formulas by treating each non-linear term as an additional
dimension of the space: a quadratic inequation ``x*x < y*y`` becomes the
linear inequation ``d_{x^2} < d_{y^2}`` over fresh dimension symbols, and
inference rules / congruence closure recover (some of) the consequences of
the non-linear theory ([25, Alg. 3]).

:class:`LinearizationContext` owns the monomial-to-dimension mapping (so the
same monomial maps to the same dimension everywhere — congruence closure is
by construction), and :func:`inference_constraints` implements the inference
rules used here:

* even-power monomials are non-negative;
* a product of factors that are each non-negative (entailed by the cube) is
  non-negative, and analogously for definite signs;
* when one factor of a binary product is bounded by *constants* the product
  is bounded by the corresponding multiples of the other factor;
* when one factor is *equal* to a constant, the product collapses to a linear
  equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ..formulas.formula import Atom, AtomKind
from ..formulas.polynomial import Monomial, Polynomial
from ..formulas.symbols import Symbol, fresh
from ..polyhedra import ConstraintKind, LinearConstraint, Polyhedron, maximize

__all__ = ["LinearizationContext", "inference_constraints"]


@dataclass
class LinearizationContext:
    """Shared monomial-to-dimension map used while abstracting one formula."""

    dimensions: dict[Monomial, Symbol] = field(default_factory=dict)

    def dimension_for(self, monomial: Monomial) -> Symbol:
        """The dimension symbol standing for a non-linear monomial."""
        existing = self.dimensions.get(monomial)
        if existing is not None:
            return existing
        symbol = fresh("dim_" + str(monomial).replace("*", "_").replace("^", ""))
        self.dimensions[monomial] = symbol
        return symbol

    # ------------------------------------------------------------------ #
    # Linearization
    # ------------------------------------------------------------------ #
    def linearize_polynomial(self, polynomial: Polynomial) -> Polynomial:
        """Replace every non-linear monomial by its dimension symbol."""
        result: dict[Monomial, Fraction] = {}
        for monomial, coeff in polynomial.items():
            if monomial.degree <= 1:
                result[monomial] = result.get(monomial, Fraction(0)) + coeff
            else:
                dim = Monomial.of(self.dimension_for(monomial))
                result[dim] = result.get(dim, Fraction(0)) + coeff
        return Polynomial(result)

    def linearize_atom(self, atom: Atom) -> LinearConstraint:
        """Convert an atom to a linear constraint over dimensions.

        Strict atoms are weakened to non-strict constraints (sound for the
        over-approximating clients of the abstraction).
        """
        poly = self.linearize_polynomial(atom.polynomial)
        if atom.kind is AtomKind.EQ:
            return LinearConstraint.eq(poly)
        return LinearConstraint.le(poly)

    def delinearize_polynomial(self, polynomial: Polynomial) -> Polynomial:
        """Replace dimension symbols back by their monomials."""
        substitution: dict[Symbol, Polynomial] = {}
        for monomial, dim in self.dimensions.items():
            substitution[dim] = Polynomial.monomial(monomial)
        return polynomial.substitute(substitution)

    def delinearize_constraint(self, constraint: LinearConstraint) -> tuple[Polynomial, ConstraintKind]:
        """Translate a constraint over dimensions back to a polynomial inequation."""
        return self.delinearize_polynomial(constraint.to_polynomial()), constraint.kind

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def dimensions_over(self, symbols: frozenset[Symbol]) -> list[Symbol]:
        """Dimension symbols whose monomial only mentions ``symbols``."""
        return [
            dim
            for monomial, dim in self.dimensions.items()
            if monomial.symbols <= symbols
        ]


# ---------------------------------------------------------------------- #
# Inference rules
# ---------------------------------------------------------------------- #
def _sign_of(
    polyhedron: Polyhedron, symbol: Symbol
) -> str:
    """Return 'nonneg', 'nonpos', 'both', given the cube's constraints."""
    nonneg = polyhedron.entails(LinearConstraint.make({symbol: Fraction(-1)}, 0))
    if nonneg:
        return "nonneg"
    nonpos = polyhedron.entails(LinearConstraint.make({symbol: Fraction(1)}, 0))
    if nonpos:
        return "nonpos"
    return "both"


def _constant_bounds(
    polyhedron: Polyhedron, symbol: Symbol
) -> tuple[Fraction | None, Fraction | None]:
    """Constant lower/upper bounds of a symbol in the cube, when they exist.

    The optimum is exact, so the returned constants are safe to use in
    derived constraints.
    """
    upper_result = maximize({symbol: Fraction(1)}, polyhedron.constraints)
    upper = upper_result.value if upper_result.is_optimal else None
    lower_result = maximize({symbol: Fraction(-1)}, polyhedron.constraints)
    lower = -lower_result.value if lower_result.is_optimal and lower_result.value is not None else None
    return lower, upper


def inference_constraints(
    polyhedron: Polyhedron, context: LinearizationContext
) -> list[LinearConstraint]:
    """Derive linear facts about dimension symbols from the cube's constraints."""
    derived: list[LinearConstraint] = []
    if polyhedron.is_empty():
        return derived
    for monomial, dim in context.dimensions.items():
        powers = dict(monomial.powers)
        # Rule 1: even-power monomials are non-negative.
        if all(p % 2 == 0 for p in powers.values()):
            derived.append(LinearConstraint.make({dim: Fraction(-1)}, 0))
            # Rule 1b: for a plain square s^2, constant bounds on s give both
            # constant and linear bounds on the square.
            if monomial.degree == 2 and len(powers) == 1:
                (symbol,) = powers
                lower, upper = _constant_bounds(polyhedron, symbol)
                if lower is not None and lower >= 0:
                    # s >= lower >= 0: s^2 >= lower^2 and s^2 >= lower*s.
                    derived.append(
                        LinearConstraint.make({dim: Fraction(-1)}, lower * lower)
                    )
                    derived.append(
                        LinearConstraint.make({dim: Fraction(-1), symbol: lower}, 0)
                    )
                    if upper is not None:
                        # 0 <= s <= upper: s^2 <= upper*s.
                        derived.append(
                            LinearConstraint.make({dim: Fraction(1), symbol: -upper}, 0)
                        )
                if upper is not None and upper <= 0:
                    # s <= upper <= 0: s^2 >= upper^2 and s^2 >= upper*s.
                    derived.append(
                        LinearConstraint.make({dim: Fraction(-1)}, upper * upper)
                    )
                    derived.append(
                        LinearConstraint.make({dim: Fraction(-1), symbol: upper}, 0)
                    )
                    if lower is not None:
                        # lower <= s <= 0: s^2 <= lower*s.
                        derived.append(
                            LinearConstraint.make({dim: Fraction(1), symbol: -lower}, 0)
                        )
            continue
        # Rule 2: definite signs of the factors give the sign of the product.
        signs = {s: _sign_of(polyhedron, s) for s in powers}
        if all(
            signs[s] != "both" or p % 2 == 0 for s, p in powers.items()
        ):
            negative_factors = sum(
                1 for s, p in powers.items() if signs[s] == "nonpos" and p % 2 == 1
            )
            if negative_factors % 2 == 0:
                derived.append(LinearConstraint.make({dim: Fraction(-1)}, 0))
            else:
                derived.append(LinearConstraint.make({dim: Fraction(1)}, 0))
        # Rule 3: binary products with a constant-bounded factor.
        if monomial.degree == 2 and len(powers) == 2:
            (a, _), (b, _) = monomial.powers
            for bounded, other in ((a, b), (b, a)):
                lower, upper = _constant_bounds(polyhedron, bounded)
                other_sign = signs[other]
                if lower is not None and lower == upper:
                    # bounded == constant: the product is linear.
                    derived.append(
                        LinearConstraint.make(
                            {dim: Fraction(1), other: -lower}, 0, ConstraintKind.EQ
                        )
                    )
                    continue
                if other_sign == "nonneg":
                    if upper is not None:
                        # dim <= upper * other
                        derived.append(
                            LinearConstraint.make({dim: Fraction(1), other: -upper}, 0)
                        )
                    if lower is not None:
                        # dim >= lower * other
                        derived.append(
                            LinearConstraint.make({dim: Fraction(-1), other: lower}, 0)
                        )
                elif other_sign == "nonpos":
                    if upper is not None:
                        derived.append(
                            LinearConstraint.make({dim: Fraction(-1), other: upper}, 0)
                        )
                    if lower is not None:
                        derived.append(
                            LinearConstraint.make({dim: Fraction(1), other: -lower}, 0)
                        )
    return derived
