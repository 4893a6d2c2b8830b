"""Stratified systems of polynomial recurrences (Defn. 3.2) and their solution.

A stratified system organizes recurrence unknowns into strata so that each
right-hand side is *linear* in the unknowns of its own stratum and polynomial
in unknowns of strictly lower strata.  Alg. 3 of the paper extracts such a
system from the candidate inequations of Alg. 2; this module solves it:

1.  build the dependency graph of the equations and compute its strongly
    connected components (the strata, recovered structurally);
2.  process the components in topological order; within a component the
    dependencies are linear, so after substituting the already-computed
    closed forms of lower components the component becomes a constant-
    coefficient linear system with exponential-polynomial inhomogeneity;
3.  solve scalar components with :func:`repro.recurrence.cfinite.solve_first_order`
    and genuinely coupled components with
    :func:`repro.recurrence.cfinite.solve_linear_system`.

Initial conditions follow the paper: every bounding function is zero at
height 1 (base cases are height 1, and candidate terms are bounded by zero in
the base case).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import sympy

from ..formulas.polynomial import Monomial, Polynomial
from ..formulas.symbols import Symbol
from ..graphs import strongly_connected_components
from .cfinite import (
    ClosedForm,
    RecurrenceSolvingError,
    solve_first_order,
    solve_linear_system,
)
from .exppoly import ExpPoly

__all__ = [
    "RecurrenceEquation",
    "StratifiedSystem",
    "evaluate_polynomial_over_closed_forms",
]


@dataclass(frozen=True)
class RecurrenceEquation:
    """One equation ``target(h+1) = rhs`` where ``rhs`` is a polynomial over
    the height-``h`` values of the system's unknowns (identified by their
    symbols) plus a constant term."""

    target: Symbol
    rhs: Polynomial

    def uses(self) -> frozenset[Symbol]:
        """The unknowns appearing on the right-hand side."""
        return self.rhs.symbols

    def uses_nonlinearly(self) -> frozenset[Symbol]:
        """The unknowns appearing in monomials of degree two or more."""
        out: set[Symbol] = set()
        for monomial in self.rhs.nonlinear_monomials():
            out |= monomial.symbols
        return frozenset(out)

    def __str__(self) -> str:
        return f"{self.target}(h+1) = {self.rhs}"


def evaluate_polynomial_over_closed_forms(
    polynomial: Polynomial,
    closed_forms: Mapping[Symbol, ExpPoly],
    var: sympy.Symbol,
) -> ExpPoly:
    """Evaluate a polynomial whose symbols stand for known closed forms.

    Used to turn the lower-strata part of a right-hand side into an
    exponential-polynomial inhomogeneity (e.g. ``(b_n(h))**2`` becomes
    ``(2**h - 1)**2 = 4**h - 2*2**h + 1``).
    """
    result = ExpPoly.zero(var)
    for monomial, coefficient in polynomial.items():
        term = ExpPoly.constant(
            sympy.Rational(coefficient.numerator, coefficient.denominator), var
        )
        for symbol, power in monomial.powers:
            base = closed_forms.get(symbol)
            if base is None:
                raise RecurrenceSolvingError(
                    f"no closed form available for {symbol} while evaluating {polynomial}"
                )
            term = term * (base**power)
        result = result + term
    return result


@dataclass
class StratifiedSystem:
    """A system of recurrence equations over height-indexed bounding functions."""

    equations: list[RecurrenceEquation] = field(default_factory=list)
    #: Value of every unknown at the initial height (the paper uses 0 at h=1).
    initial_value: int = 0
    #: The initial height (base cases are height 1).
    initial_index: int = 1

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def targets(self) -> list[Symbol]:
        return [equation.target for equation in self.equations]

    def equation_for(self, target: Symbol) -> RecurrenceEquation | None:
        for equation in self.equations:
            if equation.target == target:
                return equation
        return None

    def validate(self) -> None:
        """Check the well-formedness conditions of Defn. 3.2 / Alg. 3.

        * each unknown is defined at most once;
        * every unknown used on a right-hand side is defined;
        * unknowns used non-linearly lie in a strictly lower component
          (no non-linear self-dependency through a cycle).
        """
        defined = [e.target for e in self.equations]
        if len(defined) != len(set(defined)):
            raise RecurrenceSolvingError("an unknown is defined by two equations")
        defined_set = set(defined)
        for equation in self.equations:
            missing = equation.uses() - defined_set
            if missing:
                raise RecurrenceSolvingError(
                    f"equation {equation} uses undefined unknowns {missing}"
                )
        components = self._components()
        component_of = {}
        for rank, component in enumerate(components):
            for symbol in component:
                component_of[symbol] = rank
        for equation in self.equations:
            for symbol in equation.uses_nonlinearly():
                if component_of[symbol] >= component_of[equation.target]:
                    raise RecurrenceSolvingError(
                        f"{equation} uses {symbol} non-linearly but {symbol} is not "
                        "in a strictly lower stratum"
                    )

    def _components(self) -> list[list[Symbol]]:
        """Strongly connected components of the dependency graph, in
        topological (dependencies-first) order."""
        graph = {e.target: sorted(e.uses(), key=str) for e in self.equations}
        return strongly_connected_components(graph)

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve(self, var: sympy.Symbol | None = None) -> dict[Symbol, ClosedForm]:
        """Solve the system, returning a closed form for every unknown."""
        self.validate()
        variable = var if var is not None else ExpPoly.zero().var
        solved: dict[Symbol, ClosedForm] = {}
        solved_exprs: dict[Symbol, ExpPoly] = {}
        for component in self._components():
            equations = [self.equation_for(symbol) for symbol in component]
            if any(equation is None for equation in equations):
                raise RecurrenceSolvingError(
                    f"component {component} has no defining equations"
                )
            self._solve_component(component, equations, solved, solved_exprs, variable)
        return solved

    def _solve_component(
        self,
        component: Sequence[Symbol],
        equations: Sequence[RecurrenceEquation],
        solved: dict[Symbol, ClosedForm],
        solved_exprs: dict[Symbol, ExpPoly],
        var: sympy.Symbol,
    ) -> None:
        member_set = set(component)
        # Split each right-hand side into the linear part over the component
        # and the inhomogeneity over lower components / constants.
        matrix: list[list[Fraction]] = []
        inhomogeneities: list[ExpPoly] = []
        for equation in equations:
            row = [Fraction(0)] * len(component)
            lower_terms: dict[Monomial, Fraction] = {}
            for monomial, coefficient in equation.rhs.items():
                if monomial.degree == 1:
                    ((symbol, _),) = monomial.powers
                    if symbol in member_set:
                        row[component.index(symbol)] += coefficient
                        continue
                if monomial.symbols & member_set:
                    raise RecurrenceSolvingError(
                        f"{equation} depends non-linearly on its own stratum"
                    )
                lower_terms[monomial] = coefficient
            matrix.append(row)
            inhomogeneities.append(
                evaluate_polynomial_over_closed_forms(
                    Polynomial(lower_terms), solved_exprs, var
                )
            )
        if len(component) == 1:
            coefficient = matrix[0][0]
            closed = solve_first_order(
                sympy.Rational(coefficient.numerator, coefficient.denominator),
                inhomogeneities[0],
                self.initial_value,
                self.initial_index,
            )
            solved[component[0]] = closed
            solved_exprs[component[0]] = closed.expression
            return
        closed_forms = solve_linear_system(
            matrix,
            inhomogeneities,
            [self.initial_value] * len(component),
            self.initial_index,
        )
        for symbol, closed in zip(component, closed_forms):
            solved[symbol] = closed
            solved_exprs[symbol] = closed.expression

    # ------------------------------------------------------------------ #
    # Numeric iteration (testing / cross-validation)
    # ------------------------------------------------------------------ #
    def iterate(self, heights: int) -> dict[Symbol, list[Fraction]]:
        """Iterate the recurrences numerically from the initial condition.

        Returns, for each unknown, the list of values at heights
        ``initial_index, initial_index + 1, ..., initial_index + heights``.
        Used by tests to cross-check symbolic closed forms.
        """
        values: dict[Symbol, Fraction] = {
            e.target: Fraction(self.initial_value) for e in self.equations
        }
        history: dict[Symbol, list[Fraction]] = {t: [values[t]] for t in values}
        for _ in range(heights):
            next_values: dict[Symbol, Fraction] = {}
            for equation in self.equations:
                next_values[equation.target] = equation.rhs.evaluate(values)
            values = next_values
            for target, value in values.items():
                history[target].append(value)
        return history

    def __str__(self) -> str:
        return "\n".join(str(e) for e in self.equations)
