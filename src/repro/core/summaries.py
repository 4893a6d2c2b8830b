"""Procedure summaries and their instantiation as transition formulas.

Height-based recurrence analysis (§4.1–§4.2) produces, for each procedure:

* a set of *bounded terms*: relational expressions ``tau`` over the summary
  vocabulary together with exponential-polynomial bounding functions
  ``b(h)`` such that ``tau <= b(h)`` in any height-``h`` execution
  (Thm. A.1);
* a *depth bound* relating the height ``H`` to the pre-state (Alg. 4 /
  §4.2), both as a formula ``zeta(H, sigma)`` and, when the descent is
  recognisably arithmetic or geometric, as a closed-form expression;
* the resulting procedure summary ``exists H. zeta(H, sigma) /\\
  AND_k tau_k <= b_k(H)`` (Eqn. (4)).

Because bounding functions may be genuinely exponential, instantiating a
summary as a transition formula introduces fresh symbols for terms ``r**H``;
the :class:`ExponentialRegistry` records what those symbols denote so that
the assertion checker can later saturate them with sound axioms
(monotonicity, Bernoulli lower bounds, evaluation under constant exponents).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import sympy

from ..formulas import (
    Formula,
    Polynomial,
    Symbol,
    TransitionFormula,
    atom_ge,
    atom_le,
    conjoin,
    disjoin,
    exists,
    fresh,
)
from ..recurrence import ClosedForm, ExpPoly

__all__ = [
    "BoundedTerm",
    "DepthBound",
    "ExponentialTerm",
    "ExponentialRegistry",
    "ProcedureSummary",
    "exppoly_to_polynomial",
]


@dataclass(frozen=True)
class BoundedTerm:
    """``term <= bound(h)`` for every height-``h`` execution."""

    term: Polynomial
    bound: ClosedForm

    def __str__(self) -> str:
        return f"{self.term} <= {self.bound.expression} @ h"


@dataclass(frozen=True)
class DepthBound:
    """Constraints tying the recursion height ``H`` to the pre-state.

    ``constraints`` is the polyhedral part (``zeta``): polynomials over
    pre-state symbols and the depth symbol, valid for *every* execution.
    ``recursive_constraints`` hold only for executions that actually recurse
    (``H >= 2``): descent arguments count frames inside the recursive region,
    so they say nothing about a base case that executes immediately — a call
    with an argument outside the descent regime still terminates at height 1.
    Conjoining them unconditionally would make such calls spuriously
    infeasible, so :meth:`formula` guards them with ``H <= 1 \\/ (H >= 2 /\\
    ...)``.  ``symbolic_bound`` is an optional closed-form upper bound for
    ``H`` as a sympy expression over parameter names (it may involve
    logarithms, which cannot be expressed polyhedrally); ``symbolic_exact``
    marks the cases in which the bound is exact (every root-to-leaf path has
    the same length), which is what allows two-sided (equality) reasoning.
    """

    constraints: tuple[tuple[Polynomial, bool], ...] = ()
    symbolic_bound: Optional[sympy.Expr] = None
    symbolic_exact: bool = False
    recursive_constraints: tuple[tuple[Polynomial, bool], ...] = ()

    def formula(self, height: Symbol) -> Formula:
        """The polyhedral depth constraints with ``D`` replaced by ``height``.

        Each stored constraint is a polynomial over pre-state symbols and the
        distinguished depth symbol ``DEPTH_SYMBOL``; it is instantiated by
        renaming that symbol to the chosen height symbol.  Recursive-regime
        constraints are disjoined with the always-available single-level
        execution ``height <= 1``.
        """
        conjuncts = [self._instantiated(self.constraints, height)]
        recursive = getattr(self, "recursive_constraints", ())
        if recursive:
            h_poly = Polynomial.var(height)
            deeper = conjoin(
                [atom_le(2, h_poly), self._instantiated(recursive, height)]
            )
            conjuncts.append(disjoin([atom_le(h_poly, 1), deeper]))
        return conjoin(conjuncts)

    @staticmethod
    def _instantiated(
        constraints: Sequence[tuple[Polynomial, bool]], height: Symbol
    ) -> Formula:
        conjuncts = []
        for polynomial, is_equality in constraints:
            renamed = polynomial.rename({DEPTH_SYMBOL: height})
            if is_equality:
                from ..formulas import atom_eq

                conjuncts.append(atom_eq(renamed, 0))
            else:
                conjuncts.append(atom_le(renamed, 0))
        return conjoin(conjuncts)


#: The distinguished symbol used for the depth counter ``D`` of Alg. 4 inside
#: :class:`DepthBound` constraints (renamed to a fresh ``H`` on instantiation).
DEPTH_SYMBOL = Symbol("__depth", False, 0)


@dataclass(frozen=True)
class ExponentialTerm:
    """A fresh symbol standing for ``base ** exponent_symbol``."""

    symbol: Symbol
    base: Fraction
    exponent: Symbol


@dataclass
class ExponentialRegistry:
    """Registry of exponential terms introduced while instantiating summaries."""

    terms: list[ExponentialTerm] = field(default_factory=list)

    def register(self, base: Fraction, exponent: Symbol) -> Symbol:
        for term in self.terms:
            if term.base == base and term.exponent == exponent:
                return term.symbol
        symbol = fresh(f"exp{base.numerator}")
        self.terms.append(ExponentialTerm(symbol, base, exponent))
        return symbol

    def axioms(self) -> Formula:
        """Context-free axioms: Bernoulli lower bounds and positivity.

        For an integer base ``r >= 1`` and integer exponent ``H >= 0``:
        ``r**H >= 1 + (r - 1)*H`` and ``r**H >= 1``.
        """
        conjuncts: list[Formula] = []
        for term in self.terms:
            e = Polynomial.var(term.symbol)
            h = Polynomial.var(term.exponent)
            if term.base >= 1:
                conjuncts.append(atom_ge(e, 1))
                conjuncts.append(atom_ge(e, Polynomial.constant(1) + (term.base - 1) * h))
        return conjoin(conjuncts)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)


def exppoly_to_polynomial(
    closed_form: ExpPoly,
    height: Symbol,
    registry: ExponentialRegistry,
) -> Optional[Polynomial]:
    """Render an exponential polynomial over ``H`` as a :class:`Polynomial`.

    Polynomial-in-``H`` parts translate directly; each exponential ``r**H``
    becomes (a polynomial multiple of) a registered fresh symbol.  Returns
    ``None`` when a coefficient is not a rational polynomial in ``H`` (such
    bounds are simply dropped from the instantiated summary — a sound
    weakening).
    """
    total = Polynomial.zero()
    for base, coefficient in closed_form.terms.items():
        poly_part = _sympy_poly_to_polynomial(coefficient, closed_form.var, height)
        if poly_part is None:
            return None
        if base == 1:
            total = total + poly_part
            continue
        if not (base.is_Rational and base > 0):
            return None
        exp_symbol = registry.register(Fraction(int(base.p), int(base.q)), height)
        total = total + poly_part * Polynomial.var(exp_symbol)
    return total


def _sympy_poly_to_polynomial(
    expression: sympy.Expr, var: sympy.Symbol, height: Symbol
) -> Optional[Polynomial]:
    """Convert a sympy polynomial in ``var`` into a Polynomial over ``height``."""
    try:
        poly = sympy.Poly(sympy.expand(expression), var)
    except sympy.PolynomialError:
        return None
    result = Polynomial.zero()
    for (degree,), coefficient in poly.terms():
        if not coefficient.is_Rational:
            return None
        frac = Fraction(int(coefficient.p), int(coefficient.q))
        result = result + Polynomial.var(height) ** degree * frac
    return result


@dataclass
class ProcedureSummary:
    """Everything the analysis knows about one procedure.

    ``transition`` is a ready-to-use over-approximation for *non-recursive*
    procedures (their summary needs no height reasoning).  For recursive
    procedures the summary is assembled on demand by :meth:`instantiate` from
    the bounded terms and the depth bound, so that every call site gets fresh
    height/exponential symbols.
    """

    name: str
    variables: tuple[str, ...]
    transition: TransitionFormula
    bounded_terms: tuple[BoundedTerm, ...] = ()
    depth_bound: DepthBound = DepthBound()
    is_recursive: bool = False

    # ------------------------------------------------------------------ #
    # Instantiation
    # ------------------------------------------------------------------ #
    def instantiate(
        self, registry: Optional[ExponentialRegistry] = None
    ) -> TransitionFormula:
        """A transition formula for one use of this summary.

        For non-recursive procedures this is just ``transition``.  For
        recursive procedures the result is Eqn. (4):

            exists H.  zeta(H, sigma)  /\\  AND_k  tau_k <= b_k(H)

        with fresh symbols for ``H`` and for every exponential ``r**H``.
        When ``registry`` is supplied the exponential symbols are *not*
        existentially bound (the caller wants to reason about them — e.g. the
        assertion checker); otherwise everything auxiliary is bound.
        """
        if not self.is_recursive or not self.bounded_terms:
            return self.transition
        own_registry = registry if registry is not None else ExponentialRegistry()
        height = fresh("H")
        h_poly = Polynomial.var(height)
        conjuncts: list[Formula] = [atom_ge(h_poly, 1)]
        conjuncts.append(self.depth_bound.formula(height))
        for bounded in self.bounded_terms:
            rendered = exppoly_to_polynomial(
                bounded.bound.expression, height, own_registry
            )
            if rendered is None:
                continue
            conjuncts.append(atom_le(bounded.term, rendered))
        conjuncts.append(own_registry.axioms())
        # The base (non-recursive paths) behaviour is already covered by the
        # bounded terms (heights >= 1 include the base case), so the summary
        # is the height-indexed formula alone.
        formula = conjoin(conjuncts)
        if registry is None:
            bound_symbols = [height] + [t.symbol for t in own_registry]
            formula = exists(bound_symbols, formula)
        return TransitionFormula.relation(formula, self.variables)

    def __str__(self) -> str:
        lines = [f"summary of {self.name} over {', '.join(self.variables)}"]
        if self.is_recursive:
            for bounded in self.bounded_terms:
                lines.append(f"  {bounded}")
            if self.depth_bound.symbolic_bound is not None:
                relation = "==" if self.depth_bound.symbolic_exact else "<="
                lines.append(f"  H {relation} {self.depth_bound.symbolic_bound}")
        else:
            lines.append(f"  {self.transition}")
        return "\n".join(lines)
