"""Assertion checking on top of procedure summaries.

For every ``assert`` in the program we compute a transition formula from the
enclosing procedure's entry to the assertion site, interpreting calls with
the summaries computed by :func:`repro.core.analyze_program`, and check that
the conjunction with the negated assertion condition is unsatisfiable.

Because the summaries of recursive procedures bound quantities by
exponential polynomials in the recursion height, the satisfiability check has
to reason (soundly, incompletely) about exponential terms.  Every
instantiated summary registers its ``r**H`` symbols in an
:class:`~repro.core.summaries.ExponentialRegistry`; before the final
unsatisfiability check each DNF cube is *saturated* with consequences of the
exponential interpretation:

* Bernoulli lower bounds ``r**H >= 1 + (r-1)H`` (already part of the summary);
* congruence and monotonicity: equal (resp. ordered) exponents with the same
  base give equal (resp. ordered) exponentials;
* evaluation: a constant bound on the exponent gives a constant bound on the
  exponential.

The check errs on the side of "not proved": an assertion is reported proved
only when the negation is unsatisfiable in the saturated abstraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..abstraction import AbstractionOptions, abstract_cubes
from ..analysis import inline_call, path_summary
from ..formulas import Formula, TransitionFormula, conjoin, post, pre
from ..lang import ast
from ..lang.cfg import AssertionSite, CallEdge
from ..lang.semantics import translate_condition
from ..polyhedra import ConstraintKind, LinearConstraint, Polyhedron, maximize
from .chora import AnalysisResult
from .summaries import ExponentialRegistry

__all__ = ["AssertionOutcome", "check_assertion", "check_assertions"]


@dataclass(frozen=True)
class AssertionOutcome:
    """The verdict for a single assertion site."""

    site: AssertionSite
    proved: bool

    def __str__(self) -> str:
        status = "PROVED" if self.proved else "UNKNOWN"
        return f"{status}: assert({self.site.text}) in {self.site.procedure}"


def check_assertions(
    result: AnalysisResult,
    options: AbstractionOptions = AbstractionOptions(),
) -> list[AssertionOutcome]:
    """Check every assertion of the analysed program."""
    outcomes: list[AssertionOutcome] = []
    for name, context in result.contexts.items():
        for site in context.cfg.assertions:
            outcomes.append(check_assertion(result, site, options))
    return outcomes


def check_assertion(
    result: AnalysisResult,
    site: AssertionSite,
    options: AbstractionOptions = AbstractionOptions(),
) -> AssertionOutcome:
    """Check one assertion site."""
    context = result.contexts[site.procedure]
    registry = ExponentialRegistry()
    procedures = result.procedures()

    def interpret(edge: CallEdge) -> TransitionFormula:
        summary = result.summaries.get(edge.callee)
        if summary is None:
            havoced = list(context.global_names)
            if edge.result is not None:
                havoced.append(edge.result)
            return TransitionFormula.havoc(havoced)
        instantiated = summary.instantiate(registry)
        return inline_call(edge, procedures[edge.callee], instantiated)

    to_site = path_summary(
        context.cfg, interpret, source=context.cfg.entry, target=site.vertex,
        options=options,
    )
    if to_site.is_bottom:
        return AssertionOutcome(site, True)
    # The assertion condition reads the state *at* the site, i.e. the
    # post-state of the path summary.  Negate *syntactically*, before
    # translation: translating first can introduce existentially quantified
    # defining constraints (nondet ranges, min/max, division quotients) that
    # :func:`negate` cannot invert exactly — and for may-fail semantics the
    # auxiliary values must stay existential in the negated condition anyway
    # ("some draw violates the assertion"), which is precisely what pushing
    # ``!`` through the syntax and then translating produces.
    negated_condition = translate_condition(ast.NotCond(site.condition))
    renaming = {
        pre(name): post(name)
        for name in to_site.referenced_variables() | frozenset(context.variables)
    }
    from ..formulas import rename as rename_formula

    negated = rename_formula(negated_condition, renaming)
    query = conjoin([to_site.to_formula(context.variables), negated])
    proved = not _satisfiable_with_exponentials(query, registry, options)
    return AssertionOutcome(site, proved)


# ---------------------------------------------------------------------- #
# Exponential-aware satisfiability
# ---------------------------------------------------------------------- #
def _satisfiable_with_exponentials(
    formula: Formula,
    registry: ExponentialRegistry,
    options: AbstractionOptions,
) -> bool:
    """Sound satisfiability check saturating exponential-term consequences."""
    cubes, context = abstract_cubes(formula, options)
    if not cubes:
        return False
    if not len(registry):
        return True
    for _, polyhedron in cubes:
        saturated = polyhedron
        for _ in range(3):
            extra = _exponential_consequences(saturated, registry)
            if not extra:
                break
            saturated = saturated.add_constraints(extra)
            if saturated.is_empty():
                break
        if not saturated.is_empty():
            return True
    return False


def _exponential_consequences(
    polyhedron: Polyhedron, registry: ExponentialRegistry
) -> list[LinearConstraint]:
    """Derive linear facts about registered exponential symbols in a cube."""
    derived: list[LinearConstraint] = []
    constraints = list(polyhedron.constraints)

    def bounds_of(symbol) -> tuple[Optional[Fraction], Optional[Fraction]]:
        upper = maximize({symbol: Fraction(1)}, constraints)
        lower = maximize({symbol: Fraction(-1)}, constraints)
        return (
            -lower.value if lower.is_optimal and lower.value is not None else None,
            upper.value if upper.is_optimal and upper.value is not None else None,
        )

    terms = list(registry)
    exponent_bounds = {term.symbol: bounds_of(term.exponent) for term in terms}
    for term in terms:
        if term.base <= 1:
            continue
        low, high = exponent_bounds[term.symbol]
        # Evaluation under constant exponent bounds: r**H <= r**ceil(high), >= r**floor(low).
        if high is not None and high <= 64:
            import math

            exponent = math.ceil(high)
            value = Fraction(term.base) ** max(exponent, 0)
            derived.append(
                LinearConstraint.make({term.symbol: Fraction(1)}, -value)
            )
        if low is not None and abs(low) <= 64:
            import math

            exponent = math.floor(low)
            if exponent >= 0:
                value = Fraction(term.base) ** exponent
                derived.append(
                    LinearConstraint.make({term.symbol: Fraction(-1)}, value)
                )
    # Congruence / monotonicity between exponentials with the same base.
    for i, first in enumerate(terms):
        for second in terms[i + 1 :]:
            if first.base != second.base or first.base <= 1:
                continue
            difference = {first.exponent: Fraction(1), second.exponent: Fraction(-1)}
            upper = maximize(difference, constraints)
            lower = maximize(
                {s: -c for s, c in difference.items()}, constraints
            )
            if (
                upper.is_optimal
                and lower.is_optimal
                and upper.value == 0
                and lower.value == 0
            ):
                derived.append(
                    LinearConstraint.make(
                        {first.symbol: Fraction(1), second.symbol: Fraction(-1)},
                        0,
                        ConstraintKind.EQ,
                    )
                )
            elif upper.is_optimal and upper.value is not None and upper.value <= 0:
                # exponent1 <= exponent2  =>  r**e1 <= r**e2.
                derived.append(
                    LinearConstraint.make(
                        {first.symbol: Fraction(1), second.symbol: Fraction(-1)}, 0
                    )
                )
            elif lower.is_optimal and lower.value is not None and lower.value <= 0:
                derived.append(
                    LinearConstraint.make(
                        {second.symbol: Fraction(1), first.symbol: Fraction(-1)}, 0
                    )
                )
    return derived
