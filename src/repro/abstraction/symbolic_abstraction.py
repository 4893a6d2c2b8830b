"""Symbolic abstraction: ``Abstract(phi, V)`` (Alg. 1 and its non-linear variant).

``Abstract(phi, V)`` computes a conjunction of polynomial inequations over
the symbols ``V`` that are implied by the formula ``phi``.  Following the
paper, the linear case is the convex hull of ``phi`` projected onto ``V``;
non-linear terms are handled by treating each non-linear monomial as an extra
dimension (congruence closure plus the inference rules of
:mod:`repro.abstraction.linearize`).

The cubes of ``phi``'s DNF are enumerated syntactically (the paper enumerates
them lazily with an SMT solver — see "Deviations from the paper's
implementation" in ``docs/architecture.md``), each satisfiable cube is
projected with Fourier–Motzkin, and the projections are joined with the
polyhedral join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..formulas.dnf import DEFAULT_CUBE_LIMIT, Cube, to_dnf
from ..formulas.formula import Atom, AtomKind, Formula, conjoin, negate
from ..formulas.polynomial import Polynomial
from ..formulas.symbols import Symbol
from ..polyhedra import ConstraintKind, Polyhedron, convex_hull
from ..polyhedra.cache import register_cache
from ..polyhedra.hull import weak_join
from .linearize import LinearizationContext, inference_constraints

__all__ = [
    "Inequation",
    "AbstractionResult",
    "abstract",
    "abstract_many",
    "abstract_cubes",
    "is_formula_satisfiable",
    "formula_entails",
    "AbstractionOptions",
]

#: ``abstract`` is pure in (formula, symbols, options) and the analyses ask
#: for the same abstractions repeatedly (every candidate ranking re-abstracts
#: the same base-case summaries, the height analysis re-abstracts the same
#: extension formula); the memo table turns those repeats into lookups.
_ABSTRACT_CACHE = register_cache("abstraction.abstract")

#: Entailment checks re-ask satisfiability of the same hypothesis/conclusion
#: conjunctions (descent analysis tries several descent shapes per candidate
#: ranking against the same transformations).
_SATISFIABLE_CACHE = register_cache("abstraction.satisfiable")


@dataclass(frozen=True)
class Inequation:
    """A polynomial inequation ``polynomial <= 0`` or equation ``polynomial == 0``."""

    polynomial: Polynomial
    is_equality: bool = False

    def __str__(self) -> str:
        op = "==" if self.is_equality else "<="
        return f"{self.polynomial} {op} 0"

    def to_atom(self) -> Atom:
        kind = AtomKind.EQ if self.is_equality else AtomKind.LE
        return Atom(self.polynomial, kind)

    def as_le_list(self) -> list[Polynomial]:
        """The inequation as one or two ``p <= 0`` polynomials."""
        if self.is_equality:
            return [self.polynomial, -self.polynomial]
        return [self.polynomial]


@dataclass(frozen=True)
class AbstractionOptions:
    """Tuning knobs for :func:`abstract` (exposed for ablation benchmarks)."""

    cube_limit: int = DEFAULT_CUBE_LIMIT
    exact_hull: bool = True
    use_inference_rules: bool = True
    minimize_result: bool = True


@dataclass
class AbstractionResult:
    """The output of :func:`abstract`.

    Attributes
    ----------
    inequations:
        Polynomial inequations over the requested symbols implied by the
        input formula.
    polyhedron:
        The joined polyhedron over original symbols plus dimension symbols.
    context:
        The linearization context (maps dimension symbols back to monomials).
    """

    inequations: list[Inequation]
    polyhedron: Polyhedron
    context: LinearizationContext

    def to_formula(self) -> Formula:
        return conjoin([ineq.to_atom() for ineq in self.inequations])

    def __iter__(self):
        return iter(self.inequations)

    def __len__(self) -> int:
        return len(self.inequations)


def abstract_cubes(
    formula: Formula,
    options: AbstractionOptions = AbstractionOptions(),
) -> tuple[list[tuple[Cube, Polyhedron]], LinearizationContext]:
    """Enumerate satisfiable DNF cubes of ``formula`` as polyhedra.

    Returns the list of (cube, polyhedron-over-dimensions) pairs together
    with the shared linearization context.  Unsatisfiable cubes are dropped.
    """
    context = LinearizationContext()
    cubes = to_dnf(formula, cube_limit=options.cube_limit)
    result: list[tuple[Cube, Polyhedron]] = []
    for cube in cubes:
        constraints = [context.linearize_atom(atom) for atom in cube.atoms]
        polyhedron = Polyhedron(constraints)
        if polyhedron.is_empty():
            continue
        if options.use_inference_rules and context.dimensions:
            derived = inference_constraints(polyhedron, context)
            if derived:
                polyhedron = polyhedron.add_constraints(derived)
                if polyhedron.is_empty():
                    continue
        result.append((cube, polyhedron))
    return result, context


def abstract(
    formula: Formula,
    symbols: Iterable[Symbol],
    options: AbstractionOptions = AbstractionOptions(),
) -> AbstractionResult:
    """``Abstract(formula, symbols)``: implied polynomial inequations.

    The result's inequations only mention the requested ``symbols``; non-linear
    monomials over those symbols may appear (they correspond to retained
    dimensions).
    """
    return abstract_many(formula, [symbols], options)[0]


def abstract_many(
    formula: Formula,
    symbol_sets: Sequence[Iterable[Symbol]],
    options: AbstractionOptions = AbstractionOptions(),
) -> list[AbstractionResult]:
    """``Abstract(formula, V)`` for several ``V`` over one cube enumeration.

    Enumerating and linearizing the DNF cubes (and discharging their
    satisfiability checks) is independent of the projection target, so
    callers that abstract one formula onto several symbol sets — the height
    analysis projects the same extension formula once per bounding symbol —
    share that work here instead of repeating it per set.
    """
    keeps = [frozenset(symbols) for symbols in symbol_sets]
    missing = any(
        not _ABSTRACT_CACHE.contains((formula, keep, options)) for keep in keeps
    )
    cube_polyhedra = context = None
    if missing:
        cube_polyhedra, context = abstract_cubes(formula, options)
    results = []
    for keep in keeps:
        results.append(
            _ABSTRACT_CACHE.lookup(
                (formula, keep, options),
                lambda: _abstract_projection(cube_polyhedra, context, keep, options),
            )
        )
    return [
        AbstractionResult(list(r.inequations), r.polyhedron, r.context)
        for r in results
    ]


def _abstract_projection(
    cube_polyhedra: Sequence[tuple[Cube, Polyhedron]],
    context: LinearizationContext,
    keep: frozenset[Symbol],
    options: AbstractionOptions,
) -> AbstractionResult:
    if not cube_polyhedra:
        # The formula is unsatisfiable: it implies everything; report the
        # canonical contradiction so callers can detect it.
        return AbstractionResult(
            [Inequation(Polynomial.constant(1))], Polyhedron.empty(), context
        )
    keep_dims = keep | frozenset(context.dimensions_over(keep))
    projected = [
        polyhedron.project_onto(keep_dims) for _, polyhedron in cube_polyhedra
    ]
    if options.exact_hull:
        joined = convex_hull(projected)
    else:
        joined = projected[0]
        for polyhedron in projected[1:]:
            joined = weak_join(joined, polyhedron)
    if options.minimize_result:
        joined = joined.minimize()
    inequations: list[Inequation] = []
    for constraint in joined.constraints:
        poly, kind = context.delinearize_constraint(constraint)
        inequations.append(Inequation(poly, kind is ConstraintKind.EQ))
    return AbstractionResult(inequations, joined, context)


# ---------------------------------------------------------------------- #
# Satisfiability / entailment (the "solver" used for assertion checking)
# ---------------------------------------------------------------------- #
def is_formula_satisfiable(
    formula: Formula,
    options: AbstractionOptions = AbstractionOptions(),
) -> bool:
    """Sound satisfiability check for (possibly non-linear) formulas.

    "Unsatisfiable" answers are exact over the rationals for the linearized
    abstraction; "satisfiable" answers may be spurious when non-linear
    reasoning beyond the inference rules would be needed (this is the safe
    direction for assertion checking: we only claim an assertion proved when
    its negation is *unsatisfiable*).
    """
    return _SATISFIABLE_CACHE.lookup(
        (formula, options),
        lambda: bool(abstract_cubes(formula, options)[0]),
    )


def formula_entails(
    hypothesis: Formula,
    conclusion: Formula,
    options: AbstractionOptions = AbstractionOptions(),
) -> bool:
    """Whether ``hypothesis`` entails ``conclusion`` (sound, incomplete).

    Implemented as unsatisfiability of ``hypothesis /\\ not conclusion``.  The
    conclusion must be quantifier-free (it is negated syntactically).
    """
    negated = negate(conclusion)
    return not is_formula_satisfiable(conjoin([hypothesis, negated]), options)
