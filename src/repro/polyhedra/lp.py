"""Linear-programming queries over sets of linear constraints.

The paper's implementation delegates satisfiability and entailment checks to
an SMT solver; this reproduction uses LP (``scipy.optimize.linprog`` with the
HiGHS backend) instead.  Three queries are provided:

* :func:`is_satisfiable` — is the constraint system non-empty (over Q)?
* :func:`maximize` — the supremum of a linear objective over the system;
* :func:`entails` — does the system imply a given constraint?

Constraints are normalized (scaled so the largest absolute coefficient is 1)
before being handed to the floating-point solver, and all comparisons use a
small absolute tolerance.  Entailment errs on the side of answering "no"
(which only ever loses precision, never soundness, for the over-approximating
clients in this code base).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import linprog

from ..formulas.symbols import Symbol
from . import cache
from .constraint import ConstraintKind, LinearConstraint

__all__ = ["LpResult", "LpStatus", "maximize", "is_satisfiable", "entails", "TOLERANCE"]

#: Absolute tolerance used when interpreting floating-point LP results.
TOLERANCE = 1e-7

#: Systems with at most this many constraints skip the floating-point solver
#: entirely: the fraction-free integer simplex decides them outright in well
#: under the scipy wrapper's per-call overhead, and its answers are exact, so
#: no confirmation pass is needed.  Larger systems keep the float-first
#: screen, where HiGHS's asymptotics win.
EXACT_FIRST_LIMIT = 12

#: Memo tables for the two soundness-critical (and frequently repeated)
#: queries.  Both are pure functions of the canonicalised constraint system,
#: so the tables survive across polyhedra, hull folds and minimization passes.
_SAT_CACHE = cache.register_cache("lp.is_satisfiable")
_ENTAILS_CACHE = cache.register_cache("lp.entails")


@dataclass(frozen=True)
class LpStatus:
    """Status constants for :class:`LpResult`."""

    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"
    ERROR = "error"


@dataclass(frozen=True)
class LpResult:
    """Result of an LP query."""

    status: str
    value: float | None = None
    point: dict[Symbol, float] | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == LpStatus.OPTIMAL

    @property
    def is_unbounded(self) -> bool:
        return self.status == LpStatus.UNBOUNDED

    @property
    def is_infeasible(self) -> bool:
        return self.status == LpStatus.INFEASIBLE


def _build_matrices(
    constraints: Sequence[LinearConstraint], symbols: Sequence[Symbol]
):
    """Build (A_ub, b_ub, A_eq, b_eq) float matrices for the constraints."""
    index = {s: i for i, s in enumerate(symbols)}
    a_ub: list[list[float]] = []
    b_ub: list[float] = []
    a_eq: list[list[float]] = []
    b_eq: list[float] = []
    for constraint in constraints:
        row = [0.0] * len(symbols)
        # int / int true division is correctly rounded: HiGHS gets the
        # nearest floats to the exact ratios.
        scale = max((abs(c) for _, c in constraint.coeffs), default=1)
        for s, c in constraint.coeffs:
            row[index[s]] = c / scale
        rhs = -constraint.constant / scale
        if constraint.kind is ConstraintKind.LE:
            a_ub.append(row)
            b_ub.append(rhs)
        else:
            a_eq.append(row)
            b_eq.append(rhs)
    return a_ub, b_ub, a_eq, b_eq


def maximize(
    objective: Mapping[Symbol, Fraction | int | float],
    constraints: Sequence[LinearConstraint],
) -> LpResult:
    """Maximize ``sum objective[s]*s`` subject to ``constraints``."""
    symbols = sorted(
        {s for c in constraints for s in c.symbols} | set(objective.keys()),
        key=str,
    )
    if not symbols:
        # No variables at all: the objective is identically zero.
        for constraint in constraints:
            if constraint.is_contradiction:
                return LpResult(LpStatus.INFEASIBLE)
        return LpResult(LpStatus.OPTIMAL, 0.0, {})
    a_ub, b_ub, a_eq, b_eq = _build_matrices(constraints, symbols)
    c = [0.0] * len(symbols)
    for i, s in enumerate(symbols):
        c[i] = -float(objective.get(s, 0))  # linprog minimizes
    try:
        result = linprog(
            c,
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=[(None, None)] * len(symbols),
            method="highs",
        )
    except (ValueError, OverflowError):
        return LpResult(LpStatus.ERROR)
    if result.status == 0:
        point = {s: float(result.x[i]) for i, s in enumerate(symbols)}
        return LpResult(LpStatus.OPTIMAL, -float(result.fun), point)
    if result.status == 2:
        return LpResult(LpStatus.INFEASIBLE)
    if result.status == 3:
        return LpResult(LpStatus.UNBOUNDED)
    return LpResult(LpStatus.ERROR)


def is_satisfiable(constraints: Sequence[LinearConstraint]) -> bool:
    """Whether the constraints admit a rational solution.

    A trivial syntactic contradiction check runs first; otherwise a zero
    objective LP decides feasibility.  An "infeasible" verdict from the
    floating-point solver is confirmed with the exact rational simplex
    (claiming emptiness of a non-empty set would be unsound for clients that
    prune DNF cubes); LP solver errors are treated as "satisfiable".
    """
    for constraint in constraints:
        if constraint.is_contradiction:
            return False
    nontrivial = [c for c in constraints if c.coeffs]
    if not nontrivial:
        return True
    if interval_contradiction(nontrivial):
        return False
    key = cache.canonical_key(nontrivial)
    return _SAT_CACHE.lookup(key, lambda: _is_satisfiable_uncached(nontrivial))


def _is_satisfiable_uncached(nontrivial: Sequence[LinearConstraint]) -> bool:
    from .simplex import exact_is_satisfiable  # local import avoids a cycle

    if len(nontrivial) <= EXACT_FIRST_LIMIT:
        return exact_is_satisfiable(nontrivial)
    result = maximize({}, nontrivial)
    if result.status == LpStatus.INFEASIBLE:
        return exact_is_satisfiable(nontrivial)
    return True


def interval_contradiction(constraints: Sequence[LinearConstraint]) -> bool:
    """Cheap syntactic emptiness test from single-symbol constraints.

    Collects the tightest lower/upper bound each single-symbol constraint
    puts on its symbol (equalities contribute both); a crossed pair of
    bounds proves the system empty with no LP call.  ``False`` means
    "unknown", never "non-empty".
    """
    # Bounds are kept as (numerator, positive denominator) pairs and
    # compared by cross-multiplication.
    lower: dict[Symbol, tuple[int, int]] = {}
    upper: dict[Symbol, tuple[int, int]] = {}
    for constraint in constraints:
        if len(constraint.coeffs) != 1:
            continue
        symbol, coeff = constraint.coeffs[0]
        # coeff * symbol + constant (<=|==) 0 bounds symbol by -constant/coeff.
        if coeff > 0:
            bound = (-constraint.constant, coeff)
        else:
            bound = (constraint.constant, -coeff)
        if constraint.kind is ConstraintKind.EQ:
            is_upper = is_lower = True
        else:
            is_upper = coeff > 0
            is_lower = not is_upper
        if is_upper and (symbol not in upper or _less(bound, upper[symbol])):
            upper[symbol] = bound
        if is_lower and (symbol not in lower or _less(lower[symbol], bound)):
            lower[symbol] = bound
    for symbol, low in lower.items():
        high = upper.get(symbol)
        if high is not None and _less(high, low):
            return True
    return False


def _less(first: tuple[int, int], second: tuple[int, int]) -> bool:
    """``first < second`` for (numerator, positive denominator) pairs."""
    return first[0] * second[1] < second[0] * first[1]


def entails(
    constraints: Sequence[LinearConstraint], candidate: LinearConstraint
) -> bool:
    """Whether ``constraints`` implies ``candidate`` over the rationals.

    For an LE candidate ``t + d <= 0`` this checks ``sup t <= -d``; for an EQ
    candidate both directions are checked.  An infeasible constraint system
    entails everything.
    """
    if candidate.is_trivial:
        return True
    key = cache.entailment_key(constraints, candidate)
    return _ENTAILS_CACHE.lookup(
        key, lambda: _entails_uncached(constraints, candidate)
    )


def _entails_uncached(
    constraints: Sequence[LinearConstraint], candidate: LinearConstraint
) -> bool:
    if not is_satisfiable(list(constraints)):
        return True
    if candidate.kind is ConstraintKind.EQ:
        le = LinearConstraint.make(candidate.coeff_map, candidate.constant)
        ge = LinearConstraint.make(
            {s: -c for s, c in candidate.coeffs}, -candidate.constant
        )
        return entails(constraints, le) and entails(constraints, ge)
    from .simplex import exact_entails  # local import avoids a cycle

    if len(constraints) <= EXACT_FIRST_LIMIT:
        return exact_entails(list(constraints), candidate)
    objective = candidate.coeff_map
    scale = max((abs(c) for c in objective.values()), default=1)
    scaled_objective = {s: c / scale for s, c in objective.items()}
    bound = -candidate.constant / scale
    result = maximize(scaled_objective, constraints)
    if result.is_optimal and result.value is not None:
        tolerance = TOLERANCE * max(1.0, abs(bound))
        if result.value > bound + tolerance:
            # Clearly not entailed according to the float LP.  Answering "no"
            # is always sound for our clients, so accept the fast verdict.
            return False
    # The float LP suggests the candidate is entailed (or is inconclusive);
    # "yes" is the soundness-critical direction, so confirm exactly.
    return exact_entails(list(constraints), candidate)
