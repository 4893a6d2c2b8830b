"""Exact rational linear programming (fraction-free two-phase simplex).

This is the LP layer's only solver: every satisfiability, entailment and
optimum query of :mod:`repro.polyhedra.lp` is answered here, exactly.  An
entailment answered "yes" when it does not hold would let an unsound
invariant into a procedure summary, so no answer may depend on a rounding
tolerance.

The solver maximizes a linear objective subject to ``A x + b <= 0`` /
``A x + b == 0`` constraints with *free* variables.  Free variables are split
into differences of non-negative variables, inequalities receive slack
variables, and a standard two-phase simplex with Bland's anti-cycling rule is
run on the resulting standard-form problem.

Arithmetic is **fraction-free**: constraints are gcd-primitive integer rows
(see :mod:`repro.polyhedra.constraint`), so the equality presolve is integer
cross-multiplication and the rows enter the tableau as they are; only the
rational objective is scaled by its common denominator.  The tableau stores
one integer row plus a single positive integer denominator per row (the
rational entry is ``rows[i][j] / den[i]``).  A pivot is then pure integer
multiply-and-subtract in the style of Bareiss — the systematic factor is
divided out once per row via a single gcd pass — instead of a
`fractions.Fraction` normalisation (two gcds and an object allocation) per
tableau cell.  Optimal values, feasibility
and boundedness are properties of the LP itself, not of the tableau
representation, so the results are bit-identical to the previous
``Fraction``-based tableau; the Hypothesis differential suite in
``tests/unit/test_simplex_integer.py`` pins the two implementations against
each other on random LPs, including coefficients near ``±2**63``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from ..formulas.symbols import Symbol
from .constraint import ConstraintKind, LinearConstraint, combine

__all__ = [
    "ExactLpResult",
    "exact_maximize",
    "exact_is_satisfiable",
    "exact_entails",
]


@dataclass(frozen=True)
class ExactLpResult:
    """Result of an exact LP: status is 'optimal', 'unbounded' or 'infeasible'."""

    status: str
    value: Fraction | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    @property
    def is_unbounded(self) -> bool:
        return self.status == "unbounded"

    @property
    def is_infeasible(self) -> bool:
        return self.status == "infeasible"


class _Tableau:
    """Fraction-free integer simplex tableau with per-row denominators.

    Row ``i`` holds integers ``rows[i]`` and ``rhs[i]`` plus a positive
    integer ``den[i]``; the rational tableau entry is ``rows[i][j] / den[i]``
    and the basic value is ``rhs[i] / den[i]``.  Rows are constraints
    ``sum a_ij x_j = b_i`` with ``b_i >= 0``; ``basis[i]`` is the column
    basic in row ``i``.  All comparisons the simplex needs (signs, ratio
    tests) are answered with integer cross-multiplication, so no rational
    normalisation ever happens inside the pivot loop.
    """

    __slots__ = ("rows", "rhs", "den", "basis", "ncols")

    def __init__(self, rows: list[list[int]], rhs: list[int], basis: list[int]):
        self.rows = rows
        self.rhs = rhs
        self.den = [1] * len(rows)
        self.basis = basis
        self.ncols = len(rows[0]) if rows else 0

    def _reduce_row(self, r: int) -> None:
        """Divide row ``r`` by the gcd of its entries and denominator.

        This is the fraction-free analogue of `Fraction` normalisation, paid
        once per row per pivot instead of once per cell per operation; it
        keeps the integers near their minimal size so later multiplications
        stay cheap.
        """
        g = math.gcd(self.den[r], self.rhs[r])
        if g == 1:
            return
        for a in self.rows[r]:
            if a:
                g = math.gcd(g, a)
                if g == 1:
                    return
        self.rows[r] = [a // g for a in self.rows[r]]
        self.rhs[r] //= g
        self.den[r] //= g

    def pivot(self, row: int, col: int) -> None:
        """Make ``col`` basic in ``row``.

        The tableau is mostly zeros (slack and artificial columns), so rows
        with a zero entry in the pivot column are skipped entirely — their
        rational values are unchanged and, with per-row denominators, so is
        their integer representation.
        """
        pivot_row = self.rows[row]
        p = pivot_row[col]
        if p < 0:
            # Only reachable from the drive-artificials-out path, where the
            # row's basic value is exactly zero, so flipping the equality
            # row's sign keeps the right-hand side non-negative.
            pivot_row = self.rows[row] = [-a for a in pivot_row]
            self.rhs[row] = -self.rhs[row]
            p = -p
        pivot_rhs = self.rhs[row]
        for r in range(len(self.rows)):
            if r == row:
                continue
            factor = self.rows[r][col]
            if factor == 0:
                continue
            # true' = true_r - (factor/den_r) * (pivot_row/p)
            #       = (rows_r * p - factor * pivot_row) / (den_r * p)
            self.rows[r] = [
                a * p - factor * b if b else a * p
                for a, b in zip(self.rows[r], pivot_row)
            ]
            self.rhs[r] = self.rhs[r] * p - factor * pivot_rhs
            self.den[r] *= p
            self._reduce_row(r)
        # The pivot row is divided by the pivot value, which with per-row
        # denominators is just a denominator change: rows/den / (p/den) = rows/p.
        self.den[row] = p
        self._reduce_row(row)
        self.basis[row] = col

    def first_nonzero(self, row: int, limit: int) -> int | None:
        """Smallest column index < ``limit`` with a nonzero entry in ``row``."""
        return next((j for j in range(limit) if self.rows[row][j] != 0), None)

    def optimize(
        self, obj_num: list[int], obj_den: int, allowed_cols: Sequence[int]
    ) -> tuple[str, Fraction]:
        """Maximize the objective ``obj_num / obj_den`` over the current basis.

        ``allowed_cols`` restricts (in ascending order, for Bland's rule)
        which columns may enter the basis — used to keep artificial variables
        out in phase 2.  Returns (status, value) where value is the optimal
        objective value when status == 'optimal'.
        """
        # Reduced costs: maintain the objective row as one integer vector
        # over its own positive denominator, priced out against the basic
        # rows exactly like the classic "objective row" trick.
        onum = list(obj_num)
        oden = obj_den
        val_num = 0  # -(objective of the basic solution), over oden
        for i, basic_col in enumerate(self.basis):
            coeff = onum[basic_col]
            if coeff == 0:
                continue
            d = self.den[i]
            onum = [a * d - coeff * b if b else a * d for a, b in zip(onum, self.rows[i])]
            val_num = val_num * d - coeff * self.rhs[i]
            oden *= d
            onum, val_num, oden = _reduce_objective(onum, val_num, oden)
        while True:
            entering = None
            for col in allowed_cols:
                if onum[col] > 0:  # Bland: smallest index, sign via numerator
                    entering = col
                    break
            if entering is None:
                return "optimal", Fraction(-val_num, oden)
            leaving = None
            best_num = best_den = 0  # ratio rhs/a with a > 0; den cancels
            for row in range(len(self.rows)):
                a = self.rows[row][entering]
                if a > 0:
                    num = self.rhs[row]
                    cross = num * best_den - best_num * a
                    if (
                        leaving is None
                        or cross < 0
                        or (cross == 0 and self.basis[row] < self.basis[leaving])
                    ):
                        best_num, best_den = num, a
                        leaving = row
            if leaving is None:
                return "unbounded", Fraction(0)
            coeff = onum[entering]
            self.pivot(leaving, entering)
            d = self.den[leaving]
            onum = [
                a * d - coeff * b if b else a * d
                for a, b in zip(onum, self.rows[leaving])
            ]
            val_num = val_num * d - coeff * self.rhs[leaving]
            oden *= d
            onum, val_num, oden = _reduce_objective(onum, val_num, oden)


def _reduce_objective(
    onum: list[int], val_num: int, oden: int
) -> tuple[list[int], int, int]:
    """Divide the objective row by the gcd of its entries and denominator."""
    g = math.gcd(oden, val_num)
    if g > 1:
        for a in onum:
            if a:
                g = math.gcd(g, a)
                if g == 1:
                    break
    if g > 1:
        onum = [a // g for a in onum]
        val_num //= g
        oden //= g
    return onum, val_num, oden


def _standard_form(
    objective: Mapping[Symbol, Fraction],
    constraints: Sequence[LinearConstraint],
) -> tuple[list[list[int]], list[int], list[int], int, int]:
    """Convert to integer standard form ``A x = b, x >= 0`` with split free vars.

    Constraint rows are already integers and enter the tableau as they are;
    the rational objective is scaled by the least common multiple of its
    denominators.

    Returns (rows, rhs, objective_numerators, objective_denominator,
    n_structural_columns).
    """
    symbols = sorted(
        {s for c in constraints for s in c.symbols} | set(objective.keys()), key=str
    )
    index = {s: i for i, s in enumerate(symbols)}
    n_free = len(symbols)
    n_slack = sum(1 for c in constraints if c.kind is ConstraintKind.LE)
    ncols = 2 * n_free + n_slack
    rows: list[list[int]] = []
    rhs: list[int] = []
    slack_cursor = 0
    for constraint in constraints:
        row = [0] * ncols
        for s, c in constraint.coeffs:
            j = index[s]
            row[2 * j] = c
            row[2 * j + 1] = -c
        if constraint.kind is ConstraintKind.LE:
            row[2 * n_free + slack_cursor] = 1
            slack_cursor += 1
        rows.append(row)
        rhs.append(-constraint.constant)
    obj_scale = math.lcm(1, *(c.denominator for c in objective.values()))
    obj = [0] * ncols
    for s, c in objective.items():
        v = int(c * obj_scale)
        j = index[s]
        obj[2 * j] = v
        obj[2 * j + 1] = -v
    return rows, rhs, obj, obj_scale, ncols


def _presolve(
    objective: Mapping[Symbol, Fraction],
    constraints: Sequence[LinearConstraint],
) -> tuple[dict[Symbol, Fraction], list[LinearConstraint], Fraction] | None:
    """Gaussian-substitute every equality before the tableau is built.

    An equality ``a*s + e + k == 0`` determines ``s`` exactly, so ``s`` can
    be eliminated from the system *and the objective* without changing the
    feasible region's image or the optimum (the objective picks up a
    constant offset, which is returned and added back by the caller).  Cube
    polyhedra are dominated by assignment equalities, so this routinely
    shrinks the tableau from dozens of columns to a handful — and simplex
    cost is superlinear in the tableau size.

    Returns ``(objective, inequalities, offset)``, or ``None`` when a
    substitution chain exposes a contradiction (the system is infeasible).
    """
    obj = {s: Fraction(c) for s, c in objective.items() if Fraction(c) != 0}
    offset = Fraction(0)
    pending = list(constraints)
    inequalities: list[LinearConstraint] = []
    while pending:
        constraint = pending.pop()
        if constraint.is_contradiction:
            return None
        if constraint.is_trivial:
            continue
        if constraint.kind is not ConstraintKind.EQ:
            inequalities.append(constraint)
            continue
        symbol, coeff = constraint.coeffs[0]
        # |coeff| * target - sign(coeff) * c * equality cancels the symbol,
        # and the target's factor is positive, so inequalities keep their
        # direction.
        sign = 1 if coeff > 0 else -1

        def substitute(target: LinearConstraint) -> LinearConstraint:
            c = target.coefficient(symbol)
            if c == 0:
                return target
            return combine(target, abs(coeff), constraint, -sign * c, target.kind)

        pending = [substitute(c) for c in pending]
        inequalities = [substitute(c) for c in inequalities]
        weight = obj.pop(symbol, Fraction(0))
        if weight != 0:
            # s = -(rest + constant)/coeff; fold it into the objective.
            for s, e in constraint.coeffs:
                if s is not symbol:
                    obj[s] = obj.get(s, Fraction(0)) - weight * Fraction(e, coeff)
            offset -= weight * Fraction(constraint.constant, coeff)
            obj = {s: c for s, c in obj.items() if c != 0}
    survivors = []
    for constraint in inequalities:
        if constraint.is_contradiction:
            return None
        if not constraint.is_trivial:
            survivors.append(constraint)
    return obj, survivors, offset


def exact_maximize(
    objective: Mapping[Symbol, Fraction],
    constraints: Sequence[LinearConstraint],
) -> ExactLpResult:
    """Exactly maximize ``objective`` subject to ``constraints`` (free vars)."""
    reduced = _presolve(objective, constraints)
    if reduced is None:
        return ExactLpResult("infeasible")
    objective, constraints, offset = reduced
    if not constraints:
        if not objective:
            return ExactLpResult("optimal", offset)
        return ExactLpResult("unbounded")
    rows, rhs, obj, obj_scale, ncols = _standard_form(objective, constraints)
    nrows = len(rows)
    # Phase 1: add one artificial variable per row (after flipping rows with
    # negative right-hand sides), minimize their sum.
    tab_rows: list[list[int]] = []
    tab_rhs: list[int] = []
    basis: list[int] = []
    for i in range(nrows):
        row = list(rows[i])
        b = rhs[i]
        if b < 0:
            row = [-a for a in row]
            b = -b
        row.extend(0 for _ in range(nrows))
        row[ncols + i] = 1
        tab_rows.append(row)
        tab_rhs.append(b)
        basis.append(ncols + i)
    tableau = _Tableau(tab_rows, tab_rhs, basis)
    result = _solve_two_phase(tableau, obj, obj_scale, ncols, nrows)
    if result.status != "optimal":
        return result
    assert result.value is not None
    return ExactLpResult("optimal", result.value + offset)


def _solve_two_phase(
    tableau: _Tableau,
    obj: list[int],
    obj_scale: int,
    ncols: int,
    nrows: int,
) -> ExactLpResult:
    """Run both simplex phases on an already-built phase-1 tableau."""
    total_cols = ncols + nrows
    phase1_obj = [0] * ncols + [-1] * nrows  # maximize -(sum of artificials)
    status, value = tableau.optimize(phase1_obj, 1, range(total_cols))
    if status != "optimal" or value < 0:
        return ExactLpResult("infeasible")
    # Drive any artificial variable that is still basic out of the basis.
    for i in range(nrows):
        if tableau.basis[i] >= ncols:
            pivot_col = tableau.first_nonzero(i, ncols)
            if pivot_col is not None:
                tableau.pivot(i, pivot_col)
    # Phase 2: maximize the real objective over structural + slack columns.
    phase2_obj = list(obj) + [0] * nrows
    status, value = tableau.optimize(phase2_obj, obj_scale, range(ncols))
    if status == "unbounded":
        return ExactLpResult("unbounded")
    return ExactLpResult("optimal", value)


def exact_is_satisfiable(constraints: Sequence[LinearConstraint]) -> bool:
    """Exact rational satisfiability of a constraint system."""
    return not exact_maximize({}, constraints).is_infeasible


def exact_entails(
    constraints: Sequence[LinearConstraint], candidate: LinearConstraint
) -> bool:
    """Exact entailment check ``constraints |= candidate``."""
    if candidate.is_trivial:
        return True
    if candidate.is_contradiction:
        return not exact_is_satisfiable(constraints)
    if candidate.kind is ConstraintKind.EQ:
        le = LinearConstraint.make(candidate.coeff_map, candidate.constant)
        ge = LinearConstraint.make(
            {s: -c for s, c in candidate.coeffs}, -candidate.constant
        )
        return exact_entails(constraints, le) and exact_entails(constraints, ge)
    result = exact_maximize(candidate.coeff_map, constraints)
    if result.is_infeasible:
        return True
    if not result.is_optimal or result.value is None:
        return False
    return result.value <= -candidate.constant
