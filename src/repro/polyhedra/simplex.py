"""Exact rational linear programming (fraction-free two-phase simplex).

The floating-point LP backend (:mod:`repro.polyhedra.lp`) is fast but its
answers near the decision boundary cannot be trusted for *soundness-critical*
queries: claiming that a constraint system entails a candidate inequation when
it does not would let an unsound invariant into a procedure summary.  This
module provides an exact simplex that the LP layer consults whenever the
floating-point answer is in the unsound direction or too close to call.

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
each other on random LPs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from ..formulas.symbols import Symbol
from .constraint import ConstraintKind, LinearConstraint, combine

try:  # numpy backs the fixed-width kernel; without it every LP runs bignum.
    import numpy as _np
except ImportError:  # pragma: no cover - the test image ships numpy
    _np = None

__all__ = [
    "ExactLpResult",
    "exact_maximize",
    "exact_is_satisfiable",
    "exact_entails",
    "set_simplex_kernel",
    "simplex_kernel",
    "int64_available",
    "kernel_stats",
    "reset_kernel_stats",
]

# ---------------------------------------------------------------------------
# Kernel selection.
#
# Two pivot kernels implement the same fraction-free Bareiss tableau: the
# original per-row Python bignum lists (`_Tableau`) and a vectorised numpy
# int64 matrix (`_Int64Tableau`).  Both perform *identical* integer
# arithmetic — same pivots, same gcd reductions, same Bland/ratio decisions
# made on exact Python integers — so every result is bit-identical; the
# int64 kernel merely refuses (via `_Int64Overflow`) any pivot whose
# intermediates could exceed the fixed width, at which point the whole LP is
# re-run on the bignum tableau.  The kernel choice is therefore invisible to
# callers: memo keys, verdicts and optimal values never depend on it.
# ---------------------------------------------------------------------------

_KERNEL_MODES = ("auto", "int64", "bignum")
_kernel_mode = "auto"
# Any tableau entry, denominator or pivot intermediate must stay strictly
# below this bound.  2^62 leaves headroom so that the multiply-subtract
# `a*p - f*b` (bounded by rows_max*p + f_max*prow_max, checked before the
# pivot) can never reach 2^63 even transiently.  Tests shrink it to force
# the overflow detector to fire on small inputs.
_INT64_SAFE = 1 << 62
# In "auto" mode only tableaus with at least this many cells take the numpy
# path: below it the per-pivot numpy dispatch overhead exceeds the bignum
# loop it replaces.  "int64" mode ignores the floor (used by benchmarks and
# the differential tests to exercise the kernel on any size).
_INT64_MIN_CELLS = 256

_KERNEL_STATS = {"int64": 0, "bignum": 0, "fallbacks": 0}


def set_simplex_kernel(mode: str) -> str:
    """Select the pivot kernel; returns the previous mode.

    ``auto`` (default) routes large integral tableaus to the int64 kernel,
    ``int64`` prefers it regardless of size, ``bignum`` disables it.  All
    modes produce bit-identical results.
    """
    global _kernel_mode
    if mode not in _KERNEL_MODES:
        raise ValueError(f"unknown simplex kernel {mode!r}; expected one of {_KERNEL_MODES}")
    previous = _kernel_mode
    _kernel_mode = mode
    return previous


def simplex_kernel() -> str:
    """Return the current kernel mode ('auto', 'int64' or 'bignum')."""
    return _kernel_mode


def int64_available() -> bool:
    """True when numpy is importable, i.e. the int64 kernel can run."""
    return _np is not None


def kernel_stats() -> dict[str, int]:
    """Counters: LPs solved per kernel plus int64→bignum overflow fallbacks."""
    return dict(_KERNEL_STATS)


def reset_kernel_stats() -> None:
    for key in _KERNEL_STATS:
        _KERNEL_STATS[key] = 0


class _Int64Overflow(Exception):
    """Raised by the int64 kernel when a pivot could exceed the fixed width."""


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


class _Int64Tableau:
    """Vectorised int64 twin of :class:`_Tableau`.

    The tableau lives in one ``(nrows, ncols + 1)`` int64 matrix whose last
    column is the right-hand side, plus an int64 denominator vector, so the
    Bareiss multiply-subtract and the per-row gcd normalisation become whole-
    matrix numpy expressions.  Everything *decision-shaped* — the priced-out
    objective row, Bland's entering scan and the cross-multiplied ratio
    test — stays in exact Python integers (those touch a single row or
    column per pivot, so they are cheap, and keeping them exact removes any
    fixed-width concern from the pivot-selection logic).  The pivot sequence
    is therefore identical to the bignum kernel's, and so is every integer
    the tableau ever holds.

    Before each pivot a bound on the multiply-subtract intermediates is
    computed in Python integers; if it could reach ``_INT64_SAFE`` the kernel
    raises :class:`_Int64Overflow` and the caller restarts the LP on the
    bignum tableau (tableau-wise fallback — by construction no partially
    wrapped state can ever be observed).
    """

    __slots__ = ("m", "den", "basis", "ncols")

    def __init__(self, rows: list[list[int]], rhs: list[int], basis: list[int]):
        nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        try:
            m = _np.empty((nrows, self.ncols + 1), dtype=_np.int64)
            for i, row in enumerate(rows):
                m[i, :-1] = row
                m[i, -1] = rhs[i]
        except OverflowError as exc:  # an entry does not even fit in int64
            raise _Int64Overflow from exc
        # Magnitude check via min/max, not np.abs: abs(-2^63) wraps in int64.
        if m.size and max(-int(m.min()), int(m.max())) >= _INT64_SAFE:
            raise _Int64Overflow
        self.m = m
        self.den = _np.ones(nrows, dtype=_np.int64)
        self.basis = basis

    def _reduce_rows(self, mask: "_np.ndarray") -> None:
        """gcd-normalise every masked row (entries, rhs and denominator)."""
        rows = self.m[mask]
        g = _np.gcd.reduce(_np.abs(rows), axis=1)
        g = _np.gcd(g, self.den[mask])
        if bool((g > 1).any()):
            # Exact: g divides every entry, so floor division is exact
            # division even for negative entries.
            self.m[mask] = rows // g[:, None]
            self.den[mask] = self.den[mask] // g

    def _reduce_row(self, r: int) -> None:
        row = self.m[r]
        g = math.gcd(int(_np.gcd.reduce(_np.abs(row))), int(self.den[r]))
        if g > 1:
            row //= g
            self.den[r] //= g

    def pivot(self, row: int, col: int) -> None:
        """Make ``col`` basic in ``row`` — same arithmetic as `_Tableau.pivot`."""
        m = self.m
        p = int(m[row, col])
        if p < 0:
            # Same drive-artificials-out corner as the bignum kernel; the
            # negation cannot overflow because entries stay < _INT64_SAFE.
            _np.negative(m[row], out=m[row])
            p = -p
        pivot_row = m[row]
        factors = m[:, col].copy()
        factors[row] = 0
        mask = factors != 0
        if bool(mask.any()):
            touched = m[mask]
            rows_max = int(_np.abs(touched).max())
            factor_max = int(_np.abs(factors[mask]).max())
            prow_max = int(_np.abs(pivot_row).max())
            den_max = int(self.den[mask].max())
            # Python-int bound check: |a*p - f*b| <= rows_max*p +
            # factor_max*prow_max, and each intermediate product is bounded
            # by one of the two addends, so passing here guarantees no
            # transient wraps either.
            if rows_max * p + factor_max * prow_max >= _INT64_SAFE or den_max * p >= _INT64_SAFE:
                raise _Int64Overflow
            m[mask] = touched * p - factors[mask, None] * pivot_row
            self.den[mask] = self.den[mask] * p
            self._reduce_rows(mask)
        self.den[row] = p
        self._reduce_row(row)
        self.basis[row] = col

    def first_nonzero(self, row: int, limit: int) -> int | None:
        nz = _np.nonzero(self.m[row, :limit])[0]
        return int(nz[0]) if nz.size else None

    def optimize(
        self, obj_num: list[int], obj_den: int, allowed_cols: Sequence[int]
    ) -> tuple[str, Fraction]:
        """Maximize ``obj_num / obj_den`` — decision logic mirrors `_Tableau`."""
        onum = list(obj_num)
        oden = obj_den
        val_num = 0
        for i, basic_col in enumerate(self.basis):
            coeff = onum[basic_col]
            if coeff == 0:
                continue
            d = int(self.den[i])
            row = self.m[i].tolist()
            row_rhs = row.pop()
            onum = [a * d - coeff * b if b else a * d for a, b in zip(onum, row)]
            val_num = val_num * d - coeff * row_rhs
            oden *= d
            onum, val_num, oden = _reduce_objective(onum, val_num, oden)
        nrows = len(self.basis)
        while True:
            entering = None
            for col in allowed_cols:
                if onum[col] > 0:
                    entering = col
                    break
            if entering is None:
                return "optimal", Fraction(-val_num, oden)
            column = self.m[:, entering].tolist()
            rhs = self.m[:, -1].tolist()
            leaving = None
            best_num = best_den = 0
            for r in range(nrows):
                a = column[r]
                if a > 0:
                    num = rhs[r]
                    cross = num * best_den - best_num * a
                    if (
                        leaving is None
                        or cross < 0
                        or (cross == 0 and self.basis[r] < self.basis[leaving])
                    ):
                        best_num, best_den = num, a
                        leaving = r
            if leaving is None:
                return "unbounded", Fraction(0)
            coeff = onum[entering]
            self.pivot(leaving, entering)
            d = int(self.den[leaving])
            lrow = self.m[leaving].tolist()
            lrhs = lrow.pop()
            onum = [a * d - coeff * b if b else a * d for a, b in zip(onum, lrow)]
            val_num = val_num * d - coeff * lrhs
            oden *= d
            onum, val_num, oden = _reduce_objective(onum, val_num, oden)


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
    result: ExactLpResult | None = None
    if _use_int64(nrows, ncols + nrows):
        try:
            # The numpy constructor copies tab_rows/tab_rhs, so the bignum
            # restart below always starts from pristine inputs.
            tableau = _Int64Tableau(tab_rows, tab_rhs, list(basis))
            result = _solve_two_phase(tableau, obj, obj_scale, ncols, nrows)
            _KERNEL_STATS["int64"] += 1
        except _Int64Overflow:
            _KERNEL_STATS["fallbacks"] += 1
    if result is None:
        _KERNEL_STATS["bignum"] += 1
        tableau = _Tableau(tab_rows, tab_rhs, basis)
        result = _solve_two_phase(tableau, obj, obj_scale, ncols, nrows)
    if result.status != "optimal":
        return result
    assert result.value is not None
    return ExactLpResult("optimal", result.value + offset)


def _use_int64(nrows: int, total_cols: int) -> bool:
    if _np is None or _kernel_mode == "bignum":
        return False
    return _kernel_mode == "int64" or nrows * (total_cols + 1) >= _INT64_MIN_CELLS


def _solve_two_phase(
    tableau: "_Tableau | _Int64Tableau",
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
