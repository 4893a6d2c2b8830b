"""Transition formulas with an explicit variable footprint.

A :class:`TransitionFormula` packages a formula over pre-state symbols ``x``
and post-state symbols ``x'`` together with the set of program-variable names
it constrains (its *footprint*).  Variables outside the footprint are
implicitly unmodified; keeping footprints explicit lets sequential
composition frame-in the unmentioned variables correctly and keeps formulas
small (the analysis of the paper is compositional precisely because each
fragment only talks about the variables it touches).

The algebraic operations defined here (``identity``, ``assume``, ``assign``,
``havoc``, ``compose``, ``join``) are the interpretation of control-flow-graph
edges used by the intraprocedural analysis (`repro.analysis`) — the function
``PathSummary`` of §3 is a fold of these operations over a path expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .formula import (
    FALSE,
    TRUE,
    Formula,
    atom_eq,
    conjoin,
    disjoin,
    exists,
    free_symbols,
    rename,
)
from .polynomial import Polynomial
from .symbols import Symbol, fresh, post, pre

__all__ = ["TransitionFormula"]


@dataclass(frozen=True)
class TransitionFormula:
    """A relation between pre- and post-states of the variables in ``footprint``.

    Attributes
    ----------
    formula:
        Formula over ``{pre(v), post(v) : v in footprint}`` plus auxiliary
        (existentially interpreted or globally fresh) symbols.
    footprint:
        The program variables the relation constrains; all other variables are
        implicitly equal in pre- and post-state.
    """

    formula: Formula
    footprint: frozenset[str]

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def identity(variables: Iterable[str] = ()) -> "TransitionFormula":
        """The identity relation (``skip``)."""
        return TransitionFormula(TRUE, frozenset(variables) & frozenset())

    @staticmethod
    def bottom() -> "TransitionFormula":
        """The empty relation (``abort`` / infeasible)."""
        return TransitionFormula(FALSE, frozenset())

    @staticmethod
    def assume(condition: Formula) -> "TransitionFormula":
        """Guard: constrain the pre-state, change nothing.

        ``condition`` must be a formula over *pre-state* symbols only.
        """
        return TransitionFormula(condition, frozenset())

    @staticmethod
    def assign(variable: str, expression: Polynomial) -> "TransitionFormula":
        """The assignment ``variable := expression`` (expression over pre-state)."""
        formula = atom_eq(Polynomial.var(post(variable)), expression)
        return TransitionFormula(formula, frozenset([variable]))

    @staticmethod
    def havoc(variables: Iterable[str]) -> "TransitionFormula":
        """Non-deterministically assign arbitrary values to ``variables``."""
        return TransitionFormula(TRUE, frozenset(variables))

    @staticmethod
    def relation(formula: Formula, variables: Iterable[str]) -> "TransitionFormula":
        """Wrap an arbitrary formula with the given footprint."""
        return TransitionFormula(formula, frozenset(variables))

    # ------------------------------------------------------------------ #
    # Predicates
    # ------------------------------------------------------------------ #
    @property
    def is_bottom(self) -> bool:
        """Syntactic check for the empty relation."""
        return self.formula == FALSE

    @property
    def is_identity(self) -> bool:
        """Syntactic check for the identity relation."""
        return self.formula == TRUE and not self.footprint

    # ------------------------------------------------------------------ #
    # The full two-vocabulary formula
    # ------------------------------------------------------------------ #
    def to_formula(self, variables: Iterable[str] | None = None) -> Formula:
        """The formula with explicit frame equalities ``x' = x``.

        ``variables`` gives the full variable set of interest; variables in it
        but outside the footprint get a frame equality.  With the default
        (``None``) only the footprint is used and no frame conjuncts appear.
        """
        frame: list[Formula] = []
        if variables is not None:
            # Sorted so conjunct order (and thus rendered text) never
            # depends on set iteration order, which varies per process.
            for name in sorted(variables):
                if name not in self.footprint:
                    frame.append(
                        atom_eq(Polynomial.var(post(name)), Polynomial.var(pre(name)))
                    )
        return conjoin([self.formula, *frame])

    # ------------------------------------------------------------------ #
    # Kleene-algebra operations
    # ------------------------------------------------------------------ #
    def compose(self, other: "TransitionFormula") -> "TransitionFormula":
        """Relational (sequential) composition ``self ; other``."""
        if self.is_bottom or other.is_bottom:
            return TransitionFormula.bottom()
        if self.is_identity:
            return other
        if other.is_identity:
            return self
        footprint = self.footprint | other.footprint
        # Iterate the footprint in sorted order throughout: fresh-symbol
        # minting order must not depend on set iteration order or renders
        # of the same summary would differ from process to process.
        ordered = sorted(footprint)
        mids = {name: fresh(f"mid_{name}") for name in ordered}
        # self: rename post(v) -> mid_v; frame v' = v for v outside self's footprint
        left_map: dict[Symbol, Symbol] = {}
        left_extra: list[Formula] = []
        for name in ordered:
            if name in self.footprint:
                left_map[post(name)] = mids[name]
            else:
                left_extra.append(
                    atom_eq(Polynomial.var(mids[name]), Polynomial.var(pre(name)))
                )
        left = conjoin([rename(self.formula, left_map), *left_extra])
        # other: rename pre(v) -> mid_v for every mediated variable (the
        # pre-state of `other` is the intermediate state, even for variables
        # `other` only reads); frame v' = mid_v for v outside other's footprint.
        right_map: dict[Symbol, Symbol] = {}
        right_extra: list[Formula] = []
        for name in ordered:
            right_map[pre(name)] = mids[name]
            if name not in other.footprint:
                right_extra.append(
                    atom_eq(Polynomial.var(post(name)), Polynomial.var(mids[name]))
                )
        right = conjoin([rename(other.formula, right_map), *right_extra])
        body = conjoin([left, right])
        formula = exists(tuple(mids.values()), body)
        return TransitionFormula(formula, footprint)

    def join(self, other: "TransitionFormula") -> "TransitionFormula":
        """Non-deterministic choice ``self + other`` (union of relations)."""
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        footprint = self.footprint | other.footprint
        left = self.to_formula(footprint)
        right = other.to_formula(footprint)
        return TransitionFormula(disjoin([left, right]), footprint)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def exists_variables(self, variables: Iterable[str]) -> "TransitionFormula":
        """Project away both copies of the given program variables.

        Used to drop callee locals / formal parameters after inlining a
        summary, and to drop a procedure's local variables from its summary.
        The symbols are existentially quantified; actual elimination happens
        later, during symbolic abstraction.
        """
        names = frozenset(variables)
        if not names:
            return self
        to_bind = [s for n in sorted(names) for s in (pre(n), post(n))]
        formula = exists(to_bind, self.formula)
        return TransitionFormula(formula, self.footprint - names)

    def rename_variables(self, mapping: Mapping[str, str]) -> "TransitionFormula":
        """Rename program variables (both pre and post copies)."""
        if not mapping:
            return self
        symbol_map: dict[Symbol, Symbol] = {}
        for src, dst in mapping.items():
            symbol_map[pre(src)] = pre(dst)
            symbol_map[post(src)] = post(dst)
        footprint = frozenset(mapping.get(n, n) for n in self.footprint)
        return TransitionFormula(rename(self.formula, symbol_map), footprint)

    def free_symbols(self) -> frozenset[Symbol]:
        return free_symbols(self.formula)

    def referenced_variables(self) -> frozenset[str]:
        """Program variables the relation mentions (read or written).

        This is the footprint plus any variable whose pre- or post-state
        symbol occurs free in the formula (fresh auxiliary symbols are not
        program variables and are excluded).
        """
        names = set(self.footprint)
        for symbol in free_symbols(self.formula):
            if not symbol.is_fresh:
                names.add(symbol.name)
        return frozenset(names)

    def __str__(self) -> str:
        names = ", ".join(sorted(self.footprint)) or "-"
        return f"[{names}] {self.formula}"
