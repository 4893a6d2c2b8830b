"""Convex polyhedra in constraint representation.

A :class:`Polyhedron` is a finite conjunction of linear constraints over
symbols.  It provides the abstract-domain operations the paper relies on
(§3, "Symbolic abstraction"): meet, projection (via Fourier–Motzkin), the
join (closed convex hull of the union, see :mod:`repro.polyhedra.hull`),
and entailment.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..formulas.formula import Formula, conjoin
from ..formulas.symbols import Symbol
from .constraint import ConstraintKind, LinearConstraint
from . import fourier_motzkin, lp

__all__ = ["Polyhedron"]


class Polyhedron:
    """A (possibly unbounded) convex polyhedron in constraint form."""

    __slots__ = ("_constraints",)

    def __init__(self, constraints: Iterable[LinearConstraint] = ()):
        self._constraints: tuple[LinearConstraint, ...] = tuple(
            c for c in constraints if not c.is_trivial
        )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def universe() -> "Polyhedron":
        """The unconstrained polyhedron (top)."""
        return Polyhedron(())

    @staticmethod
    def empty() -> "Polyhedron":
        """A canonical empty polyhedron (bottom)."""
        return Polyhedron(
            (LinearConstraint.make({}, 1, ConstraintKind.LE),)
        )

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        return self._constraints

    @property
    def symbols(self) -> frozenset[Symbol]:
        out: set[Symbol] = set()
        for constraint in self._constraints:
            out |= constraint.symbols
        return frozenset(out)

    @property
    def is_universe(self) -> bool:
        return not self._constraints

    def is_empty(self) -> bool:
        """Whether the polyhedron has no rational points (LP check)."""
        if any(c.is_contradiction for c in self._constraints):
            return True
        if not self._constraints:
            return False
        return not lp.is_satisfiable(self._constraints)

    # ------------------------------------------------------------------ #
    # Domain operations
    # ------------------------------------------------------------------ #
    def meet(self, other: "Polyhedron") -> "Polyhedron":
        """Intersection."""
        return Polyhedron(self._constraints + other._constraints)

    def add_constraints(
        self, constraints: Iterable[LinearConstraint]
    ) -> "Polyhedron":
        return Polyhedron(self._constraints + tuple(constraints))

    def eliminate(self, symbols: Iterable[Symbol]) -> "Polyhedron":
        """Project away the given symbols (existential quantification)."""
        symbols = list(symbols)
        if not symbols:
            return self
        return Polyhedron(fourier_motzkin.eliminate(self._constraints, symbols))

    def project_onto(self, symbols: Iterable[Symbol]) -> "Polyhedron":
        """Project onto the given symbols (eliminate all others)."""
        keep = frozenset(symbols)
        drop = [s for s in self.symbols if s not in keep]
        return self.eliminate(drop)

    def join(self, other: "Polyhedron") -> "Polyhedron":
        """Closed convex hull of the union (the polyhedral join ``⊔``)."""
        from .hull import convex_hull_pair  # local import to avoid a cycle

        return convex_hull_pair(self, other)

    def widen(self, other: "Polyhedron") -> "Polyhedron":
        """Standard polyhedral widening: keep only constraints of ``self``
        that ``other`` still satisfies.

        Used by the ICRA-style baseline's Kleene-iteration fallback, not by
        the CHORA analysis itself.
        """
        if self.is_empty():
            return other
        kept = [c for c in self._constraints if other.entails(c)]
        return Polyhedron(kept)

    def entails(self, constraint: LinearConstraint) -> bool:
        """Whether every point of the polyhedron satisfies ``constraint``."""
        return lp.entails(self._constraints, constraint)

    def contains(self, other: "Polyhedron") -> bool:
        """Whether ``other`` is a subset of ``self``."""
        return all(lp.entails(other._constraints, c) for c in self._constraints)

    def minimize(self) -> "Polyhedron":
        """Remove redundant constraints."""
        return Polyhedron(fourier_motzkin.minimize_constraints(self._constraints))

    def rename(self, mapping: Mapping[Symbol, Symbol]) -> "Polyhedron":
        return Polyhedron(c.rename(mapping) for c in self._constraints)

    def to_formula(self) -> Formula:
        """The conjunction of the constraints as a formula."""
        return conjoin([c.to_atom() for c in self._constraints])

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polyhedron):
            return NotImplemented
        return self.contains(other) and other.contains(self)

    def __hash__(self) -> int:  # pragma: no cover - polyhedra are not dict keys
        return hash(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    def __str__(self) -> str:
        if not self._constraints:
            return "{ true }"
        return "{ " + " ; ".join(str(c) for c in self._constraints) + " }"

    def __repr__(self) -> str:
        return f"Polyhedron({self!s})"
