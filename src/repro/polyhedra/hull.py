"""Convex hull (polyhedral join) of unions of polyhedra.

The paper's Alg. 1 computes the convex hull of a formula by joining the
projections of its DNF cubes with the polyhedral join operator ``⊔``.  Two
implementations of the join are provided:

* :func:`convex_hull_pair` — the *exact* closed convex hull of two polyhedra,
  computed with the classic lifted construction of Benoy, King and Mesnard:
  a point ``x`` is in ``cl conv(P ∪ Q)`` iff there are ``y`` and
  ``σ ∈ [0, 1]`` with ``y ∈ σ·P`` and ``x − y ∈ (1−σ)·Q`` (homogenized
  constraints); the auxiliary variables are then eliminated by
  Fourier–Motzkin.
* :func:`weak_join` — a cheaper, sound over-approximation that keeps exactly
  the constraints of either argument that the other argument entails.  It is
  used as a fallback when the exact construction would blow up, and is also
  exposed separately so the ablation benchmark can measure its effect.
"""

from __future__ import annotations

from typing import Sequence

from ..formulas.symbols import Symbol, fresh
from .constraint import ConstraintKind, LinearConstraint
from . import fourier_motzkin
from .polyhedron import Polyhedron

__all__ = ["convex_hull_pair", "convex_hull", "weak_join", "EXACT_HULL_MAX_DIMENSION"]

#: Above this many dimensions the exact lifted construction is skipped in
#: favour of :func:`weak_join` (Fourier–Motzkin cost grows quickly with the
#: number of auxiliary variables to eliminate).
EXACT_HULL_MAX_DIMENSION = 14

#: If either argument has more than this many constraints, fall back to the
#: weak join.
EXACT_HULL_MAX_CONSTRAINTS = 48


def weak_join(first: Polyhedron, second: Polyhedron) -> Polyhedron:
    """Sound join: constraints of either polyhedron entailed by the other."""
    if first.is_empty():
        return second
    if second.is_empty():
        return first

    def entailed_by(polyhedron: Polyhedron):
        # Syntactic subsumption first: a constraint the other argument
        # states verbatim (up to a positive factor, which the primitive row
        # form makes literal equality) needs no LP call.
        syntactic = frozenset(polyhedron.constraints)

        def check(constraint: LinearConstraint) -> bool:
            return constraint in syntactic or polyhedron.entails(constraint)

        return check

    in_second = entailed_by(second)
    in_first = entailed_by(first)
    kept: list[LinearConstraint] = []
    for constraint in first.constraints:
        if constraint.kind is ConstraintKind.EQ:
            # Split equalities so that one-sided halves can survive the join.
            le = LinearConstraint.make(constraint.coeff_map, constraint.constant)
            ge = LinearConstraint.make(
                {s: -c for s, c in constraint.coeffs}, -constraint.constant
            )
            for half in (le, ge):
                if in_second(half):
                    kept.append(half)
        elif in_second(constraint):
            kept.append(constraint)
    for constraint in second.constraints:
        if constraint.kind is ConstraintKind.EQ:
            le = LinearConstraint.make(constraint.coeff_map, constraint.constant)
            ge = LinearConstraint.make(
                {s: -c for s, c in constraint.coeffs}, -constraint.constant
            )
            for half in (le, ge):
                if in_first(half):
                    kept.append(half)
        elif in_first(constraint):
            kept.append(constraint)
    return Polyhedron(kept).minimize()


def convex_hull_pair(first: Polyhedron, second: Polyhedron) -> Polyhedron:
    """Closed convex hull of the union of two polyhedra.

    Falls back to :func:`weak_join` when the lifted construction would be too
    large; the fallback is a sound over-approximation of the hull.
    """
    if first.is_empty():
        return second
    if second.is_empty():
        return first
    if first.is_universe or second.is_universe:
        return Polyhedron.universe()
    symbols = sorted(first.symbols | second.symbols, key=str)
    if (
        len(symbols) > EXACT_HULL_MAX_DIMENSION
        or len(first.constraints) > EXACT_HULL_MAX_CONSTRAINTS
        or len(second.constraints) > EXACT_HULL_MAX_CONSTRAINTS
    ):
        return weak_join(first, second)

    sigma = fresh("hull_sigma")
    shadow = {s: fresh(f"hull_{s.name}") for s in symbols}

    lifted: list[LinearConstraint] = []
    # Homogenized copy of `first` over (shadow, sigma):  A*y + b*sigma <= 0.
    for constraint in first.constraints:
        coeffs: dict[Symbol, int] = {shadow[s]: c for s, c in constraint.coeffs}
        coeffs[sigma] = constraint.constant
        lifted.append(LinearConstraint.make(coeffs, 0, constraint.kind))
    # Homogenized copy of `second` over (x - y, 1 - sigma):
    #   A*(x - y) + b*(1 - sigma) <= 0.
    for constraint in second.constraints:
        coeffs = {}
        for s, c in constraint.coeffs:
            coeffs[s] = c
            coeffs[shadow[s]] = -c
        coeffs[sigma] = -constraint.constant
        lifted.append(
            LinearConstraint.make(coeffs, constraint.constant, constraint.kind)
        )
    # 0 <= sigma <= 1.
    lifted.append(LinearConstraint.make({sigma: -1}, 0))
    lifted.append(LinearConstraint.make({sigma: 1}, -1))

    eliminated = fourier_motzkin.eliminate(
        lifted, [sigma, *shadow.values()]
    )
    hull = Polyhedron(eliminated).minimize()
    if hull.is_empty():
        # Numerical or blow-up fallback; the hull of two non-empty polyhedra
        # is never empty, so trust the weak join instead.
        return weak_join(first, second)
    return hull


def convex_hull(polyhedra: Sequence[Polyhedron]) -> Polyhedron:
    """Hull of several polyhedra, folded pairwise (hull is associative)."""
    if not polyhedra:
        return Polyhedron.empty()
    result = polyhedra[0]
    for polyhedron in polyhedra[1:]:
        result = convex_hull_pair(result, polyhedron)
    return result
