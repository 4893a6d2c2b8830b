"""Polyhedral abstract domain: linear constraints, LP queries, projection, hulls.

This package implements the machinery behind the paper's ``Abstract`` /
convex-hull procedure (Alg. 1): linear constraints stored as gcd-primitive
integer rows, satisfiability/entailment/optimization via an exact rational
simplex, Fourier–Motzkin projection, and the polyhedral join (closed convex
hull of unions).

The hot queries — projection, LP satisfiability/entailment, constraint-set
minimization — are memoized in process-local tables keyed on canonically
numbered constraint systems (:mod:`repro.polyhedra.cache`); ``clear_caches``
resets them and ``cache_stats`` reports their hit rates.
"""

from .cache import cache_stats, clear_caches
from .constraint import ConstraintKind, LinearConstraint, constraint_from_atom
from .fourier_motzkin import eliminate, minimize_constraints
from .hull import convex_hull, convex_hull_pair, weak_join
from .lp import entails, is_satisfiable, maximize
from .polyhedron import Polyhedron

__all__ = [
    "ConstraintKind",
    "LinearConstraint",
    "constraint_from_atom",
    "cache_stats",
    "clear_caches",
    "eliminate",
    "minimize_constraints",
    "convex_hull",
    "convex_hull_pair",
    "weak_join",
    "entails",
    "is_satisfiable",
    "maximize",
    "Polyhedron",
]
