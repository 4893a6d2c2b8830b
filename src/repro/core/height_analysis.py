"""Height-based recurrence analysis: Alg. 2 and its mutual-recursion variant (§4.1, §4.4).

Given a strongly connected component ``{P_1, ..., P_m}`` of the call graph,
the analysis

1. summarizes the *base cases* (``Summary(P_i, false)``) and abstracts them to
   find candidate relational expressions ``tau_{i,k}`` that are bounded above
   by zero in the base case;
2. forms the *hypothetical summary* ``phi_call(P_i) = AND_k (tau_{i,k} <=
   b_{i,k}(h)  /\\  b_{i,k}(h) >= 0)`` with fresh symbols for the unknown
   bounding functions;
3. re-analyses each procedure body with the hypothetical summaries standing
   in for the recursive calls (``phi_rec``), conjoins the defining equations
   ``b_{i,k}(h+1) = tau_{i,k}``, and abstracts the result onto the bounding
   function symbols to obtain *candidate recurrence inequations*.

The companion module :mod:`repro.core.stratify` (Alg. 3) filters the
candidates into a stratified recurrence; solving it yields the bounding
functions used in the procedure summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..abstraction import AbstractionOptions, Inequation, abstract, abstract_many
from ..analysis import ProcedureContext, summarize_procedure
from ..formulas import (
    RETURN_VARIABLE,
    Formula,
    Polynomial,
    Symbol,
    TransitionFormula,
    atom_eq,
    atom_ge,
    atom_le,
    conjoin,
    fresh,
    post,
    pre,
)
from ..lang import ast

__all__ = ["BoundSymbols", "HeightAnalysis", "run_height_analysis", "summary_keep_symbols"]


def summary_keep_symbols(context: ProcedureContext) -> list[Symbol]:
    """The symbols a procedure summary may mention (§4.1).

    Pre- and post-state copies of the globals, unprimed copies of the scalar
    parameters, and the primed return value.
    """
    keep: list[Symbol] = []
    for name in context.global_names:
        keep.append(pre(name))
        keep.append(post(name))
    for name in context.procedure.scalar_parameters:
        keep.append(pre(name))
    keep.append(post(RETURN_VARIABLE))
    return keep


@dataclass(frozen=True)
class BoundSymbols:
    """The pair of fresh symbols standing for ``b_{i,k}(h)`` and ``b_{i,k}(h+1)``."""

    procedure: str
    index: int
    term: Polynomial
    at_h: Symbol
    at_h_plus_1: Symbol


@dataclass
class HeightAnalysis:
    """Everything produced by the candidate-extraction phase (Alg. 2)."""

    #: Procedures of the analysed SCC, in a fixed order.
    procedures: tuple[str, ...]
    #: Base-case summaries ``Summary(P_i, false)``.
    base_summaries: dict[str, TransitionFormula] = field(default_factory=dict)
    #: Hypothetical summaries ``phi_call(P_i)``.
    hypothetical_summaries: dict[str, TransitionFormula] = field(default_factory=dict)
    #: Recursive-case summaries ``phi_rec(P_i)`` (hypothetical summaries at calls).
    recursive_summaries: dict[str, TransitionFormula] = field(default_factory=dict)
    #: Bounding-function symbols per procedure, aligned with candidate terms.
    bound_symbols: dict[str, list[BoundSymbols]] = field(default_factory=dict)
    #: Candidate recurrence inequations over the bounding-function symbols.
    candidate_inequations: list[Inequation] = field(default_factory=list)

    def all_height_symbols(self) -> list[Symbol]:
        return [b.at_h for bounds in self.bound_symbols.values() for b in bounds]


def _candidate_terms(
    inequations: Sequence[Inequation], keep: Sequence[Symbol]
) -> list[Polynomial]:
    """Relational expressions bounded above by zero in the base case.

    Every inequation ``p <= 0`` contributes ``p``; every equation contributes
    both ``p`` and ``-p``.  Terms that do not mention any symbol of interest
    (pure constants) are dropped.
    """
    terms: list[Polynomial] = []
    seen: set[Polynomial] = set()
    for inequation in inequations:
        candidates = [inequation.polynomial]
        if inequation.is_equality:
            candidates.append(-inequation.polynomial)
        for candidate in candidates:
            if not candidate.symbols:
                continue
            if candidate in seen:
                continue
            seen.add(candidate)
            terms.append(candidate)
    return terms


def run_height_analysis(
    contexts: Mapping[str, ProcedureContext],
    external_summaries: Mapping[str, TransitionFormula],
    procedures: Mapping[str, ast.Procedure],
    options: AbstractionOptions = AbstractionOptions(),
) -> HeightAnalysis:
    """Alg. 2 (single procedure) / §4.4 (mutual recursion), candidate extraction.

    ``contexts`` maps the names of the SCC's procedures to their analysis
    contexts; ``external_summaries`` provides transition formulas for calls
    that leave the SCC (already analysed procedures).
    """
    ordered = tuple(sorted(contexts))
    analysis = HeightAnalysis(procedures=ordered)

    # ----------------------------------------------------------------- #
    # Lines (1)-(6): base-case summaries and candidate terms.
    # ----------------------------------------------------------------- #
    bottom = {name: TransitionFormula.bottom() for name in ordered}
    for name in ordered:
        context = contexts[name]
        base = summarize_procedure(
            context, bottom, external_summaries, procedures, options
        )
        analysis.base_summaries[name] = base
        keep = summary_keep_symbols(context)
        if base.is_bottom:
            # No base case (§4.5): no candidate terms for this procedure.
            analysis.bound_symbols[name] = []
            continue
        base_abstraction = abstract(base.to_formula(context.summary_variables), keep, options)
        if base_abstraction.polyhedron.is_empty():
            analysis.bound_symbols[name] = []
            continue
        terms = _candidate_terms(list(base_abstraction), keep)
        bounds: list[BoundSymbols] = []
        for index, term in enumerate(terms):
            bounds.append(
                BoundSymbols(
                    procedure=name,
                    index=index,
                    term=term,
                    at_h=fresh(f"b_{name}_{index}_h"),
                    at_h_plus_1=fresh(f"b_{name}_{index}_h1"),
                )
            )
        analysis.bound_symbols[name] = bounds

    # ----------------------------------------------------------------- #
    # Line (7): hypothetical summaries phi_call(P_i).
    # ----------------------------------------------------------------- #
    for name in ordered:
        context = contexts[name]
        conjuncts: list[Formula] = []
        for bound in analysis.bound_symbols[name]:
            b_h = Polynomial.var(bound.at_h)
            conjuncts.append(atom_le(bound.term, b_h))
            conjuncts.append(atom_ge(b_h, 0))
        if not conjuncts:
            # A procedure with no base case gets the trivial (havoc) summary.
            analysis.hypothetical_summaries[name] = TransitionFormula.havoc(
                context.summary_variables
            )
            continue
        footprint = list(context.global_names) + [RETURN_VARIABLE] + list(
            context.procedure.scalar_parameters
        )
        analysis.hypothetical_summaries[name] = TransitionFormula.relation(
            conjoin(conjuncts), footprint
        )

    # ----------------------------------------------------------------- #
    # Lines (8)-(14): phi_rec, phi_ext, and candidate recurrence inequations.
    # ----------------------------------------------------------------- #
    all_height_symbols = analysis.all_height_symbols()
    for name in ordered:
        context = contexts[name]
        recursive = summarize_procedure(
            context,
            analysis.hypothetical_summaries,
            external_summaries,
            procedures,
            options,
        )
        analysis.recursive_summaries[name] = recursive
        if recursive.is_bottom:
            continue
        bounds = analysis.bound_symbols[name]
        if not bounds:
            continue
        # The bounding functions are non-negative for every height (they start
        # at zero and their recurrences have non-negative coefficients); this
        # global fact is what lets the base-case disjunct of phi_rec join with
        # the recursive disjuncts without losing the recurrence inequations.
        nonnegativity = [
            atom_ge(Polynomial.var(symbol), 0) for symbol in all_height_symbols
        ]
        extension = conjoin(
            [recursive.to_formula(context.summary_variables)]
            + nonnegativity
            + [
                atom_eq(Polynomial.var(bound.at_h_plus_1), bound.term)
                for bound in bounds
            ]
        )
        # One keep set per bounding symbol, but a single cube enumeration of
        # the (large) extension formula shared across all of them.
        keep_sets = [
            list(all_height_symbols) + [bound.at_h_plus_1] for bound in bounds
        ]
        abstractions = abstract_many(extension, keep_sets, options)
        for bound, extension_abstraction in zip(bounds, abstractions):
            for inequation in extension_abstraction:
                if bound.at_h_plus_1 in inequation.polynomial.symbols:
                    analysis.candidate_inequations.append(inequation)
    return analysis
