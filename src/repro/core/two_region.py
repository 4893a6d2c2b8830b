"""Two-region analysis (§4.3): stronger conclusions, including lower bounds.

Plain height-based analysis forces bounding functions to be non-negative and
non-decreasing, which makes lower bounds on quantities like a procedure's
return value trivial (the ``differ`` example of §4.3).  Two-region analysis
splits the recursion tree at the minimum base-case depth ``M``:

* in the *lower* region the ordinary analysis applies;
* in the *upper* region (depth ``<= M``) every vertex has a recursive child,
  so the analysis may (1) drop the ``b(h) >= 0`` hypothesis, (2) summarize
  only the *recursive* paths of the procedure, and (3) keep negative constant
  coefficients in the recurrences — allowing strictly decreasing bounding
  functions.

This module implements the upper-region analysis and returns the additional
bounding functions it yields.  The driver attaches them to procedure
summaries when the depth bound is *exact* (every root-to-leaf path has the
same length, so the upper region is the whole tree and the upper-region
initial condition is zero); this covers ``recHanoi``-style lower bounds and
functional-equivalence style proofs.  It does not cover the paper's
``quad``: that proof needs a return bound quadratic in the argument, which
this reproduction does not derive, so ``quad`` stays unproved.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from ..abstraction import AbstractionOptions, abstract
from ..analysis import ProcedureContext, inline_call, path_summary
from ..formulas import (
    RETURN_VARIABLE,
    Formula,
    Polynomial,
    TransitionFormula,
    atom_eq,
    atom_le,
    conjoin,
)
from ..lang import ast
from ..lang.cfg import CallEdge, ControlFlowGraph, WeightEdge
from ..recurrence import RecurrenceSolvingError
from .height_analysis import HeightAnalysis
from .stratify import build_stratified_system
from .summaries import BoundedTerm

__all__ = ["run_two_region_analysis", "recursive_only_cfg"]


def recursive_only_cfg(cfg: ControlFlowGraph, component: frozenset[str]) -> ControlFlowGraph:
    """A CFG whose entry-to-exit paths all contain at least one call into ``component``.

    The graph is layered: layer 0 is "no component call taken yet", layer 1 is
    "at least one taken"; component call edges move from layer 0 to layer 1.
    """
    counter = itertools.count()
    ids: dict[tuple[int, int], int] = {}

    def vertex(original: int, layer: int) -> int:
        key = (original, layer)
        if key not in ids:
            ids[key] = next(counter)
        return ids[key]

    layered = ControlFlowGraph(
        procedure=cfg.procedure + "__recursive_only",
        entry=vertex(cfg.entry, 0),
        exit=vertex(cfg.exit, 1),
        parameters=cfg.parameters,
        locals=cfg.locals,
        returns_value=cfg.returns_value,
    )
    for layer in (0, 1):
        for edge in cfg.weight_edges:
            layered.weight_edges.append(
                WeightEdge(
                    vertex(edge.source, layer),
                    vertex(edge.target, layer),
                    edge.transition,
                    edge.label,
                )
            )
        for edge in cfg.call_edges:
            target_layer = 1 if edge.callee in component else layer
            layered.call_edges.append(
                CallEdge(
                    vertex(edge.source, layer),
                    vertex(edge.target, target_layer),
                    edge.callee,
                    edge.arguments,
                    edge.result,
                    edge.label,
                )
            )
    layered.vertices.update(ids.values())
    return layered


def run_two_region_analysis(
    contexts: Mapping[str, ProcedureContext],
    analysis: HeightAnalysis,
    external_summaries: Mapping[str, TransitionFormula],
    procedures: Mapping[str, ast.Procedure],
    options: AbstractionOptions = AbstractionOptions(),
) -> dict[str, list[BoundedTerm]]:
    """Upper-region bounding functions for every procedure of the component.

    The returned closed forms are expressed as functions of the overall
    height ``H`` (the upper-region height of the root is ``H - 1``), with the
    upper-region initial condition fixed to zero — the instantiation used
    when the depth bound is exact (``H == M``).
    """
    component = frozenset(contexts)

    # Hypothetical summaries *without* the non-negativity conjuncts (§4.3
    # modification 1).
    hypothetical: dict[str, TransitionFormula] = {}
    for name, context in contexts.items():
        conjuncts: list[Formula] = []
        for bound in analysis.bound_symbols[name]:
            conjuncts.append(atom_le(bound.term, Polynomial.var(bound.at_h)))
        if not conjuncts:
            hypothetical[name] = TransitionFormula.havoc(context.summary_variables)
            continue
        footprint = list(context.global_names) + [RETURN_VARIABLE] + list(
            context.procedure.scalar_parameters
        )
        hypothetical[name] = TransitionFormula.relation(conjoin(conjuncts), footprint)

    # Candidate recurrences from the recursive-only paths (§4.3 modification 2).
    candidates = []
    all_height_symbols = analysis.all_height_symbols()
    for name, context in contexts.items():
        bounds = analysis.bound_symbols[name]
        if not bounds:
            continue
        layered = recursive_only_cfg(context.cfg, component)

        def interpret(edge: CallEdge) -> TransitionFormula:
            if edge.callee in component:
                summary = hypothetical[edge.callee]
            elif edge.callee in external_summaries:
                summary = external_summaries[edge.callee]
            else:
                havoced = list(context.global_names)
                if edge.result is not None:
                    havoced.append(edge.result)
                return TransitionFormula.havoc(havoced)
            return inline_call(edge, procedures[edge.callee], summary)

        recursive_summary = path_summary(layered, interpret, options=options)
        recursive_summary = recursive_summary.exists_variables(context.local_names)
        if recursive_summary.is_bottom:
            continue
        extension = conjoin(
            [recursive_summary.to_formula(context.summary_variables)]
            + [atom_eq(Polynomial.var(b.at_h_plus_1), b.term) for b in bounds]
        )
        for bound in bounds:
            keep = list(all_height_symbols) + [bound.at_h_plus_1]
            for inequation in abstract(extension, keep, options):
                if bound.at_h_plus_1 in inequation.polynomial.symbols:
                    candidates.append(inequation)

    # §4.3 modification 3: keep negative constant coefficients.
    all_bounds = [b for name in contexts for b in analysis.bound_symbols[name]]
    system = build_stratified_system(candidates, all_bounds, keep_negative_constants=True)
    system.initial_index = 0
    system.initial_value = 0
    try:
        solution = system.solve()
    except RecurrenceSolvingError:
        return {}

    results: dict[str, list[BoundedTerm]] = {}
    for name in contexts:
        terms: list[BoundedTerm] = []
        for bound in analysis.bound_symbols[name]:
            closed = solution.get(bound.at_h)
            if closed is None:
                continue
            # The root of the tree sits at upper-region height H - 1.
            shifted = closed.expression.shift(-1)
            from ..recurrence import ClosedForm

            terms.append(BoundedTerm(bound.term, ClosedForm(shifted, closed.valid_from + 1)))
        if terms:
            results[name] = terms
    return results
