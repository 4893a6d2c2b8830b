"""The top-level CHORA analysis driver.

``analyze_program`` computes a :class:`~repro.core.summaries.ProcedureSummary`
for every procedure of a program, following §4: the strongly connected
components of the call graph are processed in topological order; non-recursive
components are summarized intraprocedurally (compositional recurrence
analysis), recursive components go through height-based recurrence analysis
(Alg. 2 + Alg. 3 + recurrence solving), the depth-bound analysis of §4.2, and
— optionally — the two-region refinement of §4.3.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..abstraction import AbstractionOptions
from ..analysis import ProcedureContext, summarize_procedure
from ..formulas import TransitionFormula
from ..lang import ast
from ..lang.callgraph import CallGraph, build_call_graph
from ..recurrence import RecurrenceSolvingError
from .depth_bound import compute_depth_bound
from .height_analysis import HeightAnalysis, run_height_analysis
from .missing_base import transform_missing_base_cases
from .stratify import build_stratified_system
from .summaries import BoundedTerm, ProcedureSummary
from .two_region import run_two_region_analysis

__all__ = [
    "ChoraOptions",
    "AnalysisResult",
    "analyze_program",
    "analyze_component",
]


@dataclass(frozen=True)
class ChoraOptions:
    """Configuration of the end-to-end analysis (used by ablation benchmarks)."""

    abstraction: AbstractionOptions = AbstractionOptions()
    #: Run the literal Alg. 4 depth model (in addition to the closed-form
    #: descent bound).  Disabling it loses the polyhedral ``zeta`` conjuncts.
    use_alg4_depth: bool = True
    #: Run the §4.3 two-region refinement when the depth bound is exact.
    use_two_region: bool = True
    #: Apply the §4.5 missing-base-case transformation when needed.
    transform_missing_base: bool = True

    def to_dict(self) -> dict[str, Any]:
        """A plain, JSON-serializable view of the options (nested dataclasses
        included) — the representation the batch engine's result cache keys on."""
        return dataclasses.asdict(self)

    def fingerprint(self) -> str:
        """A canonical string identifying this configuration.

        Two option values have equal fingerprints iff they request the same
        analysis, so the fingerprint is safe to use in cache keys.
        """
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


@dataclass
class AnalysisResult:
    """The outcome of analysing a whole program."""

    program: ast.Program
    summaries: dict[str, ProcedureSummary]
    contexts: dict[str, ProcedureContext]
    call_graph: CallGraph
    height_analyses: dict[str, HeightAnalysis] = field(default_factory=dict)

    def summary(self, name: str) -> ProcedureSummary:
        return self.summaries[name]

    def procedures(self) -> dict[str, ast.Procedure]:
        return {p.name: p for p in self.program.procedures}


def analyze_program(
    program: ast.Program, options: ChoraOptions = ChoraOptions()
) -> AnalysisResult:
    """Analyse every procedure of ``program`` (CHORA's main entry point)."""
    if options.transform_missing_base:
        program = transform_missing_base_cases(program)
    procedures = {p.name: p for p in program.procedures}
    contexts = {
        name: ProcedureContext.of(procedure, program.global_names)
        for name, procedure in procedures.items()
    }
    graph = build_call_graph(program)
    result = AnalysisResult(program, {}, contexts, graph)

    #: Transition formulas used to interpret calls to already-analysed procedures.
    external: dict[str, TransitionFormula] = {}

    for component in graph.strongly_connected_components():
        analyze_component(
            component, graph, contexts, procedures, external, result, options
        )
    return result


def analyze_component(
    component: list[str],
    graph: CallGraph,
    contexts: Mapping[str, ProcedureContext],
    procedures: Mapping[str, ast.Procedure],
    external: dict[str, TransitionFormula],
    result: AnalysisResult,
    options: ChoraOptions,
) -> None:
    """Summarize one call-graph SCC, given its callees' ``external`` formulas.

    This is the unit step of :func:`analyze_program`'s topological pass; it
    is exposed so :class:`repro.core.incremental.IncrementalAnalyzer` can
    re-run exactly the components whose fingerprints changed.  On return the
    component's summaries are recorded in ``result`` and its procedures'
    call interpretations added to ``external``.
    """
    if not graph.is_recursive(component):
        name = component[0]
        transition = summarize_procedure(
            contexts[name], {}, external, procedures, options.abstraction
        )
        summary = ProcedureSummary(
            name,
            contexts[name].summary_variables,
            transition,
            is_recursive=False,
        )
        result.summaries[name] = summary
        external[name] = transition
        return
    _analyze_recursive_component(
        component, contexts, procedures, external, result, options
    )


def _analyze_recursive_component(
    component: list[str],
    contexts: Mapping[str, ProcedureContext],
    procedures: Mapping[str, ast.Procedure],
    external: dict[str, TransitionFormula],
    result: AnalysisResult,
    options: ChoraOptions,
) -> None:
    scc_contexts = {name: contexts[name] for name in component}
    analysis = run_height_analysis(
        scc_contexts, external, procedures, options.abstraction
    )
    for name in component:
        result.height_analyses[name] = analysis

    all_bounds = [b for name in component for b in analysis.bound_symbols[name]]
    system = build_stratified_system(analysis.candidate_inequations, all_bounds)
    try:
        solution = system.solve()
    except RecurrenceSolvingError:
        solution = {}

    # Optional §4.3 refinement: additional bounding functions obtained by
    # analysing the upper region of the recursion tree (allows decreasing
    # bounds, hence non-trivial lower bounds on program quantities).
    two_region_bounds: dict[str, list[BoundedTerm]] = {}
    if options.use_two_region:
        try:
            two_region_bounds = run_two_region_analysis(
                scc_contexts, analysis, external, procedures, options.abstraction
            )
        except RecurrenceSolvingError:
            two_region_bounds = {}

    for name in component:
        context = contexts[name]
        bounded_terms: list[BoundedTerm] = []
        for bound in analysis.bound_symbols[name]:
            closed = solution.get(bound.at_h)
            if closed is not None:
                bounded_terms.append(BoundedTerm(bound.term, closed))
        depth = compute_depth_bound(
            name,
            scc_contexts,
            analysis.base_summaries,
            external,
            procedures,
            options.abstraction,
            use_alg4=options.use_alg4_depth,
        )
        extra = two_region_bounds.get(name, [])
        if extra and depth.symbolic_exact:
            bounded_terms.extend(extra)
        summary = ProcedureSummary(
            name,
            context.summary_variables,
            TransitionFormula.havoc(context.summary_variables),
            tuple(bounded_terms),
            depth,
            is_recursive=True,
        )
        result.summaries[name] = summary
        external[name] = summary.instantiate(None)
