"""Incremental re-analysis: re-summarize only what an edit could change.

:func:`~repro.core.chora.analyze_program` processes the call-graph SCCs of a
program in topological order, each component depending only on its callees'
summaries.  That structure makes the analysis incremental for free once each
component is content-addressed: :class:`IncrementalAnalyzer` keys every SCC
by its members' :mod:`~repro.lang.fingerprint` digests (body hash + callees'
hashes, i.e. the whole dependency cone) and keeps the resulting
:class:`~repro.core.summaries.ProcedureSummary` objects in a bounded
in-process store.  Re-analyzing an edited program then re-runs exactly the
SCCs whose fingerprints changed — the edited procedures and their transitive
callers — and splices the cached summaries for everything else.

This is the warm path of the analysis service
(:mod:`repro.service`): a long-lived worker that has analysed a program once
answers a request for a lightly edited version in the time of the edited
cone alone, and answers a repeated request by splicing every component.

Summaries are reused by reference, which is sound because summaries and the
transition formulas inside them are immutable: downstream components only
compose and join them into new formulas.

The store lives exactly as long as the analyzer that fills it: nothing is
written to disk, so a restarted service analyses each program's components
cold once and reuses them from then on.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from ..analysis import ProcedureContext
from ..formulas import TransitionFormula
from ..lang import ast, build_call_graph
from ..lang.fingerprint import procedure_fingerprints
from .chora import AnalysisResult, ChoraOptions, analyze_component
from .height_analysis import HeightAnalysis
from .missing_base import transform_missing_base_cases
from .summaries import ProcedureSummary

__all__ = ["IncrementalAnalyzer", "IncrementalReport"]

#: Default number of cached components (a few hundred programs' worth).
DEFAULT_COMPONENT_CAPACITY = 2048


@dataclass(frozen=True)
class IncrementalReport:
    """Which procedures the last :meth:`IncrementalAnalyzer.analyze` ran."""

    analyzed: tuple[str, ...] = ()
    reused: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {"analyzed": list(self.analyzed), "reused": list(self.reused)}


@dataclass
class _ComponentRecord:
    """The cached outcome of analysing one call-graph SCC."""

    summaries: dict[str, ProcedureSummary]
    height_analyses: dict[str, HeightAnalysis] = field(default_factory=dict)


class IncrementalAnalyzer:
    """A stateful :func:`analyze_program` that reuses unchanged components.

    Instances are *not* thread-safe; the analysis service keeps one per
    worker process.  Results are indistinguishable from a fresh
    :func:`~repro.core.chora.analyze_program` run up to the numbering of
    fresh auxiliary symbols (which differs between any two runs and carries
    no meaning).
    """

    def __init__(self, capacity: int = DEFAULT_COMPONENT_CAPACITY):
        self.capacity = max(1, int(capacity))
        self._store: OrderedDict[tuple, _ComponentRecord] = OrderedDict()
        self.last_report = IncrementalReport()

    # ------------------------------------------------------------------ #
    def analyze(
        self, program: ast.Program, options: ChoraOptions = ChoraOptions()
    ) -> AnalysisResult:
        """Analyse ``program``, splicing cached summaries where possible.

        Drop-in compatible with :func:`~repro.core.chora.analyze_program`;
        :attr:`last_report` records which procedures were actually re-run.
        """
        if options.transform_missing_base:
            # Fingerprints are taken over the transformed program: the
            # transformation is itself a pure function of the source, and
            # it is what the analysis actually sees.
            program = transform_missing_base_cases(program)
        fingerprints = procedure_fingerprints(program)
        procedures = {p.name: p for p in program.procedures}
        contexts = {
            name: ProcedureContext.of(procedure, program.global_names)
            for name, procedure in procedures.items()
        }
        graph = build_call_graph(program)
        components = graph.strongly_connected_components()
        options_print = options.fingerprint()

        def component_key(component: list[str]) -> tuple:
            return (options_print, tuple(fingerprints[name] for name in component))

        result = AnalysisResult(program, {}, contexts, graph)
        external: dict[str, TransitionFormula] = {}
        analyzed: list[str] = []
        reused: list[str] = []

        for component in components:
            key = component_key(component)
            record = self._store.get(key)
            if record is not None:
                self._store.move_to_end(key)
                self._splice(record, component, result, external)
                reused.extend(component)
                continue
            analyze_component(
                component, graph, contexts, procedures, external, result, options
            )
            self._remember(key, component, result)
            analyzed.extend(component)

        self.last_report = IncrementalReport(tuple(analyzed), tuple(reused))
        return result

    # ------------------------------------------------------------------ #
    @staticmethod
    def _splice(
        record: _ComponentRecord,
        component: list[str],
        result: AnalysisResult,
        external: dict[str, TransitionFormula],
    ) -> None:
        for name in component:
            summary = record.summaries[name]
            result.summaries[name] = summary
            # Reconstruct the call interpretation exactly as analyze_program
            # publishes it (recursive summaries instantiate fresh height and
            # exponential symbols on every use).
            external[name] = (
                summary.instantiate(None) if summary.is_recursive else summary.transition
            )
        result.height_analyses.update(record.height_analyses)

    def _remember(
        self, key: tuple, component: list[str], result: AnalysisResult
    ) -> None:
        record = _ComponentRecord(
            summaries={name: result.summaries[name] for name in component},
            height_analyses={
                name: result.height_analyses[name]
                for name in component
                if name in result.height_analyses
            },
        )
        self._store[key] = record
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)

    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """Store size and the last run's analyse/reuse split."""
        return {
            "components": len(self._store),
            "capacity": self.capacity,
            "last": self.last_report.to_dict(),
        }

    def clear(self) -> None:
        self._store.clear()
        self.last_report = IncrementalReport()
