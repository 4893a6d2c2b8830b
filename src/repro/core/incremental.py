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

The store is also **persistable**: :meth:`IncrementalAnalyzer.save_store`
serializes the component records into one atomic entry of a
:class:`~repro.engine.storage.CacheStorage` (the service uses the result
cache's ``incremental`` namespace) and :meth:`IncrementalAnalyzer.load_store`
absorbs it back, so a restarted ``repro serve`` answers its first repeated
request by splicing every component instead of starting cold.  Persistence
mirrors the polyhedral memo snapshot (PR 4): the blob is guarded by a
caller-supplied fingerprint (the engine passes its code fingerprint — stale
analysis code reads as a cold start), written atomically with merge-on-save
semantics, and unpickled through the restricted loader of
:mod:`repro.polyhedra.cache` so a crafted blob in a shared cache directory
cannot execute code.  Loading also advances the process's fresh-symbol
counter past every index the saving process used, so newly minted auxiliary
symbols can never collide with symbols inside restored summaries.
"""

from __future__ import annotations

import pickle

import sympy

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..analysis import ProcedureContext
from ..formulas import TransitionFormula
from ..formulas.symbols import advance_fresh_counter, fresh_counter
from ..lang import ast, build_call_graph
from ..lang.fingerprint import procedure_fingerprints
from ..polyhedra.cache import restricted_loads
from .chora import AnalysisResult, ChoraOptions, analyze_component
from .height_analysis import HeightAnalysis
from .missing_base import transform_missing_base_cases
from .summaries import ProcedureSummary

if TYPE_CHECKING:  # pragma: no cover - layering: engine imports core
    from ..engine.storage import CacheStorage

__all__ = ["IncrementalAnalyzer", "IncrementalReport", "store_stats"]

#: Default number of cached components (a few hundred programs' worth).
DEFAULT_COMPONENT_CAPACITY = 2048

#: Entry name of the persisted component store inside its storage namespace.
STORE_NAME = "incremental-summaries"

#: Bump on incompatible changes to the pickled store layout.  Schema 3:
#: symbols and monomials pickle as their constructor arguments only.
STORE_SCHEMA = 3

#: The class vocabulary a persisted component store may reference.  Component
#: records are procedure summaries and height analyses: formula trees over
#: polynomials and symbols, closed-form bounds (whose coefficients are sympy
#: expression trees), and the auxiliary dataclasses of the height analysis.
#: The sympy classes are enumerated individually — never by module prefix,
#: which would hand pickle's REDUCE opcode eval-style callables like
#: ``sympy.sympify`` — and each was checked to construct safely from
#: attacker-chosen arguments (``Add``/``Mul``/``Pow`` sympify strictly,
#: ``Symbol``/``Integer``/``Rational`` parse without evaluating; ``log``,
#: whose ``Function.__new__`` *does* evaluate string arguments, goes
#: through the guarded stand-in below instead).  Anything else — the
#: classic ``os.system`` reduce — fails to resolve and the store reads as
#: a cold start; :meth:`IncrementalAnalyzer.save_store` refuses to write a
#: blob this vocabulary cannot load back.
_STORE_ALLOWED_CLASSES = {
    ("builtins", "frozenset"),
    ("builtins", "set"),
    ("fractions", "Fraction"),
    ("repro.abstraction.symbolic_abstraction", "Inequation"),
    ("repro.core.height_analysis", "BoundSymbols"),
    ("repro.core.height_analysis", "HeightAnalysis"),
    ("repro.core.summaries", "BoundedTerm"),
    ("repro.core.summaries", "DepthBound"),
    ("repro.core.summaries", "ProcedureSummary"),
    ("repro.formulas.formula", "And"),
    ("repro.formulas.formula", "Atom"),
    ("repro.formulas.formula", "AtomKind"),
    ("repro.formulas.formula", "Exists"),
    ("repro.formulas.formula", "FalseFormula"),
    ("repro.formulas.formula", "Or"),
    ("repro.formulas.formula", "TrueFormula"),
    ("repro.formulas.polynomial", "Monomial"),
    ("repro.formulas.polynomial", "Polynomial"),
    ("repro.formulas.symbols", "Symbol"),
    ("repro.formulas.transition", "TransitionFormula"),
    ("repro.recurrence.cfinite", "ClosedForm"),
    ("repro.recurrence.exppoly", "ExpPoly"),
    ("sympy.core.add", "Add"),
    ("sympy.core.mul", "Mul"),
    ("sympy.core.numbers", "Half"),
    ("sympy.core.numbers", "Integer"),
    ("sympy.core.numbers", "NegativeOne"),
    ("sympy.core.numbers", "One"),
    ("sympy.core.numbers", "Rational"),
    ("sympy.core.numbers", "Zero"),
    ("sympy.core.power", "Pow"),
    ("sympy.core.symbol", "Symbol"),
}


class _GuardedLog(sympy.log):
    """A pickle stand-in for ``sympy.log`` that refuses non-sympy arguments.

    ``Function.__new__`` sympifies its arguments *non-strictly*, which
    evaluates strings as Python — so allowing the real ``log`` class would
    let a crafted REDUCE/NEWOBJ op execute code.  Legitimate blobs only
    ever apply ``log`` to already-unpickled sympy expressions; anything
    else is an attack and fails the load.
    """

    def __new__(cls, *args, **kwargs):
        if not all(isinstance(arg, sympy.Basic) for arg in args):
            raise pickle.UnpicklingError(
                "log arguments in a snapshot must be sympy expressions"
            )
        return sympy.log.__new__(sympy.log, *args, **kwargs)


class _GuardedMax(sympy.Max):
    """A pickle stand-in for ``sympy.Max`` (clamped depth bounds).

    Like ``log``, ``Max.__new__`` sympifies its arguments non-strictly, so
    string arguments would be evaluated; restrict it to already-unpickled
    sympy expressions.
    """

    def __new__(cls, *args, **kwargs):
        if not all(isinstance(arg, sympy.Basic) for arg in args):
            raise pickle.UnpicklingError(
                "Max arguments in a snapshot must be sympy expressions"
            )
        return sympy.Max.__new__(sympy.Max, *args, **kwargs)


_STORE_OVERRIDES = {
    ("sympy.functions.elementary.exponential", "log"): _GuardedLog,
    ("sympy.functions.elementary.miscellaneous", "Max"): _GuardedMax,
}


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

    # ------------------------------------------------------------------ #
    # Persistence (CacheStorage-backed, mirroring the polyhedra memo
    # snapshot: fingerprint-guarded, merge-on-save, restricted unpickling)
    # ------------------------------------------------------------------ #
    def save_store(self, storage: "CacheStorage", fingerprint: str) -> int:
        """Persist the component store into ``storage``; returns components.

        An existing store with the same fingerprint is merged in first:
        component records are pure functions of their keys, so merged
        content is always consistent, and this analyzer's records win on
        overlap.  (The read-merge-write itself is last-writer-wins between
        *separate* pools sharing one cache directory — a pool's own workers
        stop sequentially — so a concurrent save can drop the other pool's
        components from the persisted copy; that costs a future warm start,
        never correctness.)  The persisted store is bounded by
        :attr:`capacity`, keeping the most recently contributed components,
        so a long-lived shared directory cannot grow the blob — and every
        future start-up's deserialization — without limit.  The saved
        fresh-symbol high-water mark is the max over every contributor, so
        any loader stays collision-free.  Write failures are swallowed — a
        broken store must never sink an analysis run — and reported as 0.
        """
        if not self._store:
            # Nothing to persist (e.g. a worker that only served cache
            # hits): don't replace a useful store with an empty one.
            return 0
        merged_payload = _load_store_payload(storage, fingerprint)
        components = {
            key: (record.summaries, record.height_analyses)
            for key, record in merged_payload.get("components", ())
        }
        for key, record in self._store.items():
            # Re-insert so this analyzer's records count as the newest.
            components.pop(key, None)
            components[key] = (record.summaries, record.height_analyses)
        if len(components) > self.capacity:
            components = dict(list(components.items())[-self.capacity :])
        payload = {
            "schema": STORE_SCHEMA,
            "fingerprint": fingerprint,
            "fresh_counter": max(
                fresh_counter(), int(merged_payload.get("fresh_counter", 0) or 0)
            ),
            "components": list(components.items()),
        }
        try:
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
            # Refuse to write a blob the restricted vocabulary cannot load
            # back (a summary embedding an unenumerated sympy class would
            # otherwise clobber a previously *loadable* store with one that
            # every future start-up rejects wholesale).
            restricted_loads(data, _STORE_ALLOWED_CLASSES, _STORE_OVERRIDES)
            storage.write(STORE_NAME, data)
        except Exception:
            return 0
        return len(components)

    def load_store(self, storage: "CacheStorage", fingerprint: str) -> int:
        """Absorb a persisted component store; returns components loaded.

        Components already present locally are kept (they are at least as
        fresh), absorption stops at :attr:`capacity` instead of evicting,
        and a store written under a different fingerprint — different
        analysis code — is ignored.  The fresh-symbol counter is advanced
        past the saving process's high-water mark before any record is
        installed.
        """
        payload = _load_store_payload(storage, fingerprint)
        components = payload.get("components") or []
        if not components:
            return 0
        advance_fresh_counter(payload.get("fresh_counter", 0))
        loaded = 0
        for key, record in components:
            if len(self._store) >= self.capacity:
                break
            if key in self._store:
                continue
            self._store[key] = record
            loaded += 1
        return loaded


def _load_store_payload(storage: "CacheStorage", fingerprint: str) -> dict:
    """The persisted store payload, or ``{}`` when absent/stale/corrupt.

    The result is *sanitized*, not just unpickled: ``components`` is a list
    of ``(hashable key, _ComponentRecord)`` pairs and ``fresh_counter`` an
    ``int``, with every malformed entry dropped.  A blob that unpickles
    under the restricted vocabulary but carries broken field shapes must
    degrade to a (partial) cold start, never raise — a worker loads the
    store before its ready handshake, and an exception there would crash
    every worker of a restarted service until the store is cleared.
    """
    try:
        data = storage.read(STORE_NAME)
    except Exception:
        return {}
    if data is None:
        return {}
    try:
        payload = restricted_loads(data, _STORE_ALLOWED_CLASSES, _STORE_OVERRIDES)
    except Exception:
        # Truncated blob, incompatible pickle, or a class outside the
        # allowed vocabulary: treat as a cold start.
        return {}
    if not isinstance(payload, dict):
        return {}
    if payload.get("schema") != STORE_SCHEMA:
        return {}
    if payload.get("fingerprint") != fingerprint:
        return {}
    components = payload.get("components")
    cleaned: list[tuple] = []
    if isinstance(components, (list, tuple)):
        for entry in components:
            try:
                key, (summaries, height_analyses) = entry
                hash(key)
                cleaned.append(
                    (
                        key,
                        _ComponentRecord(
                            summaries=dict(summaries),
                            height_analyses=dict(height_analyses),
                        ),
                    )
                )
            except Exception:
                continue
    try:
        counter = int(payload.get("fresh_counter", 0) or 0)
    except Exception:
        counter = 0
    return {
        "schema": STORE_SCHEMA,
        "fingerprint": fingerprint,
        "fresh_counter": counter,
        "components": cleaned,
    }


def store_stats(storage: "CacheStorage", fingerprint: str) -> dict[str, Any]:
    """A JSON-ready description of the persisted store (for cache stats)."""
    try:
        size = storage.size_of(STORE_NAME)
    except Exception:
        size = 0
    payload = _load_store_payload(storage, fingerprint) if size else {}
    components = payload.get("components") or []
    return {
        "present": size > 0,
        "bytes": size,
        "components": len(components),
        "procedures": sum(len(record.summaries) for _, record in components),
    }
