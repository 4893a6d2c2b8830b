"""Spans around the public function of each layer, for the traced run.

:func:`install` wraps every function of :data:`LAYER_FUNCTIONS` at every
binding site: the defining module and each ``repro`` module that imported
the function by name (``from ..abstraction import abstract`` binds a second
reference that patching the defining module alone would miss).  A wrapped
call appends one span — name, start, end, parent span, unit id — to the
tracer's in-memory list; nothing is written until the run ends.

A layer's self time is its spans' durations minus the part their child spans
cover.  Spans nest strictly (they follow the call stack), so a span's
covered part is the sum of its direct children's durations.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Any, Callable, Mapping, Optional, Sequence

#: Span name -> the public functions it times, as ``module:qualified name``.
LAYER_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "lang.parse": ("repro.lang.parser:parse_program",),
    "lang.callgraph": ("repro.lang.callgraph:build_call_graph",),
    "lang.fingerprint": ("repro.lang.fingerprint:procedure_fingerprints",),
    "core.component": ("repro.core.chora:analyze_component",),
    "core.height": ("repro.core.height_analysis:run_height_analysis",),
    "core.depth_bound": ("repro.core.depth_bound:compute_depth_bound",),
    "core.two_region": ("repro.core.two_region:run_two_region_analysis",),
    "core.assertion": ("repro.core.assertion:check_assertions",),
    "core.complexity": ("repro.core.complexity:cost_bound",),
    "recurrence.solve": ("repro.recurrence.stratified:StratifiedSystem.solve",),
    "analysis.summarize": ("repro.analysis.intra:summarize_procedure",),
    "abstraction.abstract": (
        "repro.abstraction.symbolic_abstraction:abstract",
        "repro.abstraction.symbolic_abstraction:abstract_many",
        "repro.abstraction.symbolic_abstraction:abstract_cubes",
    ),
    "abstraction.sat": (
        "repro.abstraction.symbolic_abstraction:is_formula_satisfiable",
        "repro.abstraction.symbolic_abstraction:formula_entails",
    ),
    "formulas.dnf": ("repro.formulas.dnf:to_dnf",),
    "polyhedra.fm": ("repro.polyhedra.fourier_motzkin:eliminate",),
    "polyhedra.minimize": ("repro.polyhedra.fourier_motzkin:minimize_constraints",),
    "polyhedra.lp": ("repro.polyhedra.lp:is_satisfiable", "repro.polyhedra.lp:entails"),
    "polyhedra.lp_float": ("repro.polyhedra.lp:maximize",),
    "polyhedra.simplex": (
        "repro.polyhedra.simplex:exact_maximize",
        "repro.polyhedra.simplex:exact_is_satisfiable",
        "repro.polyhedra.simplex:exact_entails",
    ),
    "polyhedra.hull": ("repro.polyhedra.hull:convex_hull", "repro.polyhedra.hull:weak_join"),
}

_WEAK_JOIN_IDLE = (
    "runs only under AbstractionOptions(exact_hull=False); both workloads"
    " analyse with the default exact hull"
)

#: Functions allowed to record zero calls on a workload, with the reason.
#: Every other function of the table must run on both workloads.
MAY_BE_IDLE: dict[str, dict[str, str]] = {
    "paper-cold": {
        "repro.lang.fingerprint:procedure_fingerprints": (
            "only the incremental analyzer fingerprints procedures"
        ),
        "repro.polyhedra.hull:weak_join": _WEAK_JOIN_IDLE,
    },
    "service-edit": {"repro.polyhedra.hull:weak_join": _WEAK_JOIN_IDLE},
}

#: The six memo tables :func:`repro.polyhedra.cache.cache_stats` reports.
MEMO_TABLES = (
    "abstraction.abstract",
    "abstraction.satisfiable",
    "fm.eliminate",
    "fm.minimize",
    "lp.entails",
    "lp.is_satisfiable",
)

#: A span: (name, function, start, end, parent index or -1, unit id).
Span = tuple[str, str, float, float, int, int]


class Tracer:
    """An in-memory span list plus the stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.stack: list[int] = []
        self.unit = 0
        #: Sum of ``len(to_dnf(...))`` over every call: cubes enumerated.
        self.cubes = 0
        #: Binding sites patched per function (module names).
        self.sites: dict[str, list[str]] = {}

    def wrap(self, name: str, label: str, function: Callable) -> Callable:
        spans, stack = self.spans, self.stack
        counts_cubes = name == "formulas.dnf"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
                if counts_cubes:
                    self.cubes += len(result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, label, start, end, parent, self.unit)

        return functools.update_wrapper(traced, function)

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start an empty list.

        Call it between units, when no span is open.
        """
        taken = list(self.spans)
        self.spans.clear()
        return taken


def _resolve(label: str) -> tuple[Any, str, Any]:
    """``module:Qual.name`` -> (owner object, attribute, module)."""
    module_name, qualname = label.split(":")
    module = importlib.import_module(module_name)
    owner = module
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute, module


def install() -> Tracer:
    """Wrap every layer function at every binding site; return the tracer.

    Call it after ``repro`` is imported: only modules already loaded are
    scanned, and a module imported later binds the wrapper from the
    (already patched) defining module anyway.
    """
    tracer = Tracer()
    for name, labels in LAYER_FUNCTIONS.items():
        for label in labels:
            owner, attribute, module = _resolve(label)
            original = getattr(owner, attribute)
            traced = tracer.wrap(name, label, original)
            if owner is not module:
                # A method: the class attribute is its only binding site.
                setattr(owner, attribute, traced)
                tracer.sites[label] = [f"{module.__name__}.{owner.__name__}"]
                continue
            sites = []
            for module_name, loaded in sorted(sys.modules.items()):
                if loaded is None or module_name.split(".")[0] != "repro":
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, traced)
                        sites.append(f"{module_name}.{key}")
            tracer.sites[label] = sites
    return tracer


# ---------------------------------------------------------------------- #
# Aggregation
# ---------------------------------------------------------------------- #
def layer_totals(
    spans: Sequence[Span], factors: Mapping[int, float]
) -> tuple[Counter, Counter, Counter]:
    """Per span name: calls and calibrated self seconds; per function: calls.

    ``spans`` must come from one process (parent indices refer into it);
    ``factors`` maps each unit id to its calibration factor, and spans of
    units without one (the set-up) are left out.
    """
    covered = [0.0] * len(spans)
    for name, label, start, end, parent, unit in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: Counter = Counter()
    functions: Counter = Counter()
    self_s: Counter = Counter()
    for index, (name, label, start, end, parent, unit) in enumerate(spans):
        if unit not in factors:
            continue
        calls[name] += 1
        functions[label] += 1
        self_s[name] += (end - start - covered[index]) * factors[unit]
    return calls, self_s, functions


def memo_delta(before: Mapping[str, Mapping[str, int]], after: Mapping[str, Mapping[str, int]]) -> dict:
    """Per-table hits and misses between two ``cache_stats()`` readings."""
    return {
        table: {
            counter: after.get(table, {}).get(counter, 0) - before.get(table, {}).get(counter, 0)
            for counter in ("hits", "misses")
        }
        for table in MEMO_TABLES
    }


def add_memo(total: dict, delta: Mapping[str, Mapping[str, int]]) -> None:
    for table, counters in delta.items():
        slot = total.setdefault(table, {"hits": 0, "misses": 0})
        slot["hits"] += counters["hits"]
        slot["misses"] += counters["misses"]


#: Span names reported as ``<name>.calls`` and as ``<name>.self_s``.
_CALLS = (
    "lang.parse", "core.component", "recurrence.solve", "analysis.summarize",
    "abstraction.abstract", "abstraction.sat", "formulas.dnf", "polyhedra.fm",
    "polyhedra.lp", "polyhedra.simplex",
)
_SELF_TIMES = (
    "lang.parse", "lang.callgraph", "lang.fingerprint", "core.height",
    "core.depth_bound", "core.two_region", "core.assertion", "core.complexity",
    "recurrence.solve", "analysis.summarize", "abstraction.abstract",
    "formulas.dnf", "polyhedra.fm", "polyhedra.minimize", "polyhedra.lp",
    "polyhedra.simplex", "polyhedra.hull",
)


def layer_metrics(
    calls: Counter, self_s: Counter, cubes: int, memo: Mapping[str, Mapping[str, int]]
) -> dict[str, float]:
    """The per-layer metrics the traced run reports, by metric name."""
    metrics: dict[str, float] = {f"{name}.calls": calls[name] for name in _CALLS}
    metrics.update({f"{name}.self_s": self_s[name] for name in _SELF_TIMES})
    metrics["polyhedra.lp.float_calls"] = calls["polyhedra.lp_float"]
    metrics["formulas.dnf.cubes"] = cubes
    for table in MEMO_TABLES:
        hits, misses = memo[table]["hits"], memo[table]["misses"]
        metrics[f"memo.{table}.hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    return metrics


def idle_functions(workload: str, functions: Mapping[str, int]) -> list[str]:
    """Table functions that recorded no call but must run on ``workload``."""
    allowed = MAY_BE_IDLE[workload]
    return [
        label
        for labels in LAYER_FUNCTIONS.values()
        for label in labels
        if functions.get(label, 0) == 0 and label not in allowed
    ]
