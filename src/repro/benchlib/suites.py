"""A uniform iteration protocol over the paper's benchmark suites.

Every evaluation artefact of the paper — the Table-1 complexity rows, the 17
Figure-3 SV-COMP programs, the Table-2 assertion benchmarks — is exposed here
as a :class:`Suite` of :class:`SuiteEntry` records with a single shape, so
that the batch engine, the ``repro`` CLI, the bench scripts and the examples
all select and execute benchmarks the same way instead of each keeping its
own fast/slow lists.

An entry's ``kind`` names the analysis to run on it (``"complexity"`` for
cost-bound extraction, ``"assertion"`` for assertion checking); entries
flagged ``slow`` are only included when full-bench mode is requested (the
``REPRO_FULL_BENCH=1`` switch, see :mod:`repro.engine.config`).
closest_pair is the slowest row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .complexity_suite import TABLE1_BENCHMARKS
from .new_assertions import TABLE2_BENCHMARKS
from .svcomp_suite import SVCOMP_RECURSIVE_BENCHMARKS

__all__ = [
    "SuiteEntry",
    "Suite",
    "SUITES",
    "get_suite",
    "iter_suite",
    "suite_entry",
    "suite_names",
]

#: Table-1 rows left out of the default run; closest_pair is the slowest
#: row of all.
_TABLE1_SLOW = frozenset({"strassen", "qsort_steps", "closest_pair", "ackermann"})

#: The representative Fig.-3 subset run by default (the full 17-benchmark
#: sweep is gated behind full-bench mode, matching the bench harness).
_FIG3_FAST = frozenset(
    {"Fibonacci01", "RecHanoi02", "RecHanoi03", "Sum02", "Fibonacci02"}
)


@dataclass(frozen=True)
class SuiteEntry:
    """One benchmark program plus everything needed to analyse it."""

    name: str
    source: str
    #: analysis to run: ``"complexity"`` (cost bound) or ``"assertion"``.
    kind: str
    #: the procedure to extract a cost bound from (complexity entries only).
    procedure: Optional[str] = None
    cost_variable: str = "cost"
    #: parameter substitutions applied to the symbolic bound, as sorted pairs
    #: (kept hashable so entries can be used as dict keys / cached on).
    substitutions: tuple[tuple[str, int], ...] = ()
    #: excluded unless full-bench mode is on.
    slow: bool = False
    #: the paper's reported verdicts/bounds for context in reports.
    paper: Mapping[str, object] = field(default_factory=dict, hash=False)


@dataclass(frozen=True)
class Suite:
    """A named collection of benchmark entries (one evaluation artefact)."""

    name: str
    title: str
    entries: tuple[SuiteEntry, ...]

    def iter(self, full: bool = False) -> tuple[SuiteEntry, ...]:
        """The entries to run: all of them in full mode, fast ones otherwise."""
        if full:
            return self.entries
        return tuple(entry for entry in self.entries if not entry.slow)

    def entry(self, name: str) -> SuiteEntry:
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise KeyError(f"no benchmark named {name!r} in suite {self.name!r}")


def _table1() -> Suite:
    entries = tuple(
        SuiteEntry(
            name=spec.name,
            source=spec.source,
            kind="complexity",
            procedure=spec.procedure,
            cost_variable=spec.cost_variable,
            substitutions=tuple(sorted(spec.substitutions.items())),
            slow=spec.name in _TABLE1_SLOW,
            paper={
                "actual": spec.actual,
                "chora": spec.paper_chora,
                "icra": spec.paper_icra,
                "other": spec.paper_other,
            },
        )
        for spec in TABLE1_BENCHMARKS
    )
    return Suite("table1", "Table 1: complexity bounds", entries)


def _fig3() -> Suite:
    entries = tuple(
        SuiteEntry(
            name=spec.name,
            source=spec.source,
            kind="assertion",
            slow=spec.name not in _FIG3_FAST,
            paper={
                "expected_chora": spec.expected_chora,
                "provable_by_unrolling": spec.provable_by_unrolling,
            },
        )
        for spec in SVCOMP_RECURSIVE_BENCHMARKS
    )
    return Suite("fig3", "Figure 3: SV-COMP recursive assertions", entries)


def _table2() -> Suite:
    entries = tuple(
        SuiteEntry(
            name=spec.name,
            source=spec.source,
            kind="assertion",
            paper={
                "verdicts": dict(spec.paper_verdicts),
                "times": dict(spec.paper_times),
            },
        )
        for spec in TABLE2_BENCHMARKS
    )
    return Suite("table2", "Table 2: assertion checking", entries)


SUITES: dict[str, Suite] = {
    suite.name: suite for suite in (_table1(), _fig3(), _table2())
}


def suite_names() -> tuple[str, ...]:
    return tuple(SUITES)


def get_suite(name: str) -> Suite:
    try:
        return SUITES[name]
    except KeyError:
        known = ", ".join(sorted(SUITES))
        raise KeyError(f"unknown suite {name!r} (known: {known})") from None


def iter_suite(name: str, full: bool = False) -> tuple[SuiteEntry, ...]:
    """The entries of suite ``name`` that should run (respecting ``full``)."""
    return get_suite(name).iter(full)


def suite_entry(suite: str, name: str) -> SuiteEntry:
    """Look up one benchmark entry by suite and benchmark name."""
    return get_suite(suite).entry(name)
