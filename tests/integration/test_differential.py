"""Differential tests: CHORA against the baseline analysers, row by row.

The paper's evaluation story is *relative*: CHORA proves assertions and finds
bounds that bounded unrolling (Fig. 3's unrolling-capable tools) and ICRA
(Table 1) cannot.  These tests re-run both sides of that comparison through
the engine's task registry and pin the relationship down:

* where the paper claims CHORA dominance and this reproduction achieves it,
  CHORA must never become *less* precise than the baseline ("a baseline
  proves it but CHORA does not" is a regression, not a quirk);
* the per-row verdicts of both tools are asserted exactly (fixed seeds,
  fixed unrolling depths — any flip is a precision change that must be
  reviewed, which is the point of a differential suite).

Slow rows carry the repository's ``slow`` marker and run in CI's slow job.
"""

import dataclasses

import pytest
import sympy
from sympy.parsing.sympy_parser import (
    convert_xor,
    implicit_multiplication,
    parse_expr,
    standard_transformations,
)

from repro.benchlib.suites import get_suite
from repro.core import ChoraOptions
from repro.engine import AnalysisTask, execute_task, full_bench_enabled

#: Unrolling depths used for the baseline comparisons.  Chosen small enough
#: for the default test job; verdicts below are pinned at these depths.
UNROLL_DEPTH = {"table2": 3, "fig3": 4}

#: Table 1 rows where ICRA reports no bound (``n.b.``, or the ``O(1)`` of a
#: cost it cannot see grow), as in the paper's ICRA column.
ICRA_FINDS_NO_BOUND = {"fibonacci", "hanoi", "subset_sum", "mergesort"}

#: Known gaps of this reproduction versus the paper's Table 2: the paper's
#: CHORA proves ``quad`` but this reproduction does not (recorded since the
#: seed), so ``quad`` is exempt from the dominance assertion.
KNOWN_GAPS = {"quad"}

_NEVER_PROVED = (
    "precision gap: expected_chora is true, but this reproduction has never"
    " proved the assertion"
)

#: Slow rows whose check fails because this reproduction falls short of the
#: paper.  Each is a strict xfail naming its gap, so the row still runs
#: under REPRO_FULL_BENCH=1 and its test fails once the gap closes.
BELOW_PAPER = {
    ("fig3", "MultCommutative"): _NEVER_PROVED,
    ("fig3", "EvenOdd01"): _NEVER_PROVED,
    ("fig3", "Primes01"): _NEVER_PROVED,
    ("fig3", "RecHanoi01"): _NEVER_PROVED,
    ("table1", "strassen"): (
        "precision gap: n.b. against the paper's O(n^log2(7)); the summary of"
        " matrixAdd has no upper bound on cost', so the work per level never"
        " enters the recurrence"
    ),
}


def run_tool(suite: str, name: str, kind: str, **params):
    entry = get_suite(suite).entry(name)
    task = AnalysisTask.from_entry(entry, suite=suite)
    if kind != entry.kind or params:
        task = dataclasses.replace(
            task, kind=kind, params=tuple(sorted(params.items()))
        )
    return execute_task(task, ChoraOptions())


def row_params(suite: str):
    for entry in get_suite(suite).entries:
        marks = []
        if entry.slow:
            # Slow rows (closest_pair is the slowest of them) carry the
            # repository's slow marker and — like every other consumer of
            # these rows (the bench harness, `repro bench`) — only run in
            # full-bench mode.
            marks = [
                pytest.mark.slow,
                pytest.mark.skipif(
                    not full_bench_enabled(),
                    reason="slow benchmark row; set REPRO_FULL_BENCH=1",
                ),
            ]
        gap = BELOW_PAPER.get((suite, entry.name))
        if gap is not None:
            marks.append(pytest.mark.xfail(strict=True, reason=gap))
        yield pytest.param(entry.name, marks=marks)


_BOUND_SYNTAX = standard_transformations + (implicit_multiplication, convert_xor)


def _bound_expression(bound):
    """The argument of ``O(...)`` as a sympy expression; other text as is."""
    text = (bound or "").strip()
    if not (text.startswith("O(") and text.endswith(")")):
        return text
    return parse_expr(
        text[2:-1],
        local_dict={"log2": lambda x: sympy.log(x, 2)},
        transformations=_BOUND_SYNTAX,
    )


def same_bound(left, right) -> bool:
    """Whether two Table-1 bounds name the same ``O(...)`` expression.

    ``^`` is power, ``log2(x)`` is ``log(x, 2)`` and juxtaposition is
    multiplication, so factor order and spelling do not matter
    (``O(2^n*n)`` is ``O(n*2^n)``); a bound that is not ``O(...)``, such
    as ``n.b.``, equals only the same text.
    """
    left, right = _bound_expression(left), _bound_expression(right)
    if isinstance(left, str) or isinstance(right, str):
        return type(left) is type(right) and left == right
    return sympy.simplify(left - right) == 0


def assert_dominance(name: str, chora_proved: bool, baseline_proved: bool):
    """CHORA may not be strictly less precise than a baseline on a row where
    the paper claims dominance (modulo the documented reproduction gaps)."""
    if name in KNOWN_GAPS:
        return
    assert chora_proved or not baseline_proved, (
        f"{name}: the baseline proves this assertion but CHORA does not"
    )


class TestTable2VersusUnrolling:
    #: This reproduction's reference verdicts (paper's CHORA also proves
    #: quad; that gap predates this test and is listed in KNOWN_GAPS).
    CHORA_VERDICTS = {"quad": False, "pow2_overflow": True, "height": True}

    @pytest.mark.parametrize("name", list(row_params("table2")))
    def test_chora_never_less_precise(self, name):
        chora = run_tool("table2", name, "assertion")["proved"]
        unrolling = run_tool(
            "table2", name, "assertion-unrolling", depth=UNROLL_DEPTH["table2"]
        )["proved"]
        assert chora == self.CHORA_VERDICTS[name]
        assert_dominance(name, chora, unrolling)
        if name == "height":
            # The paper's flagship row: unbounded recursion with a symbolic
            # argument, provable by the height-indexed recurrence analysis
            # but not by bounded unrolling.
            assert chora and not unrolling
        if name == "quad":
            # quad takes a symbolic argument too: no unrolling depth proves it.
            assert not unrolling


class TestFig3VersusUnrolling:
    @pytest.mark.parametrize("name", list(row_params("fig3")))
    def test_chora_matches_expectation_and_dominates(self, name):
        entry = get_suite("fig3").entry(name)
        chora = run_tool("fig3", name, "assertion")["proved"]
        assert chora == entry.paper["expected_chora"], (
            f"{name}: CHORA verdict changed vs. the recorded expectation"
        )
        if entry.slow:
            # The CHORA expectation above is the expensive, valuable part;
            # the unrolling comparison adds little on the slow rows.
            return
        unrolling = run_tool(
            "fig3", name, "assertion-unrolling", depth=UNROLL_DEPTH["fig3"]
        )["proved"]
        if entry.paper["expected_chora"]:
            assert_dominance(name, chora, unrolling)

    @pytest.mark.parametrize("name", ["Sum03", "recursive_loop"])
    def test_deep_unrolling_proves_concrete_input_rows(self, name):
        """Concrete-input, linearly recursive tasks are exactly the
        "provable by unrolling" kind the paper mentions: depth 12 proves
        them."""
        assert run_tool("fig3", name, "assertion-unrolling", depth=12)["proved"]


class TestTable1VersusIcra:
    @pytest.mark.parametrize("name", list(row_params("table1")))
    def test_chora_bound_beats_icra(self, name):
        entry = get_suite("table1").entry(name)
        chora = run_tool("table1", name, "complexity")
        icra = run_tool("table1", name, "complexity-icra")
        # CHORA reproduces the paper's Table-1 bound on every row.
        assert same_bound(chora["bound"], entry.paper["chora"]), (
            f"{name}: CHORA bound {chora['bound']!r} != paper {entry.paper['chora']!r}"
        )
        # ICRA must never out-perform CHORA: on rows where ICRA finds no
        # bound ("n.b."), that is exactly the paper's dominance claim; on
        # rows where it does, CHORA must have found one too.
        if icra["found"]:
            assert chora["found"], (
                f"{name}: ICRA found a bound but CHORA did not"
            )
        if name in ICRA_FINDS_NO_BOUND:
            # ICRA's Kleene fallback finds no exponential (or n log n) cost
            # bound for these non-linearly recursive programs: the paper's
            # "n.b." column.
            assert icra["bound"] in ("n.b.", "O(1)"), (
                f"{name}: ICRA found {icra['bound']!r}"
            )


class TestSameBound:
    @pytest.mark.parametrize(
        "left, right, equal",
        [
            ("O(2^n*n)", "O(n*2^n)", True),
            ("O(n*log(n))", "O(n log(n))", True),
            ("O(2^n)", "O(3^n)", False),
            ("O(n)", "O(n log(n))", False),
            ("n.b.", "O(n^log2(7))", False),
            ("n.b.", "n.b.", True),
        ],
    )
    def test_bounds_compare_as_expressions(self, left, right, equal):
        assert same_bound(left, right) is equal
        assert same_bound(right, left) is equal
