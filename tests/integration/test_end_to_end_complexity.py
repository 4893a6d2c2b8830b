"""End-to-end tests for the complexity pipeline (Table 1 fast rows).

Each test parses a benchmark program, runs the full CHORA analysis, checks
the asymptotic classification against the paper's Table 1, and cross-checks
*soundness* of the symbolic bound against concrete executions of the program
(the interpreter is the ground-truth oracle).
"""

import random

import sympy
import pytest

from repro.abstraction import AbstractionOptions
from repro.benchlib import benchmark_by_name
from repro.core import ChoraOptions, analyze_program, cost_bound
from repro.engine import full_bench_enabled
from repro.lang import Interpreter, parse_program

# Each analysis here takes seconds; CI runs these as a separate parallel job.
pytestmark = pytest.mark.slow


def analyse(name, options=ChoraOptions()):
    spec = benchmark_by_name(name)
    program = parse_program(spec.source)
    result = analyze_program(program, options)
    bound = cost_bound(
        result, spec.procedure, spec.cost_variable, substitutions=spec.substitutions
    )
    return spec, program, bound


class TestClassifications:
    def test_hanoi_is_exponential(self):
        _, _, bound = analyse("hanoi")
        assert bound.asymptotic == "O(2^n)"

    def test_fibonacci_is_exponential(self):
        _, _, bound = analyse("fibonacci")
        assert bound.asymptotic == "O(2^n)"

    def test_subset_sum_is_exponential(self):
        _, _, bound = analyse("subset_sum")
        assert bound.asymptotic == "O(2^n)"

    def test_bst_copy_is_exponential(self):
        _, _, bound = analyse("bst_copy")
        assert bound.asymptotic == "O(2^n)"

    def test_ball_bins3_is_three_to_the_n(self):
        _, _, bound = analyse("ball_bins3")
        assert bound.asymptotic == "O(3^n)"

    def test_mergesort_is_n_log_n(self):
        _, _, bound = analyse("mergesort")
        assert bound.asymptotic == "O(n*log(n))"

    def test_karatsuba_matches_paper_exponent(self):
        _, _, bound = analyse("karatsuba")
        assert bound.asymptotic == "O(n^log2(3))"


class TestAblations:
    """hanoi's bound with the paper's mechanisms switched off one at a time.

    Neither two-region analysis (§4.3) nor the Alg. 4 depth model (§4.2) is
    needed for hanoi's O(2^n); the weak join in place of the exact hull is
    sound, and may lose the bound.  With every mechanism on, the bound is
    ``TestClassifications.test_hanoi_is_exponential``.
    """

    @pytest.mark.parametrize(
        "options, bounds",
        [
            pytest.param(
                ChoraOptions(use_two_region=False), {"O(2^n)"}, id="two-region-off"
            ),
            pytest.param(
                ChoraOptions(use_alg4_depth=False), {"O(2^n)"}, id="alg4-depth-off"
            ),
            pytest.param(
                ChoraOptions(abstraction=AbstractionOptions(exact_hull=False)),
                {"O(2^n)", "n.b."},
                id="weak-join",
            ),
        ],
    )
    def test_hanoi_bound_under_ablation(self, options, bounds):
        _, _, bound = analyse("hanoi", options)
        assert bound.asymptotic in bounds


class TestSoundnessAgainstInterpreter:
    @pytest.mark.parametrize("name,args", [
        ("hanoi", lambda n: [n, 1, 3, 2]),
        ("ball_bins3", lambda n: [n]),
        ("bst_copy", lambda n: [n]),
        ("fibonacci", lambda n: [n]),
    ])
    def test_cost_bound_covers_concrete_runs(self, name, args):
        spec, program, bound = analyse(name)
        assert bound.found
        n = sympy.Symbol("n", positive=True)
        depth_symbol = sympy.Symbol("depth", positive=True)
        for size in spec.test_sizes:
            interpreter = Interpreter(program, max_steps=10_000_000)
            run = interpreter.run(spec.procedure, args(size))
            actual_cost = run.globals[spec.cost_variable]
            substituted = bound.expression.subs(n, size).subs(depth_symbol, size)
            predicted = float(sympy.N(substituted))
            assert actual_cost <= predicted + 1e-6, (name, size, actual_cost, predicted)

    @pytest.mark.skipif(
        not full_bench_enabled(), reason="slow benchmark row; set REPRO_FULL_BENCH=1"
    )
    def test_closest_pair_bound_covers_concrete_runs(self):
        # The closed form's log(n/3 - 1/3) is undefined at n = 1.
        spec, program, bound = analyse("closest_pair")
        assert bound.found
        n = sympy.Symbol("n", positive=True)
        # nondet() == 1 keeps every strip element (the worst case); the
        # seeded runs draw from the default range.
        interpreters = [Interpreter(program, nondet_range=(1, 2))] + [
            Interpreter(program, rng=random.Random(seed)) for seed in range(3)
        ]
        for size in (2, 3, 4, 5, 8, 13, 16, 31, 64, 100):
            predicted = float(sympy.N(bound.expression.subs(n, size)))
            for interpreter in interpreters:
                run = interpreter.run(spec.procedure, [size])
                actual_cost = run.globals[spec.cost_variable]
                assert actual_cost <= predicted + 1e-6, (size, actual_cost, predicted)

    def test_hanoi_bound_is_exact(self):
        spec, program, bound = analyse("hanoi")
        n = sympy.Symbol("n", positive=True)
        for size in (1, 2, 3, 4, 5, 6):
            actual = Interpreter(program).run(spec.procedure, [size, 1, 3, 2]).globals["cost"]
            assert actual == 2**size - 1
            assert sympy.simplify(bound.expression.subs(n, size) - actual) == 0


class TestOverviewExample:
    def test_subset_sum_overview_summary(self):
        """The §2 worked example: nTicks <= 2^h - 1, return <= h - 1, h <= 1 + n - i."""
        from repro.benchlib import SUBSET_SUM_OVERVIEW
        from repro.core import return_bound

        program = parse_program(SUBSET_SUM_OVERVIEW)
        result = analyze_program(program)
        summary = result.summaries["subsetSumAux"]
        assert summary.is_recursive
        assert summary.bounded_terms
        # Depth bound: h <= max(1, 1 + n - i) (arithmetic descent on n - i;
        # the clamp covers calls with i > n, which return at height 1).
        n, i = sympy.symbols("n i", positive=True)
        assert summary.depth_bound.symbolic_bound is not None
        assert sympy.simplify(
            summary.depth_bound.symbolic_bound - sympy.Max(1, n - i + 1)
        ) == 0
        # Cost and return-value bounds at i = 0.
        ticks = cost_bound(result, "subsetSumAux", "nTicks", substitutions={"i": 0, "sum": 0})
        assert ticks.asymptotic == "O(2^n)"
        ret = return_bound(result, "subsetSumAux", substitutions={"i": 0, "sum": 0})
        assert ret.found
        # return' <= h - 1 <= n: linear in n.
        assert ret.asymptotic in ("O(n)", "O(1)")
