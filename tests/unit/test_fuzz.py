"""Tests for the differential fuzzing subsystem (:mod:`repro.fuzz`)."""

import random


from repro.engine import AnalysisTask
from repro.engine.tasks import execute_task
from repro.core import ChoraOptions
from repro.fuzz import (
    GeneratorConfig,
    OracleConfig,
    check_program,
    format_program,
    generate_program,
    program_seed,
)
from repro.fuzz.shrink import shrink_program
from repro.lang import parse_program
from repro.lang.interp import (
    AssertionFailure,
    AssumeBlocked,
    ExecutionLimitExceeded,
    Interpreter,
)

SMOKE_SEEDS = [program_seed(0, index) for index in range(30)]


class TestGenerator:
    def test_deterministic_for_a_seed(self):
        for seed in SMOKE_SEEDS[:10]:
            first = format_program(generate_program(seed))
            second = format_program(generate_program(seed))
            assert first == second

    def test_different_seeds_differ(self):
        sources = {format_program(generate_program(seed)) for seed in SMOKE_SEEDS}
        # Collisions are astronomically unlikely; equality would mean the
        # seed is ignored.
        assert len(sources) > len(SMOKE_SEEDS) // 2

    def test_program_seed_spreads_campaigns(self):
        a = [program_seed(0, index) for index in range(50)]
        b = [program_seed(1, index) for index in range(50)]
        assert len(set(a) | set(b)) == 100

    def test_round_trips_through_parser(self):
        for seed in SMOKE_SEEDS:
            source = format_program(generate_program(seed))
            reparsed = parse_program(source)
            assert format_program(reparsed) == source

    def test_entry_is_last_procedure_named_main(self):
        for seed in SMOKE_SEEDS:
            program = generate_program(seed)
            assert program.procedures[-1].name == "main"

    def test_cost_counter_declared(self):
        for seed in SMOKE_SEEDS:
            program = generate_program(seed)
            assert "cost" in program.global_names

    def test_every_program_interpretable(self):
        # Well-formed by construction: runs may block, fail a data-dependent
        # assertion or exhaust the budget, but never hit a malformed-program
        # error (undefined variable, arity mismatch, division by zero).
        for seed in SMOKE_SEEDS:
            program = parse_program(format_program(generate_program(seed)))
            arity = len(program.procedures[-1].scalar_parameters)
            for run in range(2):
                interpreter = Interpreter(
                    program, rng=random.Random(run), max_steps=50_000, max_depth=64
                )
                try:
                    interpreter.run("main", [2] * arity)
                except (AssumeBlocked, ExecutionLimitExceeded, AssertionFailure):
                    pass

    def test_size_bounds_procedure_count(self):
        for seed in SMOKE_SEEDS[:10]:
            program = generate_program(seed, GeneratorConfig(size=1))
            assert len(program.procedures) <= 2


class TestOracle:
    def test_clean_program_yields_no_findings(self):
        source = (
            "int cost = 0;\n"
            "int main(int n) {\n"
            "    cost = cost + 1;\n"
            "    if (n <= 0) { return 0; }\n"
            "    int r = main(n - 1);\n"
            "    return r + 1;\n"
            "}\n"
        )
        report = check_program(source, OracleConfig(runs=5, baselines=False))
        assert report.violations == []
        assert report.runs_completed == 5
        # CHORA bounds this shape: the claims table is non-empty.
        assert any(key.startswith("chora:") for key in report.claims)

    def test_blocked_runs_are_discarded_not_flagged(self):
        source = "int main(int n) { assume(n > 100); return n; }"
        report = check_program(source, OracleConfig(runs=4, baselines=False))
        assert report.runs_discarded == 4
        assert report.violations == []

    def test_failing_unproved_assertion_is_not_a_finding(self):
        # The assertion is data-dependent and false for n > 0; no sound tool
        # proves it, so concrete failures are expected behaviour.
        source = "int main(int n) { assert(n <= 0); return n; }"
        report = check_program(source, OracleConfig(runs=6, baselines=False))
        assert report.violations == []
        assert report.runs_completed == 6

    def test_unsound_bound_claim_is_flagged(self):
        # Forge an unsound claim through the internal claim type: observed
        # cost 5 against a claimed bound of n (= 3) must trip the comparison.
        from repro.fuzz.oracle import _BoundClaim
        import sympy

        claim = _BoundClaim("chora", "cost", sympy.Symbol("n", positive=True))
        assert claim.evaluated_at({"n": 3}) == 3.0
        assert claim.evaluated_at({"m": 3}) is None  # residual symbol: skip
        # Outside the positive regime the closed form makes no claim.
        assert claim.evaluated_at({"n": 0}) is None
        # Non-real values (zoo/nan from vanishing denominators) are skipped.
        n = sympy.Symbol("n", positive=True)
        assert _BoundClaim("chora", "cost", 1 / (n - 2)).evaluated_at({"n": 2}) is None
        assert _BoundClaim("chora", "cost", sympy.sqrt(n - 5)).evaluated_at({"n": 1}) is None
        # closest_pair's cost bound: at n = 1 a Max compares log(0) and raises.
        depth = sympy.Max(1, sympy.log(n / 3 - sympy.Rational(1, 3)) / sympy.log(2) + 2)
        closest_pair = 12 * 2**depth * depth - 23 * 2**depth / 2
        assert _BoundClaim("chora", "cost", closest_pair).evaluated_at({"n": 1}) is None
        assert _BoundClaim("chora", "cost", closest_pair).evaluated_at({"n": 2}) == 1.0

    def test_assert_unsound_detection_end_to_end(self, monkeypatch):
        # Forge a tool that "proves" the data-dependent assertion: the
        # concrete failure must then be reported as an unsound verdict.
        import repro.fuzz.oracle as oracle_module

        source = "int main(int n) { assert(n <= 2); return n; }"
        monkeypatch.setattr(
            oracle_module,
            "_proved_assertion_texts",
            lambda outcomes: {"n <= 2"},
        )
        report = check_program(source, OracleConfig(runs=10, baselines=False))
        kinds = {finding.kind for finding in report.findings}
        assert "assert-unsound" in kinds

    def test_analyzer_crash_is_a_finding(self, monkeypatch):
        import repro.fuzz.oracle as oracle_module

        def explode(program, options):
            raise RuntimeError("synthetic analyzer crash")

        monkeypatch.setattr(oracle_module, "analyze_program", explode)
        report = check_program("int main() { return 0; }", OracleConfig(runs=1))
        assert [finding.kind for finding in report.findings] == ["analyzer-error"]

    def test_batch_kind_registered(self):
        task = AnalysisTask(
            name="t",
            source="int cost = 0; int main(int n) { cost = cost + 1; return 0; }",
            kind="fuzz",
            params=(("runs", 3), ("seed", 7), ("baselines", False)),
        )
        payload = execute_task(task, ChoraOptions())
        assert payload["proved"] is True
        assert payload["runs_completed"] + payload["runs_discarded"] == 3

    def test_oracle_deterministic(self):
        source = format_program(generate_program(SMOKE_SEEDS[4]))
        config = OracleConfig(runs=4, seed=11, baselines=False)
        first = check_program(source, config).to_dict()
        second = check_program(source, config).to_dict()
        assert first == second


class TestShrinker:
    def test_deletes_irrelevant_statements(self):
        source = (
            "int cost = 0;\n"
            "int main(int n) {\n"
            "    int a = 1;\n"
            "    int b = 2;\n"
            "    int c = a + b;\n"
            "    assert(0 == 1);\n"
            "    return c;\n"
            "}\n"
        )

        def reproduces(candidate: str) -> bool:
            return "assert(0 == 1);" in candidate

        minimized = shrink_program(source, reproduces)
        assert "assert(0 == 1);" in minimized
        assert "int a" not in minimized
        assert "int b" not in minimized

    def test_drops_unreferenced_procedures(self):
        source = (
            "int helper(int n) { return n + 1; }\n"
            "int main(int n) { assert(0 == 1); return n; }\n"
        )
        minimized = shrink_program(source, lambda c: "assert(0 == 1);" in c)
        assert "helper" not in minimized

    def test_shrinks_constants(self):
        source = "int main(int n) { int x = 100; assert(0 == 1); return x; }"
        minimized = shrink_program(source, lambda c: "assert(0 == 1);" in c)
        assert "100" not in minimized

    def test_never_touches_divisors(self):
        source = "int main(int n) { int x = n / 2; assert(0 == 1); return x; }"
        minimized = shrink_program(
            source, lambda c: "assert(0 == 1);" in c and "/" in c
        )
        assert "/ 2" in minimized

    def test_result_reparses(self):
        source = format_program(generate_program(SMOKE_SEEDS[0]))
        minimized = shrink_program(source, lambda c: "main" in c)
        parse_program(minimized)

    def test_keeps_input_when_nothing_reproduces_smaller(self):
        source = "int main(int n) {\n    return n;\n}\n"
        minimized = shrink_program(source, lambda c: c == source)
        assert minimized == source
