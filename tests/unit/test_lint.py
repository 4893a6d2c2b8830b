"""The semantic lint: every pass, the driver, the engine gate, the corpus.

One positive test per diagnostic code (with line-number assertions — line
attribution through the parser/AST/CFG is part of the contract), the
lint-clean property over every committed program (benchmark suites,
``examples/programs``, the fuzz regression corpus), Hypothesis mutation
tests (a clean program plus a seeded defect must produce the matching
code), and the ``REPRO_LINT_GATE`` engine gate, including its bit-identity
guarantee on clean programs.
"""

import importlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.tasks import (
    AnalysisTask,
    InvalidProgram,
    LINT_GATE_ENV,
    execute_task,
)
from repro.formulas.symbols import reset_fresh_counter
from repro.lang import build_call_graph, parse_program
from repro.lint import (
    Diagnostic,
    filter_diagnostics,
    has_errors,
    lint_source,
    sort_diagnostics,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

CLEAN = """\
int cost = 0;

int work(int n) {
    cost = cost + 1;
    if (n <= 1) {
        return 1;
    }
    return work(n - 1) + 1;
}

int main(int n) {
    assume(n > 0);
    int r = work(n);
    assert(r >= 1);
    return r;
}
"""


def codes(diagnostics):
    return {d.code for d in diagnostics}


def diagnostic(diagnostics, code):
    matches = [d for d in diagnostics if d.code == code]
    assert matches, f"no {code} in {[d.render() for d in diagnostics]}"
    return matches[0]


class TestPassPositives:
    """One crafted defect per code; the pass must fire on the right line."""

    def test_r000_parse_error_with_line(self):
        found = lint_source("int main(int n) {\n    return n +;\n}\n")
        d = diagnostic(found, "R000")
        assert d.severity == "error"
        assert d.line == 2
        assert "parse error" in d.message

    def test_r001_undeclared_read(self):
        found = lint_source("int main(int n) {\n    return x;\n}\n")
        d = diagnostic(found, "R001")
        assert d.severity == "error"
        assert d.line == 2
        assert d.procedure == "main"

    def test_r002_read_before_declaration(self):
        found = lint_source(
            "int main(int n) {\n"
            "    int y = t;\n"
            "    int t = 1;\n"
            "    return y + t;\n"
            "}\n"
        )
        d = diagnostic(found, "R002")
        assert d.severity == "warning"
        assert d.line == 2

    def test_r003_dead_store(self):
        found = lint_source(
            "int main(int n) {\n"
            "    int a = 0;\n"
            "    a = 5;\n"
            "    a = n;\n"
            "    return a;\n"
            "}\n"
        )
        d = diagnostic(found, "R003")
        assert d.severity == "info"
        assert d.line == 3

    def test_r003_exempts_vardecl_initializers(self):
        # `int retval = 0;` before an unconditional overwrite is the
        # defensive-initialization idiom of the benchmark suites.
        found = lint_source(
            "int main(int n) {\n"
            "    int a = 0;\n"
            "    a = n;\n"
            "    return a;\n"
            "}\n"
        )
        assert "R003" not in codes(found)

    def test_r004_unreachable_statement(self):
        found = lint_source(
            "int main(int n) {\n    return n;\n    n = 1;\n}\n"
        )
        d = diagnostic(found, "R004")
        assert d.severity == "warning"
        assert d.line == 3

    def test_r005_never_read_global(self):
        found = lint_source(
            "int g = 0;\n\nint main(int n) {\n    g = n;\n    return n;\n}\n"
        )
        d = diagnostic(found, "R005")
        assert d.severity == "info"

    def test_r006_assignment_to_undeclared(self):
        found = lint_source("int main(int n) {\n    x = 1;\n    return n;\n}\n")
        d = diagnostic(found, "R006")
        assert d.severity == "warning"
        assert d.line == 2

    def test_r101_unreachable_procedure(self):
        found = lint_source(
            "int helper(int n) {\n    return n;\n}\n\n"
            "int main(int n) {\n    return n;\n}\n"
        )
        d = diagnostic(found, "R101")
        assert d.severity == "info"
        assert d.procedure == "helper"

    def test_r102_no_base_case(self):
        found = lint_source(
            "int f(int n) {\n    return f(n - 1);\n}\n\n"
            "int main(int n) {\n    return f(n);\n}\n"
        )
        d = diagnostic(found, "R102")
        assert d.severity == "error"
        assert d.procedure == "f"

    def test_r103_no_progress_recursion(self):
        found = lint_source(
            "int f(int n) {\n"
            "    if (n <= 0) {\n"
            "        return 0;\n"
            "    }\n"
            "    return f(n);\n"
            "}\n\n"
            "int main(int n) {\n    return f(n);\n}\n"
        )
        d = diagnostic(found, "R103")
        assert d.severity == "warning"

    def test_r103_accepts_descending_and_halving(self):
        for call in ("f(n - 1)", "f(n / 2)", "f(n + 1)"):
            found = lint_source(
                "int f(int n) {\n"
                "    if (n <= 0) {\n"
                "        return 0;\n"
                "    }\n"
                f"    return {call};\n"
                "}\n\n"
                "int main(int n) {\n    return f(n);\n}\n"
            )
            assert "R103" not in codes(found), call

    def test_r104_nondet_free_infinite_loop(self):
        found = lint_source(
            "int main(int n) {\n"
            "    int x = 0;\n"
            "    while (1 <= 2) {\n"
            "        x = x + 1;\n"
            "    }\n"
            "    return x;\n"
            "}\n"
        )
        d = diagnostic(found, "R104")
        assert d.severity == "warning"
        assert d.line == 3

    def test_r104_quiet_when_body_can_escape(self):
        found = lint_source(
            "int main(int n) {\n"
            "    int x = 0;\n"
            "    while (1 <= 2) {\n"
            "        if (x > n) {\n"
            "            return x;\n"
            "        }\n"
            "        x = x + 1;\n"
            "    }\n"
            "    return x;\n"
            "}\n"
        )
        assert "R104" not in codes(found)

    def test_r201_constant_division_by_zero(self):
        found = lint_source("int main(int n) {\n    return n / 0;\n}\n")
        d = diagnostic(found, "R201")
        assert d.severity == "error"
        assert d.line == 2

    def test_r202_unsupported_divisor(self):
        found = lint_source("int main(int n) {\n    return n / n;\n}\n")
        d = diagnostic(found, "R202")
        assert d.severity == "error"
        assert d.line == 2

    def test_r203_always_true_condition(self):
        found = lint_source(
            "int main(int n) {\n"
            "    if (n == n) {\n"
            "        return 1;\n"
            "    }\n"
            "    return 0;\n"
            "}\n"
        )
        d = diagnostic(found, "R203")
        assert d.severity == "warning"
        assert d.line == 2

    def test_r204_always_false_condition(self):
        found = lint_source(
            "int main(int n) {\n"
            "    if (2 <= 1) {\n"
            "        return 1;\n"
            "    }\n"
            "    return 0;\n"
            "}\n"
        )
        d = diagnostic(found, "R204")
        assert d.severity == "warning"
        assert d.line == 2

    def test_r205_tautological_assume(self):
        found = lint_source(
            "int main(int n) {\n    assume(0 <= 1);\n    return n;\n}\n"
        )
        d = diagnostic(found, "R205")
        assert d.severity == "info"
        assert d.line == 2

    def test_r206_call_in_condition(self):
        found = lint_source(
            "int f(int n) {\n    return n;\n}\n\n"
            "int main(int n) {\n"
            "    if (f(n) > 0) {\n"
            "        return 1;\n"
            "    }\n"
            "    return 0;\n"
            "}\n"
        )
        d = diagnostic(found, "R206")
        assert d.severity == "error"
        assert d.line == 6

    def test_call_in_a_condition_is_a_call_graph_edge(self):
        source = (
            "int g(int n) { return n; } "
            "int main(int n) { if (g(n) > 0) { return 1; } return 0; }"
        )
        assert build_call_graph(parse_program(source)).callees("main") == {"g"}
        found = codes(lint_source(source))
        assert "R206" in found
        assert "R101" not in found

    def test_nondet_conditions_are_never_trivial(self):
        # `exists`-wrapped translations: a nondet condition must not be
        # claimed always-true or always-false in either polarity.
        found = lint_source(
            "int main(int n) {\n"
            "    if (*) {\n"
            "        return 1;\n"
            "    }\n"
            "    if (nondet(0, n) > 0) {\n"
            "        return 2;\n"
            "    }\n"
            "    return 0;\n"
            "}\n"
        )
        assert not codes(found) & {"R203", "R204", "R205"}


class TestDriverAndFilters:
    def test_clean_program_has_no_diagnostics(self):
        assert lint_source(CLEAN) == []

    def test_filter_by_severity(self):
        diagnostics = [
            Diagnostic("R001", "error", "a"),
            Diagnostic("R004", "warning", "b"),
            Diagnostic("R003", "info", "c"),
        ]
        assert [d.code for d in filter_diagnostics(diagnostics, "warning")] == [
            "R001",
            "R004",
        ]
        assert [d.code for d in filter_diagnostics(diagnostics, "error")] == ["R001"]

    def test_filter_by_disabled_codes(self):
        diagnostics = [
            Diagnostic("R001", "error", "a"),
            Diagnostic("R004", "warning", "b"),
        ]
        kept = filter_diagnostics(diagnostics, disabled_codes=("R001",))
        assert [d.code for d in kept] == ["R004"]

    def test_sort_deduplicates_and_orders_by_line(self):
        d1 = Diagnostic("R003", "info", "x", line=9)
        d2 = Diagnostic("R001", "error", "y", line=2)
        assert sort_diagnostics([d1, d2, d1]) == [d2, d1]

    def test_has_errors(self):
        assert has_errors([Diagnostic("R001", "error", "m")])
        assert not has_errors([Diagnostic("R004", "warning", "m")])

    def test_render_format(self):
        d = Diagnostic("R001", "error", "boom", line=3, procedure="main")
        assert d.render("a.c") == "a.c:3: error: R001: boom [main]"
        assert d.render() == "<source>:3: error: R001: boom [main]"


class TestCommittedProgramsLintClean:
    """Acceptance: zero diagnostics on every committed program."""

    def test_benchmark_suites(self):
        from repro.benchlib.suites import SUITES

        for suite in SUITES.values():
            for entry in suite.entries:
                found = lint_source(entry.source)
                assert found == [], (
                    suite.name,
                    entry.name,
                    [d.render() for d in found],
                )

    def test_example_programs(self):
        programs = sorted((REPO_ROOT / "examples" / "programs").glob("*.c"))
        assert programs, "examples/programs/ must ship lint-clean programs"
        for path in programs:
            found = lint_source(path.read_text(encoding="utf-8"))
            assert found == [], (path.name, [d.render() for d in found])

    def test_fuzz_regression_corpus(self):
        for path in sorted((REPO_ROOT / "tests" / "regression" / "fuzz").glob("*.c")):
            found = lint_source(path.read_text(encoding="utf-8"))
            if path.name == "call_arity_mismatch.c":
                # The deliberately invalid reproducer: the parser must keep
                # rejecting it, and lint must say so as R000, not crash.
                assert codes(found) == {"R000"}
            else:
                assert found == [], (path.name, [d.render() for d in found])


class TestMutations:
    """A clean program plus one seeded defect yields the matching code."""

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(["v", "acc", "tmp", "w1"]))
    def test_deleting_a_declaration_yields_r001(self, name):
        clean = (
            "int main(int n) {\n"
            f"    int {name} = n + 1;\n"
            f"    return {name};\n"
            "}\n"
        )
        assert lint_source(clean) == []
        mutated = clean.replace(f"    int {name} = n + 1;\n", "")
        assert "R001" in codes(lint_source(mutated))

    @settings(max_examples=25, deadline=None)
    @given(divisor=st.integers(min_value=2, max_value=9))
    def test_zeroing_a_divisor_yields_r201(self, divisor):
        clean = f"int main(int n) {{\n    return n / {divisor};\n}}\n"
        assert lint_source(clean) == []
        mutated = clean.replace(f"/ {divisor}", "/ 0")
        assert "R201" in codes(lint_source(mutated))

    @settings(max_examples=25, deadline=None)
    @given(base=st.integers(min_value=0, max_value=3))
    def test_dropping_the_base_case_yields_r102(self, base):
        clean = (
            "int f(int n) {\n"
            f"    if (n <= {base}) {{\n"
            "        return 0;\n"
            "    }\n"
            "    return f(n - 1) + 1;\n"
            "}\n\n"
            "int main(int n) {\n    return f(n);\n}\n"
        )
        assert lint_source(clean) == []
        mutated = (
            "int f(int n) {\n"
            "    return f(n - 1) + 1;\n"
            "}\n\n"
            "int main(int n) {\n    return f(n);\n}\n"
        )
        assert "R102" in codes(lint_source(mutated))


class TestEngineGate:
    BAD = "int main(int n) {\n    return n / 0;\n}\n"

    def test_gate_off_by_default(self, monkeypatch):
        monkeypatch.delenv(LINT_GATE_ENV, raising=False)
        # R201 is also a semantics rejection, so the ungated run still
        # fails — but as the front end's error, not lint's.
        task = AnalysisTask(name="bad", source=self.BAD, kind="analyze")
        with pytest.raises(InvalidProgram) as error:
            execute_task(task)
        assert "unsupported construct" in str(error.value)

    def test_gate_rejects_error_diagnostics(self, monkeypatch):
        monkeypatch.setenv(LINT_GATE_ENV, "1")
        task = AnalysisTask(name="bad", source=self.BAD, kind="analyze")
        with pytest.raises(InvalidProgram) as error:
            execute_task(task)
        assert str(error.value).startswith("lint: ")
        assert "R201" in str(error.value)

    def test_parse_errors_are_invalid_program_without_gate(self, monkeypatch):
        monkeypatch.delenv(LINT_GATE_ENV, raising=False)
        task = AnalysisTask(name="broken", source="int main( {", kind="analyze")
        with pytest.raises(InvalidProgram) as error:
            execute_task(task)
        assert "parse error" in str(error.value)

    def test_fuzz_kind_is_exempt(self, monkeypatch):
        importlib.import_module("repro.fuzz.oracle")  # registers the "fuzz" kind
        monkeypatch.setenv(LINT_GATE_ENV, "1")
        source = "int main(int n) {\n    return x;\n}\n"  # R001 error
        task = AnalysisTask(
            name="gen",
            source=source,
            kind="fuzz",
            params=(("runs", 1), ("baselines", False)),
        )
        payload = execute_task(task)  # must not raise InvalidProgram
        kinds = {f["kind"] for f in payload["findings"]}
        assert "generator-invariant" in kinds

    def test_gate_is_bit_identical_on_clean_programs(self, monkeypatch):
        # Each batch worker process starts with a zeroed fresh-symbol
        # counter; emulate that here so the in-process runs compare
        # likes with likes (the CLI-level property is per-process).
        task = AnalysisTask(name="clean", source=CLEAN, kind="analyze")
        monkeypatch.delenv(LINT_GATE_ENV, raising=False)
        reset_fresh_counter()
        ungated = execute_task(task)
        monkeypatch.setenv(LINT_GATE_ENV, "1")
        reset_fresh_counter()
        gated = execute_task(task)
        assert gated == ungated
