"""Unit tests for statement semantics, CFG construction, call graphs, and the interpreter."""

import pytest

from repro.abstraction import formula_entails, is_formula_satisfiable
from repro.formulas import Polynomial, atom_eq, atom_ge, atom_le, conjoin, post, pre
from repro.lang import (
    Interpreter,
    AssertionFailure,
    CallEdge,
    build_call_graph,
    build_cfg,
    parse_program,
)
from repro.lang import ast
from repro.lang.semantics import (
    SemanticsError,
    assign_transition,
    assume_transition,
    translate_condition,
    translate_expression,
)


class TestExpressionSemantics:
    def test_linear_expression(self):
        translated = translate_expression(
            ast.BinOp("+", ast.BinOp("*", ast.IntLit(2), ast.VarRef("x")), ast.IntLit(3))
        )
        assert translated.value == 2 * Polynomial.var(pre("x")) + 3
        assert not translated.fresh_symbols

    def test_multiplication_of_variables_is_nonlinear(self):
        translated = translate_expression(ast.BinOp("*", ast.VarRef("x"), ast.VarRef("y")))
        assert not translated.value.is_linear

    def test_division_by_two_models_floor(self):
        translated = translate_expression(ast.BinOp("/", ast.VarRef("n"), ast.IntLit(2)))
        # q with 2q <= n <= 2q + 1
        assert len(translated.fresh_symbols) == 1
        q = translated.fresh_symbols[0]
        n = Polynomial.var(pre("n"))
        pq = Polynomial.var(q)
        assert formula_entails(translated.constraints, atom_le(2 * pq, n))
        assert formula_entails(translated.constraints, atom_le(n, 2 * pq + 1))

    def test_division_by_nonconstant_rejected(self):
        with pytest.raises(SemanticsError):
            translate_expression(ast.BinOp("/", ast.VarRef("n"), ast.VarRef("m")))

    def test_bounded_nondet(self):
        translated = translate_expression(ast.Nondet(ast.IntLit(0), ast.VarRef("size")))
        v = Polynomial.var(translated.fresh_symbols[0])
        assert formula_entails(translated.constraints, atom_ge(v, 0))
        assert formula_entails(
            translated.constraints, atom_le(v, Polynomial.var(pre("size")) - 1)
        )

    def test_array_read_is_unconstrained(self):
        translated = translate_expression(ast.ArrayRead("A", ast.VarRef("i")))
        assert translated.constraints is not None
        assert len(translated.fresh_symbols) == 1

    def test_max_expression(self):
        translated = translate_expression(ast.MinMax(True, ast.VarRef("a"), ast.VarRef("b")))
        value = Polynomial.var(translated.fresh_symbols[-1])
        assert formula_entails(
            translated.constraints, atom_ge(value, Polynomial.var(pre("a")))
        )
        assert formula_entails(
            translated.constraints, atom_ge(value, Polynomial.var(pre("b")))
        )

    def test_ternary_with_nondet(self):
        expr = ast.Ternary(ast.NondetBool(), ast.VarRef("n"), ast.IntLit(0))
        translated = translate_expression(expr)
        value = Polynomial.var(translated.fresh_symbols[-1])
        # The value is either n or 0 but nothing stronger.
        n = Polynomial.var(pre("n"))
        assert not formula_entails(translated.constraints, atom_eq(value, n))
        assert is_formula_satisfiable(conjoin([translated.constraints, atom_eq(value, n)]))
        assert is_formula_satisfiable(conjoin([translated.constraints, atom_eq(value, 0)]))


class TestConditionSemantics:
    def test_strict_comparison_tightened(self):
        formula = translate_condition(ast.Compare("<", ast.VarRef("i"), ast.VarRef("n")))
        i, n = Polynomial.var(pre("i")), Polynomial.var(pre("n"))
        assert formula_entails(formula, atom_le(i, n - 1))

    def test_not_equal_is_disjunctive(self):
        formula = translate_condition(ast.Compare("!=", ast.VarRef("x"), ast.IntLit(0)))
        x = Polynomial.var(pre("x"))
        assert not formula_entails(formula, atom_ge(x, 1))
        assert formula_entails(formula, atom_ge(x * x, 1))

    def test_negation_of_conjunction(self):
        condition = ast.NotCond(
            ast.BoolOp(
                "&&",
                ast.Compare(">", ast.VarRef("x"), ast.IntLit(0)),
                ast.Compare(">", ast.VarRef("y"), ast.IntLit(0)),
            )
        )
        formula = translate_condition(condition)
        x, y = Polynomial.var(pre("x")), Polynomial.var(pre("y"))
        # Consistent with x <= 0, and with y <= 0, but does not entail x <= 0.
        assert is_formula_satisfiable(conjoin([formula, atom_le(x, 0)]))
        assert not formula_entails(formula, atom_le(x, 0))

    def test_nondet_bool_is_unconstrained(self):
        from repro.formulas import TRUE

        assert translate_condition(ast.NondetBool()) == TRUE


class TestTransitions:
    def test_assign_transition(self):
        transition = assign_transition("x", ast.BinOp("+", ast.VarRef("x"), ast.IntLit(1)))
        assert transition.footprint == frozenset({"x"})
        formula = transition.formula
        assert formula_entails(
            formula, atom_eq(Polynomial.var(post("x")), Polynomial.var(pre("x")) + 1)
        )

    def test_compose_assignments(self):
        first = assign_transition("x", ast.BinOp("+", ast.VarRef("x"), ast.IntLit(1)))
        second = assign_transition("x", ast.BinOp("*", ast.IntLit(2), ast.VarRef("x")))
        composed = first.compose(second)
        # x' = 2(x + 1)
        assert formula_entails(
            composed.formula,
            atom_eq(Polynomial.var(post("x")), 2 * Polynomial.var(pre("x")) + 2),
        )

    def test_compose_frames_untouched_variables(self):
        first = assign_transition("x", ast.IntLit(1))
        second = assign_transition("y", ast.VarRef("x"))
        composed = first.compose(second)
        assert formula_entails(
            composed.to_formula(["x", "y", "z"]),
            atom_eq(Polynomial.var(post("z")), Polynomial.var(pre("z"))),
        )
        assert formula_entails(
            composed.formula, atom_eq(Polynomial.var(post("y")), 1)
        )

    def test_join_of_assignments(self):
        first = assign_transition("x", ast.IntLit(1))
        second = assign_transition("x", ast.IntLit(5))
        joined = first.join(second)
        xp = Polynomial.var(post("x"))
        assert not formula_entails(joined.formula, atom_eq(xp, 1))
        assert is_formula_satisfiable(conjoin([joined.formula, atom_eq(xp, 5)]))

    def test_assume_transition_footprint_empty(self):
        transition = assume_transition(ast.Compare(">=", ast.VarRef("n"), ast.IntLit(0)))
        assert transition.footprint == frozenset()


SUBSET_SUM_SOURCE = """
int nTicks;
int found;
int subsetSumAux(int *A, int i, int n, int sum) {
    nTicks++;
    if (i >= n) {
        if (sum == 0) { found = 1; }
        return 0;
    }
    int size = subsetSumAux(A, i + 1, n, sum + A[i]);
    if (found != 0) { return size + 1; }
    size = subsetSumAux(A, i + 1, n, sum);
    return size;
}
int subsetSum(int *A, int n) {
    found = 0;
    return subsetSumAux(A, 0, n, 0);
}
"""


class TestCfg:
    def test_straight_line(self):
        program = parse_program("int f(int n) { int x = n + 1; return x; }")
        cfg = build_cfg(program.procedure("f"))
        assert cfg.entry == 0 and cfg.exit == 1
        assert not cfg.call_edges
        assert cfg.parameters == ("n",)
        assert "x" in cfg.locals

    def test_if_produces_two_assume_edges(self):
        program = parse_program("int f(int n) { if (n > 0) { n = 1; } else { n = 2; } return n; }")
        cfg = build_cfg(program.procedure("f"))
        assume_labels = [e.label for e in cfg.weight_edges if e.label.startswith("assume")]
        assert len(assume_labels) == 2

    def test_while_produces_back_edge(self):
        program = parse_program("int f(int n) { int i = 0; while (i < n) { i = i + 1; } return i; }")
        cfg = build_cfg(program.procedure("f"))
        # There is a cycle: some edge's target has a lower vertex id than its source.
        assert any(e.target < e.source for e in cfg.weight_edges)

    def test_call_edges_and_hoisting(self):
        program = parse_program(SUBSET_SUM_SOURCE)
        cfg = build_cfg(program.procedure("subsetSumAux"))
        assert len(cfg.call_edges) == 2
        assert all(edge.callee == "subsetSumAux" for edge in cfg.call_edges)
        assert all(edge.result is not None for edge in cfg.call_edges)

    def test_nested_call_hoisting(self):
        program = parse_program(
            "int f(int x) { if (x > 100) { return x - 10; } return f(f(x + 11)); }"
        )
        cfg = build_cfg(program.procedure("f"))
        assert len(cfg.call_edges) == 2

    def test_assertions_recorded(self):
        program = parse_program("int f(int n) { assert(n >= 0); return n; }")
        cfg = build_cfg(program.procedure("f"))
        assert len(cfg.assertions) == 1
        assert cfg.assertions[0].procedure == "f"

    def test_variables_include_globals_and_return(self):
        program = parse_program(SUBSET_SUM_SOURCE)
        cfg = build_cfg(program.procedure("subsetSumAux"))
        variables = cfg.variables(program.global_names)
        assert "nTicks" in variables and "return" in variables and "i" in variables


    def test_reachable_follows_only_the_edges_it_is_given(self):
        program = parse_program(
            "int f(int n) { if (n > 0) { return f(n - 1); } return 0; }\n"
            "int g(int n) { return g(n); }"
        )
        cfg = build_cfg(program.procedure("f"))
        (call,) = cfg.call_edges
        everything = cfg.reachable()
        assert {cfg.entry, cfg.exit, call.source, call.target} <= everything
        # The fresh vertex a return leaves behind has no incoming edge.
        assert everything < cfg.vertices
        no_calls = cfg.reachable(lambda edge: not isinstance(edge, CallEdge))
        assert cfg.exit in no_calls and call.source in no_calls
        assert call.target not in no_calls
        recursive_only = build_cfg(program.procedure("g"))
        assert recursive_only.exit in recursive_only.reachable()
        assert recursive_only.exit not in recursive_only.reachable(
            lambda edge: not isinstance(edge, CallEdge)
        )


class TestCallGraph:
    def test_simple_recursion(self):
        program = parse_program(SUBSET_SUM_SOURCE)
        graph = build_call_graph(program)
        assert "subsetSumAux" in graph.callees("subsetSum")
        assert "subsetSumAux" in graph.callees("subsetSumAux")
        assert graph.recursive_procedures() == frozenset({"subsetSumAux"})

    def test_mutual_recursion_component(self):
        program = parse_program(
            """
            int g;
            void P1(int n) { if (n <= 1) { g++; return; } for (int i = 0; i < 18; i++) { P2(n - 1); } }
            void P2(int n) { if (n <= 1) { g++; return; } for (int i = 0; i < 2; i++) { P1(n - 1); } }
            """
        )
        graph = build_call_graph(program)
        components = graph.strongly_connected_components()
        assert ["P1", "P2"] in components
        assert graph.is_recursive(["P1", "P2"])

    def test_topological_order_callees_first(self):
        program = parse_program(
            """
            int f() { return 1; }
            int g() { return f(); }
            int h() { return g(); }
            """
        )
        graph = build_call_graph(program)
        order = [c[0] for c in graph.strongly_connected_components()]
        assert order.index("f") < order.index("g") < order.index("h")


class TestInterpreter:
    def test_hanoi_cost_is_exponential(self):
        program = parse_program(
            """
            int counter;
            void applyHanoi(int n) {
                if (n == 0) { return; }
                counter++;
                applyHanoi(n - 1);
                applyHanoi(n - 1);
            }
            """
        )
        interpreter = Interpreter(program)
        result = interpreter.run("applyHanoi", [5])
        assert result.globals["counter"] == 2**5 - 1
        assert result.max_recursion_depth == 6

    def test_return_value(self):
        program = parse_program("int f(int n) { return 2 * f0(n) + 1; } int f0(int n) { return n; }")
        result = Interpreter(program).run("f", [10])
        assert result.return_value == 21

    def test_loop_and_division(self):
        program = parse_program(
            "int halves(int n) { int count = 0; while (n > 1) { n = n / 2; count++; } return count; }"
        )
        result = Interpreter(program).run("halves", [64])
        assert result.return_value == 6

    def test_assertion_failure_raised(self):
        program = parse_program("int f(int n) { assert(n > 0); return n; }")
        with pytest.raises(AssertionFailure):
            Interpreter(program).run("f", [0])

    def test_nondet_bounded_respected(self):
        program = parse_program(
            "int pick(int n) { int x = nondet(0, n); assert(x >= 0); assert(x < n); return x; }"
        )
        result = Interpreter(program).run("pick", [7])
        assert 0 <= result.return_value < 7

    def test_mutual_recursion_example_counts(self):
        program = parse_program(
            """
            int g;
            void P1(int n) { if (n <= 1) { g++; return; } for (int i = 0; i < 18; i++) { P2(n - 1); } }
            void P2(int n) { if (n <= 1) { g++; return; } for (int i = 0; i < 2; i++) { P1(n - 1); } }
            """
        )
        result = Interpreter(program, max_steps=10_000_000).run("P1", [3])
        # P1(3) -> 18 calls P2(2) -> each 2 calls P1(1) -> each g++ once.
        assert result.globals["g"] == 36
