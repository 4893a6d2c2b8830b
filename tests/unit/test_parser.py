"""Unit tests for the mini-language tokenizer and parser."""

import dataclasses

import pytest

from repro.lang import ParseError, parse_program, parse_procedure_body, tokenize
from repro.lang import ast


class TestTokenizer:
    def test_basic_tokens(self):
        tokens = tokenize("int x = 3;")
        texts = [t.text for t in tokens]
        assert texts == ["int", "x", "=", "3", ";", ""]

    def test_comments_are_dropped(self):
        tokens = tokenize("x = 1; // comment\n/* block\ncomment */ y = 2;")
        texts = [t.text for t in tokens if t.kind != "eof"]
        assert "comment" not in texts
        assert "y" in texts

    def test_line_numbers(self):
        tokens = tokenize("x = 1;\ny = 2;")
        y_token = next(t for t in tokens if t.text == "y")
        assert y_token.line == 2

    def test_two_char_operators(self):
        tokens = tokenize("x <= y && z != w || a >= b")
        texts = {t.text for t in tokens}
        assert {"<=", "&&", "!=", "||", ">="} <= texts

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("x = $;")


class TestProgramStructure:
    def test_globals_and_procedure(self):
        program = parse_program(
            """
            int g;
            int counter = 5;
            void p(int n) { g = g + n; }
            """
        )
        assert program.global_names == ("g", "counter")
        assert program.globals[1].init == 5
        assert program.procedure_names == ("p",)
        assert not program.procedure("p").returns_value

    def test_parameters(self):
        program = parse_program("int f(int a, int *b, int c) { return a + c; }")
        procedure = program.procedure("f")
        assert procedure.scalar_parameters == ("a", "c")
        assert procedure.parameters[1].is_array

    def test_missing_procedure_raises(self):
        program = parse_program("int f() { return 1; }")
        with pytest.raises(KeyError):
            program.procedure("g")

    def test_local_variables_collected(self):
        program = parse_program(
            "int f(int n) { int a = 1; if (n > 0) { int b = 2; } return a; }"
        )
        assert set(program.procedure("f").local_variables()) == {"a", "b"}
        # First-declaration order: it fixes the order of a CFG's locals.
        program = parse_program(
            "int f(int n) { int z; if (n > 0) { int b; int z; } else { int a; }"
            " while (n > 0) { int c; n = n - 1; } int b; return z; }"
        )
        assert program.procedure("f").local_variables() == ("z", "b", "a", "c")


class TestStatements:
    def parse_body(self, text):
        return parse_procedure_body(text)

    def test_if_else(self):
        block = self.parse_body("{ if (x > 0) { y = 1; } else { y = 2; } }")
        statement = block.statements[0]
        assert isinstance(statement, ast.If)
        assert statement.else_branch is not None

    def test_if_without_braces(self):
        block = self.parse_body("{ if (x > 0) y = 1; else y = 2; }")
        statement = block.statements[0]
        assert isinstance(statement, ast.If)
        assert isinstance(statement.then_branch, ast.Block)

    def test_while(self):
        block = self.parse_body("{ while (i < n) { i = i + 1; } }")
        assert isinstance(block.statements[0], ast.While)

    def test_for_desugars_to_while(self):
        block = self.parse_body("{ for (int i = 0; i < 18; i++) { p(n - 1); } }")
        outer = block.statements[0]
        assert isinstance(outer, ast.Block)
        declaration, loop = outer.statements
        assert isinstance(declaration, ast.VarDecl)
        assert isinstance(loop, ast.While)
        # The loop body ends with the update statement i = i + 1.
        update = loop.body.statements[-1]
        assert isinstance(update, ast.Assign)

    def test_do_while_runs_body_first(self):
        block = self.parse_body("{ do { x = x + 1; } while (x < 3); }")
        outer = block.statements[0]
        assert isinstance(outer, ast.Block)
        first, loop = outer.statements
        assert isinstance(first, ast.Block)
        assert isinstance(loop, ast.While)

    def test_increment_sugar(self):
        block = self.parse_body("{ nTicks++; x -= 3; }")
        increment, decrement = block.statements
        assert isinstance(increment, ast.Assign)
        assert isinstance(increment.value, ast.BinOp)
        assert isinstance(decrement.value, ast.BinOp)

    def test_assert_assume_return(self):
        block = self.parse_body("{ assume(n >= 0); assert(x == 1); return n + 1; }")
        assume, assertion, ret = block.statements
        assert isinstance(assume, ast.Assume)
        assert isinstance(assertion, ast.Assert)
        assert isinstance(ret, ast.Return)

    def test_havoc_from_bare_nondet(self):
        block = self.parse_body("{ x = nondet(); y = nondet(0, n); }")
        havoc, bounded = block.statements
        assert isinstance(havoc, ast.Havoc)
        assert isinstance(bounded, ast.Assign)
        assert isinstance(bounded.value, ast.Nondet)

    def test_array_write_is_statement(self):
        block = self.parse_body("{ A[i] = x + 1; }")
        assert isinstance(block.statements[0], ast.ArrayWrite)

    def test_call_statement(self):
        block = self.parse_body("{ applyHanoi(n - 1, from, via, to); }")
        statement = block.statements[0]
        assert isinstance(statement, ast.CallStmt)
        assert statement.call.callee == "applyHanoi"
        assert len(statement.call.args) == 4


class TestExpressions:
    def parse_single_assign(self, text):
        block = parse_procedure_body("{ " + text + " }")
        return block.statements[0]

    def test_precedence(self):
        statement = self.parse_single_assign("x = 1 + 2 * 3;")
        value = statement.value
        assert isinstance(value, ast.BinOp) and value.op == "+"
        assert isinstance(value.right, ast.BinOp) and value.right.op == "*"

    def test_parentheses(self):
        statement = self.parse_single_assign("x = (1 + 2) * 3;")
        value = statement.value
        assert value.op == "*"

    def test_unary_minus(self):
        statement = self.parse_single_assign("x = -y + 1;")
        assert isinstance(statement.value.left, ast.UnaryNeg)

    def test_division(self):
        statement = self.parse_single_assign("x = n / 2;")
        assert statement.value.op == "/"

    def test_call_in_expression(self):
        statement = self.parse_single_assign("x = 2 * hanoi(n - 1) + 1;")
        assert isinstance(statement.value, ast.BinOp)

    def test_nested_calls(self):
        statement = self.parse_single_assign("x = ackermann(m - 1, ackermann(m, n - 1));")
        call = statement.value
        assert isinstance(call, ast.CallExpr)
        assert isinstance(call.args[1], ast.CallExpr)

    def test_array_read(self):
        statement = self.parse_single_assign("x = sum + A[i];")
        assert isinstance(statement.value.right, ast.ArrayRead)

    def test_min_max(self):
        statement = self.parse_single_assign("x = 1 + max(a, b);")
        assert isinstance(statement.value.right, ast.MinMax)

    def test_ternary_with_nondet_condition(self):
        statement = self.parse_single_assign("x = nondet() ? n - 1 : n - 2;")
        value = statement.value
        assert isinstance(value, ast.Ternary)
        assert isinstance(value.condition, ast.NondetBool)

    def test_nondet_bounded(self):
        statement = self.parse_single_assign("x = nondet(0, size);")
        assert isinstance(statement.value, ast.Nondet)
        assert statement.value.upper is not None


class TestConditions:
    def parse_condition_of_if(self, text):
        block = parse_procedure_body("{ if (" + text + ") { x = 1; } }")
        return block.statements[0].condition

    def test_comparison(self):
        condition = self.parse_condition_of_if("i >= n")
        assert isinstance(condition, ast.Compare)
        assert condition.op == ">="

    def test_boolean_combination(self):
        condition = self.parse_condition_of_if("n == 0 || n == 1 && m > 2")
        assert isinstance(condition, ast.BoolOp)
        assert condition.op == "||"

    def test_negation(self):
        condition = self.parse_condition_of_if("!(x < y)")
        assert isinstance(condition, ast.NotCond)

    def test_bare_variable_means_nonzero(self):
        condition = self.parse_condition_of_if("found")
        assert isinstance(condition, ast.Compare)
        assert condition.op == "!="

    def test_star_is_nondeterministic(self):
        block = parse_procedure_body("{ while (*) { x = x + 1; } }")
        assert isinstance(block.statements[0].condition, ast.NondetBool)

    def test_parenthesized_arithmetic_condition(self):
        condition = self.parse_condition_of_if("(x + 1) > 2")
        assert isinstance(condition, ast.Compare)
        assert condition.op == ">"


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_program("int f() { x = 1 }")

    def test_unbalanced_braces(self):
        with pytest.raises(ParseError):
            parse_program("int f() { x = 1; ")

    def test_bad_nondet_arity(self):
        with pytest.raises(ParseError):
            parse_program("int f() { x = nondet(1); return x; }")

    def test_error_mentions_line(self):
        try:
            parse_program("int f() {\n  x = ;\n}")
        except ParseError as error:
            assert "line 2" in str(error)
        else:  # pragma: no cover
            pytest.fail("expected a parse error")


EVERY_NODE_CLASS = """\
int g = 3;
int f(int n, int *A) {
    int a = n + 1;
    if (n > 0 && *) {
        a = f(n - 1, A) + A[n];
    } else {
        int b;
    }
    while (a < 3) {
        a = -a;
        A[a] = 2;
    }
    assert(!(a == 1));
    assume(true);
    a = nondet();
    f(1, A);
    int c = nondet() ? 1 : nondet(0, 2);
    return min(a, c);
}
"""


class TestTraversal:
    def test_walk_is_a_source_order_preorder_over_every_node_class(self):
        program = parse_program(EVERY_NODE_CLASS)
        nodes = list(ast.walk(program))
        concrete = {
            name
            for name in ast.__all__
            if dataclasses.is_dataclass(getattr(ast, name, None))
        }
        assert {type(node).__name__ for node in nodes} == concrete
        assert [type(node).__name__ for node in nodes] == [
            "Program", "GlobalDecl", "Procedure", "Parameter", "Parameter", "Block",
            "VarDecl", "BinOp", "VarRef", "IntLit",
            "If", "BoolOp", "Compare", "VarRef", "IntLit", "NondetBool",
            "Block", "Assign", "BinOp", "CallExpr", "BinOp", "VarRef", "IntLit",
            "VarRef", "ArrayRead", "VarRef",
            "Block", "VarDecl",
            "While", "Compare", "VarRef", "IntLit",
            "Block", "Assign", "UnaryNeg", "VarRef", "ArrayWrite", "VarRef", "IntLit",
            "Assert", "NotCond", "Compare", "VarRef", "IntLit",
            "Assume", "BoolLit",
            "Havoc",
            "CallStmt", "CallExpr", "IntLit", "VarRef",
            "VarDecl", "Ternary", "NondetBool", "IntLit", "Nondet", "IntLit", "IntLit",
            "Return", "MinMax", "VarRef", "VarRef",
        ]
        assert all(isinstance(node, ast.Node) for node in nodes)

    def test_children_skip_names_operators_literals_and_lines(self):
        index, value = ast.VarRef("i"), ast.IntLit(2)
        assert list(ast.children(ast.ArrayWrite("A", index, value, line=4))) == [index, value]
        assert list(ast.children(ast.MinMax(True, value, index))) == [value, index]
        assert list(ast.children(ast.GlobalDecl("g", 3, line=1))) == []
        assert list(ast.children(ast.IntLit(7))) == []
        assert list(ast.children(ast.Nondet())) == []
        condition = ast.BoolLit(True)
        then_branch = ast.Block(())
        assert list(ast.children(ast.If(condition, then_branch, line=9))) == [
            condition,
            then_branch,
        ]
