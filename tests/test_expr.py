from __future__ import annotations

import math

import pytest

from foodn.errors import ExprSyntaxError
from foodn.expr import (
    MAX_DEPTH,
    Bin,
    Call,
    Neg,
    Num,
    Sum,
    Var,
    compile_program,
    free_vars,
    parse_expr,
)
from foodn.kernel import eval_program


def crisp(expr_text, **values):
    """Evaluate a closed expression over crisp variable values."""
    ast = parse_expr(expr_text)
    slots = {name: i for i, name in enumerate(values)}
    program = compile_program(ast, slots)
    supports = [[float(values[name])] for name in values]
    degrees = [[1.0] for _ in values]
    pairs = eval_program(program, supports, degrees, 1e-9)
    assert [degree for _, degree in pairs] == [1.0]
    return pairs[0][0]


class TestParsing:
    def test_precedence_power_over_unary(self):
        # -a^2 reads as -(a^2)
        assert parse_expr("-a^2") == Neg(Bin("^", Var("a"), Num(2)))

    def test_precedence_mul_over_add(self):
        assert parse_expr("a+b*c") == Bin("+", Var("a"), Bin("*", Var("b"), Var("c")))

    def test_power_right_associative(self):
        assert parse_expr("a^b^c") == Bin("^", Var("a"), Bin("^", Var("b"), Var("c")))

    def test_parens(self):
        assert parse_expr("(a+b)*c") == Bin("*", Bin("+", Var("a"), Var("b")), Var("c"))

    def test_functions_and_sum(self):
        assert parse_expr("sin(x)") == Call("sin", Var("x"))
        assert parse_expr("sum(a)") == Sum("a")

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("2a")
        with pytest.raises(ExprSyntaxError):
            parse_expr("a(b)")

    def test_error_positions(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("a + ")
        assert info.value.position == 4
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("a + $")
        assert info.value.position == 4

    def test_sum_takes_a_name(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("sum(2)")

    def test_unbalanced(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("(a+b")

    def test_free_vars(self):
        assert free_vars(parse_expr("a^2*sin(alpha)+sum(s)")) == {"a", "alpha", "s"}


class TestDepth:
    """Bodies deeper than MAX_DEPTH are syntax errors, not RecursionErrors."""

    @pytest.mark.parametrize("text", [
        "+".join(["a"] * 2000),
        "*".join(["a"] * 2000),
        "(" * 2000 + "a" + ")" * 2000,
        "-" * 2000 + "a",
        "^".join(["a"] * 2000),
        "sin(" * 2000 + "a" + ")" * 2000,
    ], ids=["sum", "product", "parentheses", "negation", "power", "call"])
    def test_deep_bodies_are_refused(self, text):
        with pytest.raises(ExprSyntaxError, match="deeper than"):
            parse_expr(text)

    def test_error_points_where_the_limit_is_crossed(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("+".join(["a"] * (MAX_DEPTH + 2)))
        assert info.value.position == 2 * MAX_DEPTH + 1  # the (MAX_DEPTH + 1)th "+"
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("(" * (MAX_DEPTH + 1) + "a" + ")" * (MAX_DEPTH + 1))
        assert info.value.position == MAX_DEPTH

    def test_mixed_nesting_counts_the_tree_height(self):
        # each level is shallow on its own, the tree is not
        run = "+".join(["a"] * 20)
        text = "a"
        for _ in range(10):
            text = f"({text})+{run}"
        with pytest.raises(ExprSyntaxError, match="deeper than"):
            parse_expr(text)

    @pytest.mark.parametrize("text, value", [
        ("+".join(["a"] * (MAX_DEPTH + 1)), MAX_DEPTH + 1),
        ("(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH, 1),
        ("-" * MAX_DEPTH + "a", (-1) ** MAX_DEPTH),
        ("a+(" * (MAX_DEPTH - 1) + "a" + ")" * (MAX_DEPTH - 1), MAX_DEPTH),
    ], ids=["sum", "parentheses", "negation", "right-nested"])
    def test_bodies_at_the_limit_evaluate(self, text, value):
        assert crisp(text, a=1) == value


class TestEvaluation:
    def test_arithmetic(self):
        assert crisp("4*a", a=2) == 8.0
        assert crisp("a^2", a=3) == 9.0
        assert crisp("a-b/c", a=10, b=6, c=3) == 8.0
        assert crisp("-a+1", a=4) == -3.0
        assert crisp("2^3^2") == 512.0  # right associativity

    def test_trig_uses_degrees(self):
        assert crisp("sin(x)", x=90) == pytest.approx(1.0, abs=1e-12)
        assert crisp("cos(x)", x=180) == pytest.approx(-1.0, abs=1e-12)
        assert crisp("sin(x)", x=95) == pytest.approx(math.sin(math.radians(95)), abs=1e-15)

    def test_sqrt(self):
        assert crisp("sqrt(x)", x=49) == 7.0

    def test_constants_only(self):
        assert crisp("2+3*4") == 14.0
