"""The evaluation kernel against the brute-force oracle, and its errors."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodn.errors import EvaluationError
from foodn.expr import compile_program, parse_expr
from foodn.kernel import eval_program
from oracles import oracle_extend


def program_for(text, names):
    ast = parse_expr(text)
    slots = {name: i for i, name in enumerate(names)}
    return compile_program(ast, slots)


def run(prog, columns, tol=1e-9):
    supports = [[s for s, _ in col] for col in columns]
    degrees = [[d for _, d in col] for col in columns]
    return eval_program(prog.codes, prog.operands, prog.consts, prog.max_stack,
                        supports, degrees, tol)


column = st.lists(
    st.tuples(st.integers(-200, 200).map(lambda n: n / 40.0),
              st.integers(1, 1000).map(lambda n: n / 1000.0)),
    min_size=1, max_size=4,
)


def sin_deg(x):
    return math.sin(math.radians(x))


def cos_deg(x):
    return math.cos(math.radians(x))


# (body, variables, the same body as a Python function for the oracle)
EXPRESSIONS = [
    ("4*a", ("a",), lambda a: 4 * a),
    ("a^2", ("a",), lambda a: math.pow(a, 2)),
    ("a+b", ("a", "b"), lambda a, b: a + b),
    ("a*b", ("a", "b"), lambda a, b: a * b),
    ("a-b/c", ("a", "b", "c"), lambda a, b, c: a - b / c),
    ("a^2*sin(b)", ("a", "b"), lambda a, b: math.pow(a, 2) * sin_deg(b)),
    ("cos(a)+sqrt(b*b)", ("a", "b"), lambda a, b: cos_deg(a) + math.sqrt(b * b)),
    ("-a+2", ("a",), lambda a: -a + 2),
]


class TestParity:
    """The kernel agrees with the oracle and fails with its documented errors."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), which=st.sampled_from(EXPRESSIONS))
    def test_kernel_matches_oracle(self, data, which):
        text, names, f = which
        prog = program_for(text, names)
        columns = [data.draw(column) for _ in names]
        try:
            values, degs = run(prog, columns)
        except EvaluationError:
            # the only failure these bodies can meet is a zero divisor
            with pytest.raises(ZeroDivisionError):
                oracle_extend(f, columns)
            return
        expected = oracle_extend(f, columns)
        assert len(values) == len(expected)
        for got, degree, (want, want_degree) in zip(values, degs, expected):
            assert abs(got - want) <= 1e-9
            assert degree == want_degree

    def test_division_by_zero_parity(self):
        prog = program_for("a/b", ("a", "b"))
        cols = [[(1.0, 1.0)], [(2.0, 0.5), (0.0, 1.0)]]
        with pytest.raises(EvaluationError, match="division by zero"):
            run(prog, cols)

    def test_sqrt_of_negative_parity(self):
        prog = program_for("sqrt(a)", ("a",))
        cols = [[(4.0, 1.0), (-1.0, 0.5)]]
        with pytest.raises(EvaluationError, match="sqrt"):
            run(prog, cols)

    def test_pow_error_parity(self):
        domain = program_for("a^b", ("a", "b"))
        for cols, match in [
            ([[(-2.0, 1.0)], [(0.5, 1.0)]], "math domain error"),
            ([[(10.0, 1.0)], [(400.0, 1.0)]], "math range error"),
        ]:
            with pytest.raises(EvaluationError, match=match):
                run(domain, cols)

    def test_non_finite_result_parity(self):
        prog = program_for("a*b", ("a", "b"))
        cols = [[(1e308, 1.0)], [(10.0, 1.0)]]
        with pytest.raises(EvaluationError, match="non-finite"):
            run(prog, cols)

    def test_empty_support_parity(self):
        prog = program_for("a+b", ("a", "b"))
        cols = [[(1.0, 1.0)], []]
        with pytest.raises(EvaluationError, match="empty support"):
            run(prog, cols)

    def test_combination_limit_parity(self):
        prog = program_for("a+b+c+d+e+f+g+h",
                           ("a", "b", "c", "d", "e", "f", "g", "h"))
        cols = [[(float(i), 1.0) for i in range(30)] for _ in range(8)]
        with pytest.raises(EvaluationError, match="enumeration limit"):
            run(prog, cols)

    def test_merge_keeps_max_degree_and_first_support(self):
        # outputs 2*1.0 and 1.0+1.0 coincide: one merged pair, max degree
        prog = program_for("a+b", ("a", "b"))
        cols = [[(1.0, 0.4), (2.0, 0.9)], [(0.0, 1.0), (1.0, 0.6)]]
        values, degs = run(prog, cols)
        assert values == [1.0, 2.0, 3.0]
        assert degs == [0.4, 0.9, 0.6]
