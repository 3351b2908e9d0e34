from __future__ import annotations

import functools
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import POLYGONS, load
from foodn import evaluator, expr, load_file
from foodn.errors import UnknownMethod, UnresolvedBinding
from foodn.evaluator import eval_method, evaluate_method, resolve_binding
from foodn.fuzzy import FuzzySet, fs_equal, make_fuzzy_set
from foodn.model import (
    Binding,
    CrispNumber,
    CrispTuple,
    Fuzzy,
    FuzzyTuple,
    MethodDef,
    Property,
    TruthDegree,
    define_object,
)

reference = load("perfbench/reference.py")

SIDE = make_fuzzy_set([(1.8, 0.9), (2.0, 1.0), (2.1, 0.95)], unit="cm")


def polygon_like():
    return define_object("Rb1", [
        Property("p2", "Lengths of sides", FuzzyTuple((SIDE,) * 4)),
        Property("p3", "Number of sides", CrispNumber(4.0)),
        Property("p4", "Angles", CrispTuple((95.0, 85.0, 95.0, 85.0), "deg")),
        Property("p6", "Regularity", TruthDegree(0.8)),
        Property("p7", "Base", Fuzzy(SIDE)),
    ], [
        MethodDef("f1", "Perimeter", "4*a", (Binding("a", "p2", "component", 1),), "cm"),
        MethodDef("f1s", "Perimeter", "sum(a)", (Binding("a", "p2", "all"),), "cm"),
        MethodDef("f2", "Area", "a^2*sin(alpha)", (
            Binding("a", "p2", "component", 1),
            Binding("alpha", "p4", "component", 1),
        ), "cm^2"),
        MethodDef("g1", "Side count", "n", (Binding("n", "p2", "count"),)),
        MethodDef("g2", "Crisp arithmetic", "n*m", (
            Binding("n", "p3", "scalar"),
            Binding("m", "p4", "component", 2),
        )),
    ])


class TestResolveBinding:
    def test_scalar_variants(self):
        obj = polygon_like()
        assert resolve_binding(obj, Binding("n", "p3", "scalar")) == 4.0
        assert resolve_binding(obj, Binding("r", "p6", "scalar")) == 0.8
        assert resolve_binding(obj, Binding("b", "p7", "scalar")) is SIDE

    def test_component(self):
        obj = polygon_like()
        assert resolve_binding(obj, Binding("x", "p4", "component", 2)) == 85.0
        assert resolve_binding(obj, Binding("a", "p2", "component", 3)) is SIDE

    def test_all_and_count(self):
        obj = polygon_like()
        family = resolve_binding(obj, Binding("a", "p2", "all"))
        assert family == [SIDE] * 4
        assert resolve_binding(obj, Binding("n", "p2", "count")) == 4.0
        # a scalar forms a one-member family
        assert resolve_binding(obj, Binding("n", "p3", "all")) == [4.0]
        assert resolve_binding(obj, Binding("n", "p3", "count")) == 1.0

    def test_errors(self):
        obj = polygon_like()
        with pytest.raises(UnresolvedBinding, match="no property"):
            resolve_binding(obj, Binding("x", "p99", "scalar"))
        with pytest.raises(UnresolvedBinding, match="not a scalar"):
            resolve_binding(obj, Binding("x", "p2", "scalar"))
        with pytest.raises(UnresolvedBinding, match="out of range"):
            resolve_binding(obj, Binding("x", "p4", "component", 5))
        with pytest.raises(UnresolvedBinding, match="no components"):
            resolve_binding(obj, Binding("x", "p3", "component", 1))


class TestEvaluateMethod:
    def test_scaling(self):
        result = eval_method(polygon_like(), "f1")
        assert isinstance(result, FuzzySet)
        assert result.unit == "cm"
        assert result.elements == ((7.2, 0.9), (8.0, 1.0), (8.4, 0.95))

    def test_bound_once_is_one_quantity(self):
        # a*a over a three-point support: 9 raw combinations collapse to the
        # same outputs as a^2, because both mentions read the same slot
        obj = define_object("O", [Property("p", "Side", Fuzzy(SIDE))], [
            MethodDef("sq", "Area", "a*a", (Binding("a", "p", "scalar"),), "cm^2"),
            MethodDef("pw", "Area", "a^2", (Binding("a", "p", "scalar"),), "cm^2"),
        ])
        assert fs_equal(eval_method(obj, "sq"), eval_method(obj, "pw"))
        assert len(eval_method(obj, "sq").elements) == 3

    def test_family_members_vary_independently(self):
        # sum over four fuzzy sides enumerates 3^4 = 81 combinations
        result = eval_method(polygon_like(), "f1s")
        columns = [list(SIDE.elements)] * 4
        # the evaluator adds members left to right; sum() compensates from
        # Python 3.12 on, which can differ in the last bit
        expected = reference.extend(lambda *xs: functools.reduce(operator.add, xs), columns, 1e-9)
        assert list(result.elements) == expected
        # wider support than scaling one side: sums like 1.8+2+2+2 appear
        assert len(result.elements) > 3

    def test_family_outside_sum_is_rejected(self):
        # refused when the method is built, before any entity is evaluated
        with pytest.raises(UnresolvedBinding, match="inside sum"):
            MethodDef("bad", "Broken", "a+1", (Binding("a", "p2", "all"),))

    @pytest.mark.parametrize("body", ["-a", "sum(a) + -a", "2*a", "a^2", "sin(a)", "(a)"])
    def test_family_check_reaches_every_operand(self, body):
        with pytest.raises(UnresolvedBinding, match="family variable 'a'"):
            MethodDef("bad", "Broken", body, (Binding("a", "p2", "all"),))

    @pytest.mark.parametrize("body", ["-sum(a)", "sin(sum(a)) + 2*sum(a)", "sum(a)^2"])
    def test_family_inside_sum_is_accepted(self, body):
        method = MethodDef("ok", "Fine", body, (Binding("a", "p2", "all"),), "cm")
        assert isinstance(evaluate_method(polygon_like(), method), FuzzySet)

    def test_crisp_inputs_give_float(self):
        assert eval_method(polygon_like(), "g1") == 4.0
        assert eval_method(polygon_like(), "g2") == 340.0

    def test_mixed_crisp_fuzzy(self):
        obj = polygon_like()
        result = eval_method(obj, "f2")
        expected = reference.extend(
            lambda a, alpha: a ** 2 * math.sin(math.radians(alpha)),
            [list(SIDE.elements), [(95.0, 1.0)]], 1e-9,
        )
        assert result.unit == "cm^2"
        for (got_s, got_d), (want_s, want_d) in zip(result.elements, expected):
            assert got_s == pytest.approx(want_s, abs=1e-12)
            assert got_d == want_d

    def test_unknown_method(self):
        with pytest.raises(UnknownMethod):
            eval_method(polygon_like(), "zz")

    def test_standalone_method_on_entity(self):
        method = MethodDef("free", "Half base", "b/2", (Binding("b", "p7", "scalar"),), "cm")
        result = evaluate_method(polygon_like(), method)
        assert result.elements == ((0.9, 0.9), (1.0, 1.0), (1.05, 0.95))

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0])
    def test_tolerance_must_be_finite_and_non_negative(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            eval_method(polygon_like(), "f1", tol)
        assert len(eval_method(polygon_like(), "f1", 0.0).elements) == 3


def perimeter_of(sides):
    return define_object("P", [
        Property("p2", "Lengths of sides", FuzzyTuple(tuple(sides))),
    ], [
        MethodDef("f1s", "Perimeter", "sum(a)", (Binding("a", "p2", "all"),), "cm"),
    ])


# fuzzy sets of 1-4 elements whose supports lie on one 0.05 grid
grid_set = st.lists(
    st.tuples(st.integers(0, 60).map(lambda n: n * 0.05),
              st.integers(1, 1000).map(lambda n: n / 1000.0)),
    min_size=1, max_size=4,
).map(make_fuzzy_set)


class TestSumFamilies:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(grid_set, min_size=1, max_size=5))
    def test_sum_matches_oracle(self, sides):
        result = eval_method(perimeter_of(sides), "f1s")
        expected = reference.extend(lambda *xs: sum(xs), [list(fs.elements) for fs in sides])
        assert len(result.elements) == len(expected)
        for (got, degree), (want, want_degree) in zip(result.elements, expected):
            assert abs(got - want) <= 1e-9
            assert degree == want_degree

    def test_twelve_sides_past_the_product_limit(self):
        # 5^12 combinations exceed MAX_COMBINATIONS; the sum has 12*4+1 points
        side = make_fuzzy_set([(2.0 + 0.1 * k, 1.0 - 0.1 * k) for k in range(5)], unit="cm")
        result = eval_method(perimeter_of([side] * 12), "f1s")
        assert len(result.elements) == 49
        assert result.elements[0][0] == pytest.approx(12 * 2.0, abs=1e-9)
        assert result.elements[-1][0] == pytest.approx(12 * 2.4, abs=1e-9)

    def test_body_is_parsed_once(self, monkeypatch):
        calls = []
        parse = evaluator.parse_expr
        monkeypatch.setattr(evaluator, "parse_expr", lambda text: calls.append(text) or parse(text))
        obj = polygon_like()
        method = MethodDef("f2", "Area", "a^2*sin(alpha)", (
            Binding("a", "p2", "component", 1),
            Binding("alpha", "p4", "component", 1),
        ), "cm^2")
        first = evaluate_method(obj, method)
        for _ in range(5):
            assert evaluate_method(obj, method) == first
        assert len(calls) <= 1


class TestCompiledOnce:
    def test_parse_runs_once_per_method_built_and_never_in_evaluation(self, monkeypatch):
        parses, builds = [], []
        parse, post_init = expr.parse_expr, MethodDef.__post_init__

        def counting_parse(text):
            parses.append(text)
            return parse(text)

        def counting_post_init(method):
            builds.append(method.id)
            post_init(method)

        monkeypatch.setattr(expr, "parse_expr", counting_parse)
        monkeypatch.setattr(evaluator, "parse_expr", counting_parse)
        monkeypatch.setattr(MethodDef, "__post_init__", counting_post_init)
        net, _ = load_file(POLYGONS)
        assert len(parses) == len(builds) == 5
        del parses[:]
        for obj in net.objects.values():
            for method in obj.signature:
                for _ in range(3):
                    evaluate_method(obj, method)
        assert parses == [] and len(builds) == 5

    def test_evaluation_runs_the_methods_own_program(self, monkeypatch):
        obj = polygon_like()
        method = obj.get_method("g2")
        seen = []
        monkeypatch.setattr(evaluator._kernel, "eval_program",
                            lambda program, *rest: seen.append(program) or ((1.0, 1.0),))
        evaluate_method(obj, method)
        assert seen == [method.program]
