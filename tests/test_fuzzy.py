from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import load
from foodn import parse_fuzzy_set, parse_network
from foodn.errors import DegreeOutOfRange, DslError, EmptyFuzzySet, EmptyInput, EvaluationError
from foodn.evaluator import extend
from foodn.fuzzy import (
    FuzzySet,
    format_fuzzy_set,
    format_number,
    fs_equal,
    make_fuzzy_set,
    merge_pairs,
)

reference = load("perfbench/reference.py")


class TestConstruction:
    def test_sorts_and_merges_duplicates_by_max(self):
        fs = make_fuzzy_set([(2.0, 0.5), (1.0, 0.3), (2.0, 0.8)])
        assert fs.elements == ((1.0, 0.3), (2.0, 0.8))

    def test_near_duplicates_stay_distinct(self):
        # only equal supports merge; a tolerance applies when values are compared
        fs = make_fuzzy_set([(1.0, 0.4), (1.0 + 1e-12, 0.9)])
        assert fs.elements == ((1.0, 0.4), (1.0 + 1e-12, 0.9))

    def test_zero_degree_elements_drop(self):
        fs = make_fuzzy_set([(1.0, 0.0), (2.0, 0.7)])
        assert fs.elements == ((2.0, 0.7),)

    def test_empty_rejected(self):
        with pytest.raises(EmptyFuzzySet):
            make_fuzzy_set([])
        with pytest.raises(EmptyFuzzySet):
            make_fuzzy_set([(1.0, 0.0)])

    def test_degree_out_of_range(self):
        with pytest.raises(DegreeOutOfRange):
            make_fuzzy_set([(1.0, 1.5)])
        with pytest.raises(DegreeOutOfRange):
            make_fuzzy_set([(1.0, -0.1)])

    def test_direct_construction_enforces_canonical_form(self):
        with pytest.raises(EvaluationError):
            FuzzySet(((2.0, 0.5), (1.0, 0.5)))
        with pytest.raises(DegreeOutOfRange):
            FuzzySet(((1.0, 0.0),))
        with pytest.raises(EvaluationError):
            FuzzySet(((math.inf, 0.5),))

    def test_elements_are_floats(self):
        # an int degree that wins a merge, and ints handed to FuzzySet directly
        for fs in (make_fuzzy_set([(1.0, 1), (1.0, 0.5)]), FuzzySet(((1, 1), (2, 0.5)))):
            assert [type(x) for pair in fs.elements for x in pair] == [float] * 2 * len(fs.elements)

    @pytest.mark.parametrize("elements", [((1.0, True),), ((False, 0.5),), ((1.0, "0.5"),),
                                          (("1", 0.5),), ((1.0, None),)])
    def test_elements_that_are_not_numbers_are_refused(self, elements):
        # True would be written to a document as true, and "0.5" cannot be formatted
        with pytest.raises(TypeError, match="expected a number"):
            FuzzySet(elements)

    @pytest.mark.parametrize("pairs", [[(True, True)], [("1", "0.5")], [(1.0, "0.5")],
                                       [(1.0, 0.5), (None, 0.5)]])
    def test_make_fuzzy_set_refuses_what_is_not_a_number(self, pairs):
        # True once read as 1/1, and "1" failed inside the merge
        with pytest.raises(TypeError, match="^expected a number, got "):
            make_fuzzy_set(pairs)

    def test_unit_is_kept(self):
        assert make_fuzzy_set([(1, 1)], "cm").unit == "cm"


class TestAlgebra:
    def test_fs_equal_tolerates_small_drift(self):
        a = make_fuzzy_set([(1.0, 0.5)])
        b = make_fuzzy_set([(1.0 + 1e-10, 0.5 + 1e-10)])
        c = make_fuzzy_set([(1.01, 0.5)])
        assert fs_equal(a, b)
        assert not fs_equal(a, c)
        assert not fs_equal(a, make_fuzzy_set([(1.0, 0.5)], "cm"))


class TestExtend:
    def test_scaling(self):
        a = make_fuzzy_set([(1.8, 0.9), (2.0, 1.0), (2.1, 0.95)], "cm")
        out = extend(lambda x: 4 * x, [a])
        assert out.elements == ((7.2, 0.9), (8.0, 1.0), (8.4, 0.95))

    def test_all_crisp_returns_float(self):
        assert extend(lambda x, y: x + y, [2.0, 3.0]) == 5.0

    def test_mixed_crisp_and_fuzzy(self):
        a = make_fuzzy_set([(1, 0.5), (2, 1.0)])
        out = extend(lambda x, y: x * y, [a, 10.0])
        assert out.elements == ((10.0, 0.5), (20.0, 1.0))

    def test_equal_outputs_keep_max_degree(self):
        a = make_fuzzy_set([(1, 0.3), (2, 0.9)])
        b = make_fuzzy_set([(1, 0.8), (2, 0.4)])
        # products 1*2 and 2*1 coincide at 2
        out = extend(lambda x, y: x * y, [a, b])
        oracle = reference.extend(lambda x, y: x * y, [list(a.elements), list(b.elements)])
        assert list(out.elements) == oracle

    def test_empty_args(self):
        with pytest.raises(EmptyInput):
            extend(lambda: 1, [])

    def test_failures_wrap(self):
        a = make_fuzzy_set([(0, 1.0), (1, 1.0)])
        with pytest.raises(EvaluationError):
            extend(lambda x: 1 / x, [a])
        with pytest.raises(EvaluationError):
            extend(lambda x: math.sqrt(x - 10), [a])

    def test_matches_oracle_on_two_sided_body(self):
        a = make_fuzzy_set([(1.5, 0.25), (2.5, 1.0), (4.0, 0.5)])
        b = make_fuzzy_set([(0.5, 0.75), (2.0, 0.6)])
        for f in (lambda x, y: x + y, lambda x, y: x * y):
            got = extend(f, [a, b])
            want = reference.extend(f, [list(a.elements), list(b.elements)])
            assert list(got.elements) == want


class TestText:
    def test_format(self):
        fs = make_fuzzy_set([(1.8, 0.9), (2.0, 1.0), (2.1, 0.95)], "cm")
        assert format_fuzzy_set(fs) == "{1.8/0.9 + 2/1 + 2.1/0.95} cm"
        assert str(fs) == format_fuzzy_set(fs)

    def test_round_trip(self):
        text = "{1.8/0.9 + 2/1 + 2.1/0.95} cm"
        assert format_fuzzy_set(parse_fuzzy_set(text)) == text

    def test_parse_without_unit(self):
        fs = parse_fuzzy_set("{0.5/1}")
        assert fs.unit is None and fs.elements == ((0.5, 1.0),)

    def test_parse_rejects_junk(self):
        for text in ("{1/2/3}", "not a set", "{}", "{1/1 +}", "{+ 1/1}", "{1/1 2/1}", "{1/1 ++ 2/1}",
                     "{1/1} m/s", "{+1/1}", "4 cm", "{1/1} cm extra"):
            with pytest.raises(EvaluationError):
                parse_fuzzy_set(text)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300)),
                st.floats(0.0, 1.0, exclude_min=True),
            ),
            min_size=1,
            max_size=5,
        ),
        st.one_of(
            st.sampled_from([None, "cm", "cm^2", "m/s", "", "km h", "\u00e9", 'a"b', "\\", "cm^-2",
                             "cm^02", "fuzzy"]),
            st.text().filter(lambda unit: "\n" not in unit),  # any unit a set accepts
        ),
    )
    # repr writes 1e16 and beyond with an exponent sign, which is not a separator
    @example([(1e16, 1.0), (2e16, 0.5)], "cm")
    # supports closer than any comparison tolerance are still two elements
    @example([(0.0, 1.0), (1e-10, 0.5)], None)
    def test_text_form_round_trips_for_every_finite_support(self, pairs, unit):
        fs = make_fuzzy_set(pairs, unit)
        text = format_fuzzy_set(fs)
        assert format_fuzzy_set(parse_fuzzy_set(text)) == text
        assert parse_fuzzy_set(text) == fs
        assert len(fs.elements) == len({s for s, _ in pairs})

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(st.floats(-1e6, 1e6), st.one_of(st.floats(0.0, 1.0), st.floats(-0.5, 1.5))),
                 max_size=4),
        st.sampled_from([" + ", "+", " +\n "]),
        st.sampled_from(["", " cm", " cm^2", ' "km h"', ' "\u00e9"', " fuzzy", ' "a\\"b"', " m/s"]),
    )
    def test_the_text_reads_as_the_dsl_reads_it(self, pairs, plus, unit):
        text = "{" + plus.join(f"{s!r}/{d!r}" for s, d in pairs) + "}" + unit
        try:
            fs = parse_fuzzy_set(text)
        except (EvaluationError, DegreeOutOfRange, EmptyFuzzySet):
            with pytest.raises(DslError):
                parse_network(f'class C {{ property p "P" = {text}; }}')
            return
        net, _ = parse_network(f'class C {{ property p "P" = {text}; }}')
        assert net.classes["C"].specification[0].value.value == fs

    def test_format_number(self):
        assert format_number(2.0) == "2"
        assert format_number(0.95) == "0.95"
        assert format_number(-3.0) == "-3"
        assert [format_number(x) for x in (math.inf, -math.inf, math.nan)] == ["inf", "-inf", "nan"]


def test_merge_pairs_returns_float_degrees():
    assert merge_pairs([(1.0, 1), (1.0, 0.5)], 0.0) == ((1.0, 1.0),)
    assert type(merge_pairs([(1.0, 1), (1.0, 0.5)], 0.0)[0][1]) is float


SUPPORTS = [0.0, -0.0, 1.0, 1.0 + 1e-12, 1.0 + 2e-9, 1.04, 1.1, 0.1 + 0.2, 0.3, -2.5, 7.0]
DEGREES = [0.0, 0.0, 0.25, 0.5, 0.9, 1.0]


@settings(max_examples=400, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            # ints too: an extend function may return one, and degrees 0 and 1 may be ints
            st.one_of(st.sampled_from(SUPPORTS), st.integers(-60, 60).map(lambda n: n / 20),
                      st.integers(-3, 8)),
            st.one_of(st.sampled_from(DEGREES), st.integers(0, 1000).map(lambda n: n / 1000),
                      st.integers(0, 1)),
        ),
        max_size=30,
    ),
    tol=st.sampled_from([0.0, 1e-9, 0.05, 1.0]),
)
# 0.0 == -0.0: sorted, (-0.0, 0.25) comes first and its support stands for both
@example(pairs=[(0.0, 0.5), (-0.0, 0.25)], tol=0.0)
def test_merge_pairs_matches_the_pair_loop_bit_for_bit(pairs, tol):
    """Exact duplicates, both zeros and zero degrees, against one loop over
    the sorted pairs, compared by float.hex so that -0.0 counts."""
    pairs = pairs + pairs[: len(pairs) // 2]  # every other pair at least twice
    hexed = lambda merged: [(s.hex(), d.hex()) for s, d in merged]  # noqa: E731
    assert hexed(merge_pairs(pairs, tol)) == hexed(
        (float(s), float(d)) for s, d in reference.merge(pairs, tol))


def test_merge_pairs_groups_by_run_representative():
    pairs = [(1.0, 0.2), (1.0 + 5e-10, 0.9), (1.0 + 2e-9, 0.4)]
    # the third value is within tol of the second but not of the first
    assert merge_pairs(pairs, 1e-9) == ((1.0, 0.9), (1.0 + 2e-9, 0.4))
