from __future__ import annotations

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DISJOINT, POLYGONS
from foodn import eval_method
from foodn.dsl import _tokenize, parse_network
from foodn.errors import DslError
from foodn.model import (
    Absent,
    CrispNumber,
    CrispTuple,
    Fuzzy,
    FuzzyMarker,
    FuzzyTuple,
    Interval,
    TruthDegree,
)
from foodn.serialize import dumps
from oracles import oracle_tokenize


def parse_one_value(text):
    """Route a value literal through a minimal class declaration."""
    net, warnings = parse_network(
        'class T { property p1 "Thing" = %s; }' % text
    )
    assert warnings == []
    return net.entity("T").get_property("p1").value


def errors_of(text):
    with pytest.raises(DslError) as info:
        parse_network(text)
    return info.value.diagnostics


class TestFixture:
    def test_counts(self, polygons):
        assert len(polygons.objects) == 2
        assert len(polygons.classes) == 3
        assert len(polygons.relations) == 5
        assert len(polygons.exploiters) == 5
        assert len(polygons.modifiers) == 7

    def test_object_inherits_semantics(self, polygons):
        rb1 = polygons.entity("Rb1")
        assert rb1.get_property("p2").semantic == "Lengths of sides"
        assert rb1.declared_class == "T_Rb"

    def test_object_inherits_signature(self, polygons):
        rb1 = polygons.entity("Rb1")
        assert [m.id for m in rb1.signature] == ["f1", "f2"]
        assert rb1.get_method("f2").body == "a^2*sin(alpha)"

    def test_fixture_values(self, polygons):
        rb1 = polygons.entity("Rb1")
        p2 = rb1.get_property("p2").value
        assert isinstance(p2, FuzzyTuple) and len(p2.values) == 4
        assert p2.values[0].elements == ((1.8, 0.9), (2.0, 1.0), (2.1, 0.95))
        assert p2.values[0].unit == "cm"
        assert rb1.get_property("p4").value == CrispTuple((95.0, 85.0, 95.0, 85.0), "deg")
        assert rb1.get_property("p6").value == TruthDegree(0.8)
        t_pg = polygons.entity("T_Pg")
        assert t_pg.get_property("p2").value == FuzzyMarker()
        assert t_pg.get_property("p4").value == Interval(0.0, 180.0, "deg")

    def test_relations(self, polygons):
        kinds = [(r.source, r.kind, r.target) for r in polygons.relations]
        assert ("Rb1", "instance-of", "T_Rb") in kinds
        assert ("T_Sq", "is-a", "T_Rb") in kinds

    def test_modifier_shapes(self, polygons):
        m = polygons.modifiers["M1_Sq1"]
        assert m.level == "object" and m.target_class == "T_Rb"
        assert [c.prop for c in m.changes] == ["p4", "p6"]
        assert polygons.modifiers["M1_T_Sq"].target_class is None


class TestValues:
    def test_number_with_unit(self):
        assert parse_one_value("2 kg") == CrispNumber(2.0, "kg")
        assert parse_one_value("2.5") == CrispNumber(2.5)
        assert parse_one_value("-3 m") == CrispNumber(-3.0, "m")

    def test_unit_with_power(self):
        assert parse_one_value("9 cm^2") == CrispNumber(9.0, "cm^2")

    def test_tuple(self):
        assert parse_one_value("(90, 90) deg") == CrispTuple((90.0, 90.0), "deg")

    def test_tuple_of_fuzzy_sets(self):
        value = parse_one_value("({1/0.5 + 2/1}, {3/1}) cm")
        assert isinstance(value, FuzzyTuple)
        assert value.values[0].elements == ((1.0, 0.5), (2.0, 1.0))
        assert value.values[1].unit == "cm"

    def test_repeat_forms(self):
        assert parse_one_value("[7 cm] * 3") == CrispTuple((7.0, 7.0, 7.0), "cm")
        value = parse_one_value("[{1/0.5 + 2/1} cm] * 2")
        assert isinstance(value, FuzzyTuple) and len(value.values) == 2

    def test_intervals(self):
        assert parse_one_value("interval(0, 180) deg") == Interval(0.0, 180.0, "deg")
        closed = parse_one_value("interval[0, 1]")
        assert closed == Interval(0.0, 1.0, None, False, False)

    def test_truth_and_markers(self):
        assert parse_one_value("fuzzy(0.8)") == TruthDegree(0.8)
        net, _ = parse_network('class T { property p1 "P" : fuzzy; property p2 "Q" : absent; }')
        assert net.entity("T").get_property("p1").value == FuzzyMarker()
        assert net.entity("T").get_property("p2").value == Absent()

    def test_fuzzy_set_literal(self):
        value = parse_one_value("{1.8/0.9 + 2/1 + 2.1/0.95} cm")
        assert isinstance(value, Fuzzy)
        assert value.value.elements == ((1.8, 0.9), (2.0, 1.0), (2.1, 0.95))

    def test_value_errors(self):
        assert errors_of('class T { property p1 "P" = (4); }')
        assert errors_of('class T { property p1 "P" = [2] * 1; }')
        assert errors_of('class T { property p1 "P" = (1, {2/1}); }')
        assert errors_of('class T { property p1 "P" = fuzzy(2); }')
        assert errors_of('class T { property p1 "P" = interval(5, 2); }')


class TestDiagnostics:
    def test_positions_and_rendering(self):
        diags = errors_of('class Bad {\n  property p1 = 4;\n}\n')
        missing = diags[0]
        assert (missing.line, missing.col) == (2, 15)
        assert "property semantic" in missing.message
        assert str(missing) == f"2:15: error: {missing.message}"

    def test_all_errors_reported(self):
        text = (
            'object O1 {\n'
            '  p1 = 1;\n'
            '}\n'
            '\n'
            'object O2 {\n'
            '  p2 "Weight" = fuzzy(2);\n'
            '}\n'
            '\n'
            'relation O1 likes O2;\n'
        )
        diags = errors_of(text)
        messages = [d.message for d in diags]
        assert len(diags) == 3
        assert any("needs a semantic string" in m for m in messages)
        assert any("truth degree" in m for m in messages)
        assert any("unknown relation kind" in m for m in messages)

    def test_recovery_inside_a_block(self):
        # the bad property is reported, the good one still parses and so
        # does the following statement
        text = (
            'class T {\n'
            '  property p1 "P" = ;\n'
            '  property p2 "Q" = 2;\n'
            '}\n'
            'object O : T { p2 = 2; }\n'
            'relation O instance-of T;\n'
        )
        diags = errors_of(text)
        assert len(diags) == 1
        assert (diags[0].line, diags[0].col) == (2, 21)

    def test_unterminated_string(self):
        diags = errors_of('class T { property p1 "oops = 4; }')
        assert diags[0].message == "unterminated string"

    def test_escaped_line_break_ends_the_string(self):
        # an escaped break ends the string too, so no diagnostic drifts a
        # line away from its text
        diags = errors_of('class T {\n  property p1 "a\\\nb" = 1;\n  bogus;\n}\n')
        assert (diags[0].message, diags[0].line, diags[0].col) == ("unterminated string", 2, 15)
        assert all(d.line == 2 for d in diags)

    def test_comment_advances_the_column(self):
        [diag] = errors_of('class T { property p1 "P" = 1; // no closing brace')
        assert (diag.message, diag.line, diag.col) == ("expected }, got end of file", 1, 51)

    def test_unexpected_character(self):
        diags = errors_of('class T { property p1 "P" = 4 @ ; }')
        assert "unexpected character" in diags[0].message

    def test_non_finite_literal_is_one_diagnostic(self):
        # 1e999 overflows to inf; it is refused where it stands
        assert [(d.message, d.line, d.col) for d in errors_of('object O { p1 "P" = 1e999; }')] == [
            ("number out of range: the literal overflows to inf", 1, 21)
        ]

    @pytest.mark.parametrize("text, col", [
        ('class T { property p1 "P" = (1, -1e999); }', 33),
        ('class T { property p1 "P" = [2e400] * 3; }', 30),
        ('class T { property p1 "P" = [2] * 1e999; }', 35),
        ('class T { property p1 "P" = {1e999/1}; }', 30),
        ('class T { property p1 "P" = interval(0, 1e999); }', 41),
        ('class T { property p1 "P" = fuzzy(1e999); }', 35),
        ('object O { p1 "P" = 1; }\nmodifier M object O -> O2 { p1: 1 -> 1e999; }', 38),
        ('class A { property p "P" = 1; }\nrelation A is-a A degree 1e999;', 26),
    ], ids=["tuple", "repeat", "repeat count", "fuzzy support", "interval", "truth", "change",
            "relation degree"])
    def test_non_finite_literal_is_reported_at_the_literal(self, text, col):
        diags = errors_of(text)
        line = text.count("\n") + 1
        assert (diags[0].line, diags[0].col) == (line, col)
        assert [d.message for d in diags].count(diags[0].message) == 1
        assert diags[0].message.startswith("number out of range: the literal overflows to ")

    @pytest.mark.parametrize("support, message", [
        ("x", "expected a support, got 'x'"),
        ("1e999", "number out of range: the literal overflows to inf"),
    ])
    def test_error_inside_a_fuzzy_literal_is_one_diagnostic(self, support, message):
        # the member resumes past the literal's '}' and its own ';', so the
        # members after it, and the next statement, still parse
        text = (f'object O {{ p1 "P" = 1; p3 "R" = {{{support}/1}}; p4 "S" = ; }}\n'
                'object P { q = ; }')
        assert [(d.message, d.line, d.col) for d in errors_of(text)] == [
            (message, 1, 34), ("expected a value, got ';'", 1, 48 + len(support)),
            ("expected a value, got ';'", 2, 16),
        ]

    def test_unknown_statement(self):
        diags = errors_of("network X;")
        assert "expected class, object, relation or modifier" in diags[0].message

    def test_bad_method_body(self):
        diags = errors_of('class T { method f1 "F" = "a +" bind a = p1; }')
        assert any("offset" in d.message for d in diags)

    def test_member_errors_are_placed_at_the_member(self):
        # each refused member is reported at its own first token, and the
        # next member is still parsed
        text = (
            'class T {\n'
            '  property p1 "P" = 2;\n'
            '  method f1 "A" = "a +" bind a = p1;\n'
            '  method f2 "B" = "b" bind c = p1;\n'
            '  bogus;\n'
            '}\n'
        )
        diags = errors_of(text)
        assert [(d.line, d.col) for d in diags] == [(3, 3), (4, 3), (5, 3)]
        assert "offset 3" in diags[0].message
        assert "unbound variables ['b']" in diags[1].message
        assert "expected property, method or extension" in diags[2].message

    def test_object_member_errors_are_placed_at_the_member(self):
        text = (
            'object O {\n'
            '  p1 "P" = 2;\n'
            '  method f1 "A" = "a" bind a = p1, a = p1;\n'
            '  p2 "Q" = interval(3, 1);\n'
            '  method f2 "B" = "b" bind c = p1;\n'
            '}\n'
        )
        diags = errors_of(text)
        assert [(d.line, d.col) for d in diags] == [(3, 3), (4, 3), (5, 3)]

    def test_every_refused_change_is_reported(self):
        text = (
            'object O { p1 "P" = 1; p2 "Q" = 2; }\n'
            'modifier M object O -> O2 {\n'
            '  p1: 1 -> 1;\n'
            '  p2: 2 -> 2;\n'
            '  p1: 1 -> 3;\n'
            '}\n'
        )
        diags = errors_of(text)
        assert [(d.line, d.col) for d in diags] == [(3, 3), (4, 3)]
        assert all("must alter the value" in d.message for d in diags)

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 0.05])
    def test_a_change_is_judged_exactly_at_any_tolerance(self, tol):
        text = 'object O { p1 "P" = 1; }\nmodifier M object O -> O2 {\n  p1: 1 -> %s;\n}\n'
        net, _ = parse_network(text % "1.0000000001", tol)
        assert net.modifiers["M"].changes[0].after == CrispNumber(1.0000000001)
        with pytest.raises(DslError) as info:
            parse_network(text % "1", tol)
        first = info.value.diagnostics[0]
        assert (first.line, first.col) == (3, 3)
        assert "must alter the value, both sides are 1" in first.message

    def test_family_outside_sum_is_refused_at_load(self):
        text = (
            'class T {\n'
            '  property p2 "Sides" : fuzzy;\n'
            '  method f1 "Perimeter" = "sum(a)" bind a = p2[*];\n'
            '  method f2 "Broken" = "a + 1" bind a = p2[*];\n'
            '}\n'
        )
        [diag] = errors_of(text)
        assert (diag.line, diag.col) == (4, 3)
        assert "family variable 'a' can only appear inside sum()" in diag.message

    def test_unknown_declared_class(self):
        diags = errors_of('object O : Nope { p1 "P" = 1; }')
        assert "unknown class" in diags[0].message

    def test_no_partial_network_on_error(self):
        with pytest.raises(DslError):
            parse_network('class Good { property p1 "P" = 1; }\nclass Bad {}\n')


class TestStatementOrder:
    def test_diagnostics_come_in_build_phase_order(self):
        # parse errors first, in text order; then the build errors of
        # classes, objects, relations and modifiers, each at its statement
        text = (
            'relation O likes T;\n'
            'modifier M object O -> O2 { p1 1 -> 2; }\n'
            'object O : Nope { p1 "P" = 1; }\n'
            'class T {}\n'
        )
        diags = errors_of(text)
        assert [(d.severity, d.line, d.col) for d in diags] == [
            ("error", 2, 32),  # parse: the change lacks its ':'
            ("error", 4, 1),  # class: no properties
            ("error", 3, 1),  # object: unknown declared class
            ("error", 1, 1),  # relation: unknown kind
            ("error", 2, 1),  # modifier: no changes left
        ]

    def test_any_statement_order_builds_the_same_network(self):
        with open(POLYGONS, encoding="utf-8") as f:
            header, *statements = re.split(r"(?m)^(?=class |object |relation |modifier )", f.read())
        assert len(statements) == 17
        expected = dumps(parse_network(header + "".join(statements))[0])
        orders = [statements[::-1]] + [random.Random(seed).sample(statements, 17) for seed in range(3)]
        for order in orders:
            net, warnings = parse_network("".join(order))
            assert warnings == []
            assert dumps(net) == expected


FIXTURE_TEXTS = [Path(path).read_text(encoding="utf-8") for path in (POLYGONS, DISJOINT)]
# pieces that sit on the lexical rules' edges: quotes and escapes, line
# breaks, comments, arrows, hyphens (one before a numeral that is not a
# letter), letters outside ASCII, a decimal digit outside ASCII, and
# numerals that are not letters
EDIT_PIECES = ['"', "\\", "\n", "\r", "//", "->", "-.", "-", "-²", "é", "ǅ", "٣", "²", "½", " "]


@st.composite
def edited_fixtures(draw):
    """A bundled fixture after 1-4 edits; each replaces 0-3 characters with
    0-3 pieces, so it inserts, deletes or replaces."""
    text = draw(st.sampled_from(FIXTURE_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 3)))
        text = text[:start] + "".join(draw(st.lists(st.sampled_from(EDIT_PIECES), max_size=3))) + text[end:]
    return text


class TestTokenizer:
    def test_token_stream(self):
        text = (
            "relation O1 instance-of T_x degree .5; // a comment -> 3\n"
            'p1: "say \\"hi\\"" -2 -> -0.25e1;\n'
        )
        tokens, diags = _tokenize(text)
        assert diags == []
        assert [tuple(t) for t in tokens] == [
            ("ident", "relation", 1, 1),
            ("ident", "O1", 1, 10),
            ("ident", "instance-of", 1, 13),
            ("ident", "T_x", 1, 25),
            ("ident", "degree", 1, 29),
            ("number", 0.5, 1, 36),
            ("punct", ";", 1, 38),
            ("ident", "p1", 2, 1),
            ("punct", ":", 2, 3),
            ("string", 'say "hi"', 2, 5),
            ("number", -2.0, 2, 18),
            ("punct", "->", 2, 21),
            ("number", -2.5, 2, 24),
            ("punct", ";", 2, 31),
            ("eof", None, 3, 1),
        ]

    @pytest.mark.parametrize("text, tokens, diags", [
        ("x² a", [("ident", "x²", 1, 1), ("ident", "a", 1, 4), ("eof", None, 1, 5)], []),
        ("²x", [("eof", None, 1, 1)], [("error", "unexpected character '²'", 1, 1)]),
        ("a-²", [("ident", "a", 1, 1), ("eof", None, 1, 2)], [("error", "unexpected character '-'", 1, 2)]),
        ("a--b", [("ident", "a", 1, 1), ("eof", None, 1, 2)], [("error", "unexpected character '-'", 1, 2)]),
        ("-.x", [("eof", None, 1, 1)], [("error", "unexpected character '-'", 1, 1)]),
        ("1-2", [("number", 1.0, 1, 1), ("number", -2.0, 1, 2), ("eof", None, 1, 4)], []),
        ("x-1e5", [("ident", "x", 1, 1), ("number", -100000.0, 1, 2), ("eof", None, 1, 6)], []),
        ("a-b-c", [("ident", "a-b-c", 1, 1), ("eof", None, 1, 6)], []),
        ("é_1", [("ident", "é_1", 1, 1), ("eof", None, 1, 4)], []),
        ("٣", [("number", 3.0, 1, 1), ("eof", None, 1, 2)], []),
    ])
    def test_edge_streams(self, text, tokens, diags):
        # a numeral that is not a letter ('²') may continue an identifier but
        # not start one or follow its hyphen; a decimal digit in any script is a digit
        got, got_diags = _tokenize(text)
        assert [tuple(t) for t in got] == tokens
        assert [(d.severity, d.message, d.line, d.col) for d in got_diags] == diags

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=edited_fixtures())
    def test_matches_the_character_loop(self, text):
        tokens, diags = _tokenize(text)
        expected_tokens, expected_diags = oracle_tokenize(text)
        assert [tuple(t) for t in tokens] == expected_tokens
        assert [(d.severity, d.message, d.line, d.col) for d in diags] == expected_diags

    @pytest.mark.parametrize("text, message, position", [
        ('class T {\n  property p1 "oops = 4; }', "unterminated string", (2, 15)),
        ('class T {\n  property p1 "P" = 4 @ ; }', "unexpected character '@'", (2, 23)),
    ])
    def test_error_positions(self, text, message, position):
        tokens, diags = _tokenize(text)
        assert [(d.severity, d.message, d.line, d.col) for d in diags] == [
            ("error", message, *position)
        ]
        assert tuple(tokens[-1]) == ("eof", None, *position)  # tokenizing stops there
        first = errors_of(text)[0]
        assert (first.message, first.line, first.col) == (message, *position)

    @pytest.mark.parametrize("text, message, position", [
        ('class T {\n  property p1 "a\\\nb" = 1;\n  bogus;\n}', "unterminated string", (2, 15)),
        ('class T {\n  property p1 "P" = 4 @ ;\n  bogus;\n}', "unexpected character '@'", (2, 23)),
    ])
    def test_bad_character_is_one_diagnostic(self, text, message, position):
        # the parser reports nothing at the end-of-file token the tokenizer put there
        assert [(d.message, d.line, d.col) for d in errors_of(text)] == [(message, *position)]


class TestWarnings:
    def test_reflection_lint(self):
        text = (
            'class Target { property p1 "Kind" = 5; }\n'
            'object O { p1 "Kind" = 1; }\n'
            'modifier M object O -> O_next target-class Target {\n'
            '  p1: 1 -> 2;\n'
            '}\n'
        )
        net, warnings = parse_network(text)
        assert len(warnings) == 1
        assert warnings[0].severity == "warning"
        assert "would not belong" in warnings[0].message
        assert (warnings[0].line, warnings[0].col) == (3, 1)
        assert "M" in net.modifiers  # a warning does not block the build

    def test_reflection_lint_on_a_semantic_mismatch(self):
        text = (
            'class Target { property p1 "Colour" = 2; }\n'
            'object O { p1 "Kind" = 1; }\n'
            'modifier M object O -> O_next target-class Target {\n'
            '  p1: 1 -> 2;\n'
            '}\n'
        )
        _, warnings = parse_network(text)
        assert [(w.severity, w.message, w.line, w.col) for w in warnings] == [(
            "warning", "modifier M: the result would not belong to its target class Target", 3, 1,
        )]

    @pytest.mark.parametrize("modifier", [
        "modifier M object Gone -> O_next target-class Target { p1: 1 -> 2; }",  # no source object
        "modifier M object O -> O_next target-class Gone { p1: 1 -> 2; }",  # no target class
        "modifier M object O -> O_next target-class Target { p1: 3 -> 2; }",  # does not apply
    ], ids=["unknown source", "unknown target class", "not applicable"])
    def test_reflection_lint_stays_silent_when_it_cannot_judge(self, modifier):
        text = (
            'class Target { property p1 "Kind" = 5; }\n'
            'object O { p1 "Kind" = 1; }\n' + modifier + "\n"
        )
        net, warnings = parse_network(text)
        assert warnings == [] and "M" in net.modifiers

    def test_fixture_parses_clean(self, polygons):
        # the conftest fixture already asserts zero warnings; spot-check one
        # modifier that names a target class and does satisfy it
        assert polygons.modifiers["M2_Rb1"].target_class == "T_Sq"


class TestExtensionsAndCounts:
    def test_extensional_class_lists_its_members(self):
        text = (
            "class Pair extensional { extension a, b; }\n"
            'object a { p1 "P" = 1; }\n'
            'object c { p1 "P" = 1; }\n'
        )
        net, _ = parse_network(text)
        pair = net.classes["Pair"]
        assert (pair.mode, pair.extension, pair.specification) == ("extensional", ("a", "b"), ())
        assert net.membership("a", "Pair") == 1.0
        assert net.membership("c", "Pair") == 0.0
        assert '"extension": [\n        "a",\n        "b"\n      ]' in dumps(net)

    def test_extension_needs_a_member_name(self):
        assert [d.message for d in errors_of("class Pair extensional { extension ; }")] == [
            "expected a member name, got ';'",
            "class Pair: extensional classes need members",
        ]

    def test_count_selector_binds_the_number_of_components(self):
        text = (
            'object Sq { p2 "Sides" = (3, 3, 3, 3) cm; p1 "Kind" = 7;\n'
            '  method n "Corners" = "k" bind k = count(p2);\n'
            '  method m "Ones" = "k" bind k = count(p1); }\n'
        )
        net, _ = parse_network(text)
        sq = net.objects["Sq"]
        [binding] = sq.get_method("n").bindings
        assert (binding.var, binding.prop, binding.accessor, binding.index) == ("k", "p2", "count", None)
        assert eval_method(sq, "n") == 4.0
        assert eval_method(sq, "m") == 1.0  # a scalar counts as one
