"""End-to-end command line tests; outputs are frozen as golden bytes."""
from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from conftest import DISJOINT, POLYGONS, run_cli
from foodn import load_file, to_document

GOLDEN = Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


class TestGoldenOutputs:
    def test_load_counts(self):
        code, out, err = run_cli("load", "--in", POLYGONS)
        assert (code, err) == (0, "")
        assert out == golden("load_polygons.txt")

    def test_fuzzy_text(self):
        code, out, err = run_cli("fuzzy", "--in", POLYGONS)
        assert (code, err) == (0, "")
        assert out == golden("fuzzy_polygons.txt")

    def test_fuzzy_doc(self):
        code, out, err = run_cli("fuzzy", "--in", POLYGONS, "--format", "doc")
        assert (code, err) == (0, "")
        assert out == golden("fuzzy_polygons.json")
        assert json.loads(out)["fuzzy"] is True

    def test_membership(self):
        code, out, err = run_cli("membership", "Rb1", "T_Rb", "--in", POLYGONS)
        assert (code, out, err) == (0, golden("membership_rb1_trb.txt"), "")
        assert out == "0.8\n"

    def test_eval(self):
        code, out, err = run_cli("eval", "Rb1", "f1", "--in", POLYGONS)
        assert (code, err) == (0, "")
        assert out == golden("eval_rb1_f1.txt")
        code, out, err = run_cli("eval", "Sq1", "f2", "--in", POLYGONS)
        assert (code, err) == (0, "")
        assert out == golden("eval_sq1_f2.txt")

    def test_export_dot_overlay(self):
        code, out, err = run_cli("export-dot", "--in", POLYGONS,
                                 "--overlay", "T_Rb", "T_Sq")
        assert (code, err) == (0, "")
        assert out == golden("dot_overlay.txt")

    def test_disjoint_intersection_fails_cleanly(self):
        code, out, err = run_cli("apply-exploiter", "intersect", "A", "B",
                                 "--in", DISJOINT)
        assert code == 1
        assert out == ""
        assert err == golden("disjoint_intersect.txt")


WARNED = (
    'class Target { property p1 "Kind" = 5; }\n'
    'object O { p1 "Kind" = 1; }\n'
    'modifier M object O -> O_next target-class Target { p1: 1 -> 2; }\n'
)
CRISP = 'object O {\n  p1 "Base" = 6 cm;\n  method f1 "Half" = "b/2" bind b = p1 unit cm;\n}\n'
WARNING = "3:1: warning: modifier M: the result would not belong to its target class Target"
RB1_F1_DOC = """{
  "value": {
    "elements": [
      [
        7.2,
        0.9
      ],
      [
        8.0,
        1.0
      ],
      [
        8.4,
        0.95
      ]
    ],
    "kind": "fuzzy",
    "unit": "cm"
  }
}
"""

# (argv, stdout) for every subcommand that reports; {polygons}, {warned} and
# {crisp} name input files and {out} a file to write
PRINTED = [
    (["load"], "objects: 2\nclasses: 3\nrelations: 5\nexploiters: 5\nmodifiers: 7\n"),
    (["load", "--format", "doc"],
     '{\n  "classes": 3,\n  "exploiters": 5,\n  "modifiers": 7,\n  "objects": 2,\n'
     '  "relations": 5\n}\n'),
    (["check"], "ok\n"),
    (["check", "--format", "doc"], '{\n  "ok": true,\n  "warnings": []\n}\n'),
    (["check", "--in", "{warned}"], f"warning: {WARNING}\nok\n"),
    (["check", "--in", "{warned}", "--format", "doc"],
     f'{{\n  "ok": true,\n  "warnings": [\n    "{WARNING}"\n  ]\n}}\n'),
    (["membership", "Rb1", "T_Rb"], "0.8\n"),
    (["membership", "Rb1", "T_Rb", "--format", "doc"], '{\n  "membership": 0.8\n}\n'),
    (["query", "T_Sq", "a-kind-of", "is-a", "--transitive"], "T_Pg\nT_Rb\n"),
    (["query", "T_Sq", "a-kind-of", "is-a", "--transitive", "--format", "doc"],
     '{\n  "related": [\n    "T_Pg",\n    "T_Rb"\n  ]\n}\n'),
    (["eval", "Rb1", "f1"], "{7.2/0.9 + 8/1 + 8.4/0.95} cm\n"),
    (["eval", "Rb1", "f1", "--format", "doc"], RB1_F1_DOC),
    (["eval", "O", "f1", "--in", "{crisp}"], "3 cm\n"),
    (["eval", "O", "f1", "--in", "{crisp}", "--format", "doc"],
     '{\n  "value": {\n    "kind": "number",\n    "unit": "cm",\n    "value": 3.0\n  }\n}\n'),
    (["apply-exploiter", "intersection", "T_Rb", "T_Sq"], "created intersection_T_Rb_T_Sq\n"),
    (["apply-exploiter", "intersection", "T_Rb", "T_Sq", "--format", "doc"],
     '{\n  "created": "intersection_T_Rb_T_Sq"\n}\n'),
    (["apply-modifier", "M1_Sq1", "Sq1"], "created Rb1_2\n"),
    (["apply-modifier", "M1_Sq1", "Sq1", "--format", "doc"], '{\n  "created": "Rb1_2"\n}\n'),
    (["save", "--out", "{out}"], ""),
    (["export-dot", "--out", "{out}"], ""),
]


class TestPrintedOutput:
    @pytest.mark.parametrize("argv, expected", PRINTED, ids=[" ".join(a) for a, _ in PRINTED])
    def test_stdout(self, tmp_path, argv, expected):
        files = {"polygons": POLYGONS, "out": str(tmp_path / "out")}
        for name, text in (("warned", WARNED), ("crisp", CRISP)):
            files[name] = str(tmp_path / f"{name}.foodn")
            Path(files[name]).write_text(text)
        if "--in" not in argv:
            argv = [*argv, "--in", "{polygons}"]
        code, out, err = run_cli(*(arg.format(**files) for arg in argv))
        assert (code, out, err) == (0, expected, "")
        if "{out}" in argv:
            assert Path(files["out"]).stat().st_size > 0


class TestCommands:
    def test_check(self):
        code, out, err = run_cli("check", "--in", POLYGONS)
        assert (code, out, err) == (0, "ok\n", "")

    def test_check_reports_warnings(self, tmp_path):
        path = tmp_path / "warned.foodn"
        path.write_text(WARNED)
        code, out, err = run_cli("check", "--in", str(path))
        assert code == 0
        assert out.startswith("warning: 3:1: warning: modifier M")
        assert out.endswith("ok\n")

    def test_membership_tnorm_flag(self):
        code, out, _ = run_cli("membership", "Sq1", "T_Sq", "--in", POLYGONS,
                               "--tnorm", "product")
        assert (code, out) == (0, "1\n")

    def test_query(self):
        code, out, err = run_cli("query", "T_Sq", "a-kind-of", "is-a",
                                 "--transitive", "--in", POLYGONS)
        assert (code, err) == (0, "")
        assert out == "T_Pg\nT_Rb\n"
        code, out, _ = run_cli("query", "T_Pg", "a-kind-of",
                               "--direction", "in", "--in", POLYGONS)
        assert out == "T_Rb\nT_Sq\n"

    def test_eval_crisp_result_carries_unit(self, tmp_path):
        path = tmp_path / "crisp.foodn"
        path.write_text(CRISP)
        code, out, _ = run_cli("eval", "O", "f1", "--in", str(path))
        assert (code, out) == (0, "3 cm\n")

    def test_apply_exploiter_saves(self, tmp_path):
        out_path = tmp_path / "after.json"
        code, out, _ = run_cli("apply-exploiter", "intersection", "T_Rb", "T_Sq",
                               "--in", POLYGONS, "--out", str(out_path))
        assert code == 0
        assert out == "created intersection_T_Rb_T_Sq\n"
        doc = json.loads(out_path.read_text())
        names = [c["name"] for c in doc["classes"]]
        assert "intersection_T_Rb_T_Sq" in names
        assert doc["provenance"][0]["op"] == "intersection"

    def test_apply_modifier_saves(self, tmp_path):
        out_path = tmp_path / "after.json"
        code, out, _ = run_cli("apply-modifier", "M1_Sq1", "Sq1",
                               "--in", POLYGONS, "--out", str(out_path))
        assert (code, out) == (0, "created Rb1_2\n")
        doc = json.loads(out_path.read_text())
        assert doc["history"] == {"Sq1": "object"}

    def test_clone_with_index(self):
        code, out, _ = run_cli("apply-exploiter", "clone", "Rb1",
                               "--index", "3", "--in", POLYGONS)
        assert (code, out) == (0, "created Rb1_clone3\n")

    def test_save_round_trip(self, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        assert run_cli("save", "--in", POLYGONS, "--out", str(first))[0] == 0
        assert run_cli("save", "--in", str(first), "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_export_dot_to_file(self, tmp_path):
        out_path = tmp_path / "graph.dot"
        code, out, _ = run_cli("export-dot", "--in", POLYGONS, "--out", str(out_path))
        assert (code, out) == (0, "")
        assert out_path.read_text().startswith("digraph foodn {")


class TestToleranceEnv:
    def test_loose_tolerance_changes_membership(self):
        env = dict(os.environ, FOODN_TOLERANCE="20")
        code, out, _ = run_cli("membership", "Rb1", "T_Sq", "--in", POLYGONS, env=env)
        assert (code, out) == (0, "0.8\n")
        # at the default tolerance the angles rule the square out
        code, out, _ = run_cli("membership", "Rb1", "T_Sq", "--in", POLYGONS)
        assert (code, out) == (0, "0\n")

    def test_bad_tolerance(self):
        env = dict(os.environ, FOODN_TOLERANCE="wide")
        code, _, err = run_cli("load", "--in", POLYGONS, env=env)
        assert code == 2
        assert "FOODN_TOLERANCE" in err

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_tolerance_must_be_finite_and_non_negative(self, value):
        env = dict(os.environ, FOODN_TOLERANCE=value)
        code, out, err = run_cli("membership", "Rb1", "T_Rb", "--in", POLYGONS, env=env)
        assert (code, out) == (2, "")
        assert err.startswith("error: FOODN_TOLERANCE")


class TestExitCodes:
    def test_domain_errors_are_1(self):
        code, _, err = run_cli("membership", "Nope", "T_Rb", "--in", POLYGONS)
        assert code == 1 and "no live object" in err
        code, _, err = run_cli("apply-modifier", "M2_Rb1", "Sq1", "--in", POLYGONS)
        assert code == 1 and "does not apply" in err
        code, _, err = run_cli("eval", "Rb1", "zz", "--in", POLYGONS)
        assert code == 1 and "no method" in err

    def test_parse_errors_are_2_with_positions(self, tmp_path):
        path = tmp_path / "broken.foodn"
        path.write_text('class Bad {\n  property p1 = 4;\n}\n')
        code, out, err = run_cli("load", "--in", str(path))
        assert code == 2
        assert out == ""
        assert f"{path}:2:15: error:" in err

    def test_overflowed_trig_argument_is_1(self, tmp_path):
        path = tmp_path / "trig.foodn"
        path.write_text(
            'object O {\n'
            '  p "P" = 1e308;\n'
            '  q "Q" = 10;\n'
            '  method f "F" = "sin(a*b)" bind a = p, b = q;\n'
            '}\n'
        )
        code, out, err = run_cli("eval", "--in", str(path), "O", "f")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_too_deep_method_body_is_2(self, tmp_path):
        path = tmp_path / "deep.foodn"
        body = "+".join(["a"] * 2000)
        path.write_text(f'object O {{\n  p "P" = 1;\n  method f "F" = "{body}" bind a = p;\n}}\n')
        code, out, err = run_cli("load", "--in", str(path))
        assert (code, out) == (2, "")
        assert "deeper than" in err
        assert "Traceback" not in err

    def test_corrupt_json_is_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli("load", "--in", str(path))
        assert code == 2 and "not valid JSON" in err

    @pytest.mark.parametrize("corrupt", [
        "unknown endpoint", "empty interval", "provenance op", "extension member", "history",
        "exploiters",
    ])
    def test_invalid_document_is_2(self, tmp_path, corrupt):
        doc = to_document(load_file(POLYGONS)[0])
        if corrupt == "unknown endpoint":
            doc["relations"].append(
                {"source": "Nope", "target": "T_Rb", "kind": "instance-of", "degree": 1.0})
        elif corrupt == "provenance op":
            doc["provenance"].append(
                {"seq": 1, "op": 5, "sources": ["Sq1"], "target": "Rb1_2", "changes": []})
        elif corrupt == "extension member":  # once loaded, and save then died in sorted()
            doc["classes"].append({"kind": "class", "name": "U", "mode": "extensional",
                                   "extension": [5, "Rb1"], "properties": [], "methods": []})
        elif corrupt == "history":  # once loaded as {"S": "q"}
            doc["history"] = ["Sq"]
        elif corrupt == "exploiters":  # once loaded, and save wrote the five back
            doc["exploiters"] = []
        else:
            [t_rb] = [c for c in doc["classes"] if c["name"] == "T_Rb"]
            [angles] = [p for p in t_rb["properties"] if p["id"] == "p4"]
            angles["value"]["lo"] = angles["value"]["hi"]
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli("load", "--in", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: bad network document:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_too_deep_document_is_2(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run_cli("load", "--in", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: not valid JSON:") and "Traceback" not in err

    def test_nested_heterogeneous_projection_is_2(self, tmp_path):
        # union refuses heterogeneous arguments, so no network holds such a class
        doc = to_document(load_file(POLYGONS)[0])
        het = {"kind": "heterogeneous-class", "name": "H0", "projections": doc["classes"][:2]}
        for depth in range(1, 300):
            projections = [het, {**doc["classes"][2], "name": f"S{depth}"}]
            het = {"kind": "heterogeneous-class", "name": f"H{depth}", "projections": projections}
        doc["classes"].append(het)
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli("membership", "Rb1", "H299", "--in", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: bad network document:") and "Traceback" not in err
        assert "every projection must be a homogeneous class" in err

    @pytest.mark.parametrize("argv", [
        ["clone", "Rb1", "--name", "Foo"],
        ["union", "Rb1", "Sq1", "--index", "4"],
        ["symdiff", "T_Rb"],
    ])
    def test_exploiter_arguments_that_do_not_apply_are_1(self, argv):
        code, out, err = run_cli("apply-exploiter", *argv, "--in", POLYGONS)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_non_integer_binding_index_is_2(self, tmp_path):
        doc = to_document(load_file(POLYGONS)[0])
        [rb1] = [o for o in doc["objects"] if o["name"] == "Rb1"]
        [f1] = [m for m in rb1["methods"] if m["id"] == "f1"]
        f1["bindings"][0]["index"] = 1.5
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli("eval", "--in", str(path), "Rb1", "f1")
        assert (code, out) == (2, "")
        assert err.startswith("error: bad network document:") and err.count("\n") == 1
        assert "1-based integers" in err and "Traceback" not in err

    def test_non_string_property_id_is_2(self, tmp_path):
        # refused at load, before membership can answer 0 or save crash in a sort
        doc = to_document(load_file(POLYGONS)[0])
        [rb1] = [o for o in doc["objects"] if o["name"] == "Rb1"]
        [p6] = [p for p in rb1["properties"] if p["id"] == "p6"]
        p6["id"] = 6
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        saved = tmp_path / "saved.json"
        for command in (["membership", "Rb1", "T_Rb"], ["save", "--out", str(saved)]):
            code, out, err = run_cli(*command, "--in", str(path))
            assert (code, out) == (2, "")
            assert err.startswith("error: bad network document:") and err.count("\n") == 1
            assert "property id must be a string" in err and "Traceback" not in err
        assert not saved.exists()

    def test_non_finite_literal_is_2(self, tmp_path):
        # 1e999 overflows to inf: refused at the literal, never saved as Infinity
        path = tmp_path / "inf.foodn"
        path.write_text('object O { p1 "P" = 1; }\nmodifier M object O -> O2 { p1: 1e999 -> 2; }\n')
        saved = tmp_path / "saved.json"
        for command in (["check"], ["save", "--out", str(saved)], ["apply-modifier", "M", "O"]):
            code, out, err = run_cli(*command, "--in", str(path))
            assert (code, out) == (2, "")
            assert err.startswith(f"{path}:2:33: error: number out of range") and "Traceback" not in err
        assert not saved.exists()

    @pytest.mark.parametrize("edit", [
        ("  p1 = 4;\n  p2 = [{1.8", "  p1 = 91e3095;\n  p2 = [{1.8"),  # Rb1's count
        ("{2.7/0.85 + 3/1", "{2.7/0.85 + 91e3095/1"),  # a support of Sq1's sides
        ("p6 = fuzzy(0.8);\n}", "p6 = fuzzy(0.8);\n}\nobject O { p1 \"P\" = 1e999; }"),
        ("p6 = fuzzy(0.8);\n}", "p6 = fuzzy(0.8);\n}\nobject O { p1 \"P\" = (1e999, 2); }"),
    ], ids=["91e3095 count", "91e3095 support", "1e999", "1e999 in a tuple"])
    def test_overflowing_literal_in_the_fixture_is_2(self, tmp_path, edit):
        # found by editing the fixture at random: such a literal once crashed
        # foodn check with a traceback while its message was being formatted
        text = Path(POLYGONS).read_text(encoding="utf-8")
        assert text.count(edit[0]) >= 1
        path = tmp_path / "edited.foodn"
        path.write_text(text.replace(edit[0], edit[1], 1), encoding="utf-8")
        code, out, err = run_cli("check", "--in", str(path))
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert lines and all(line.startswith(f"{path}:") and ": error: " in line for line in lines)
        assert "number out of range" in err and "Traceback" not in err

    def test_non_finite_document_value_is_2(self, tmp_path):
        doc = to_document(load_file(POLYGONS)[0])
        [rb1] = [o for o in doc["objects"] if o["name"] == "Rb1"]
        [p1] = [p for p in rb1["properties"] if p["id"] == "p1"]
        p1["value"]["value"] = float("inf")
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli("eval", "--in", str(path), "Rb1", "f1")
        assert (code, out) == (2, "")
        assert err == "error: bad network document: a number must be finite, got inf\n"

    @pytest.mark.parametrize("key, value, message", [
        ("name", 5, "modifier name must be a string, got 5"),
        ("target_name", "", "modifier 'M1_Sq1': target_name must be non-empty"),
    ])
    def test_bad_modifier_document_is_2(self, tmp_path, key, value, message):
        # refused at load, before save can crash in a sort or apply-modifier in a rename
        doc = to_document(load_file(POLYGONS)[0])
        [m1] = [m for m in doc["modifiers"] if m["name"] == "M1_Sq1"]
        m1[key] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        saved = tmp_path / "saved.json"
        for command in (["save", "--out", str(saved)], ["apply-modifier", "M1_Sq1", "Sq1"]):
            code, out, err = run_cli(*command, "--in", str(path))
            assert (code, out) == (2, "")
            assert err == f"error: bad network document: {message}\n"
        assert not saved.exists()

    def test_version_mismatch_is_2(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text('{"foodn_version": 99}')
        code, _, err = run_cli("load", "--in", str(path))
        assert code == 2 and "unsupported schema version" in err

    def test_missing_file_is_2(self):
        code, _, err = run_cli("load", "--in", "/nonexistent/net.foodn")
        assert code == 2 and "error:" in err

    def test_usage_error_is_2(self):
        code, _, err = run_cli("load")
        assert code == 2

    def test_unknown_exploiter_kind_is_usage_error(self):
        code, _, err = run_cli("apply-exploiter", "complement", "T_Rb",
                               "--in", POLYGONS)
        assert code == 2  # argparse rejects the choice
