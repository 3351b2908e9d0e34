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


class TestCommands:
    def test_check(self):
        code, out, err = run_cli("check", "--in", POLYGONS)
        assert (code, out, err) == (0, "ok\n", "")

    def test_check_reports_warnings(self, tmp_path):
        path = tmp_path / "warned.foodn"
        path.write_text(
            'class Target { property p1 "Kind" = 5; }\n'
            'object O { p1 "Kind" = 1; }\n'
            'modifier M object O -> O_next target-class Target { p1: 1 -> 2; }\n'
        )
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
        path.write_text(
            'object O {\n'
            '  p1 "Base" = 6 cm;\n'
            '  method f1 "Half" = "b/2" bind b = p1 unit cm;\n'
            '}\n'
        )
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

    @pytest.mark.parametrize("corrupt", ["unknown endpoint", "empty interval"])
    def test_invalid_document_is_2(self, tmp_path, corrupt):
        doc = to_document(load_file(POLYGONS)[0])
        if corrupt == "unknown endpoint":
            doc["relations"].append(
                {"source": "Nope", "target": "T_Rb", "kind": "instance-of", "degree": 1.0})
        else:
            [t_rb] = [c for c in doc["classes"] if c["name"] == "T_Rb"]
            [angles] = [p for p in t_rb["properties"] if p["id"] == "p4"]
            angles["value"]["lo"] = angles["value"]["hi"]
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli("load", "--in", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: bad network document:")
        assert "Traceback" not in err

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
