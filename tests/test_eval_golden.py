"""Exact evaluator outputs, pinned bit for bit.

Every method of both bundled fixtures, evaluated on every object at three
tolerances, and a six-side sum(p2[*]) perimeter written in the DSL, are
compared by float.hex with tests/golden/eval_hex.json.  An error is pinned
as its type and message.  Regenerate the file, after checking that a
change of output is meant, with

    PYTHONPATH=src python tests/test_eval_golden.py
"""
from __future__ import annotations

import json
from pathlib import Path

import foodn
from foodn.fuzzy import FuzzySet

GOLDEN = Path(__file__).parent / "golden" / "eval_hex.json"
TOLERANCES = (0.0, 1e-9, 0.05)
FIXTURES = ("polygons.foodn", "disjoint.foodn")


def wide_text(sides=6, supports=6):
    """One object whose perimeter enumerates supports**sides combinations.
    Supports are tenths, so sums taken in different orders can differ in
    their last bits and only a tolerance merges them."""
    body = ", ".join(
        "{" + " + ".join(
            f"{(10 * i + 3 * j) / 10}/{(100 - 13 * (i * j % 7)) / 100}" for j in range(supports)
        ) + "}"
        for i in range(1, sides + 1)
    )
    return (
        "class T_W {\n"
        '  property p2 "Lengths of sides" : fuzzy;\n'
        '  method f1 "Perimeter" = "sum(a)" bind a = p2[*] unit cm;\n'
        "}\n"
        f"object W : T_W {{ p2 = ({body}) cm; }}\n"
    )


def _networks():
    for name in FIXTURES:
        net, _ = foodn.load_file(foodn.fixture_path(name))
        yield name, net
    net, _ = foodn.parse_network(wide_text())
    yield "wide", net


def _shown(value):
    if isinstance(value, FuzzySet):
        return {"unit": value.unit, "elements": [[s.hex(), d.hex()] for s, d in value.elements]}
    return {"crisp": value.hex()}


def outputs() -> dict:
    """Every pinned evaluation, keyed network:owner.method@object@tol."""
    out = {}
    for name, net in _networks():
        owners = sorted({**net.classes, **net.objects}.items())
        for oname, obj in sorted(net.objects.items()):
            for owner, entity in owners:
                for method in entity.signature:
                    for tol in TOLERANCES:
                        key = f"{name}:{owner}.{method.id}@{oname}@{tol!r}"
                        try:
                            out[key] = _shown(foodn.evaluate_method(obj, method, tol))
                        except foodn.FoodnError as exc:
                            out[key] = {"error": f"{type(exc).__name__}: {exc}"}
    return out


def test_evaluator_outputs_are_bit_identical():
    assert outputs() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(outputs(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
