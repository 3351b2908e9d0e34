"""Reference answers that need no engine type.

Fuzzy values are plain lists of (support, degree) pairs.  `extend` is a
brute-force extension principle (explicit recursion over every support
combination); `fold_sum` adds fuzzy numbers pairwise with sup-min, the
independent answer for wide `sum(p2[*])` perimeters.  The bundled fixture's
facts are written out by hand from `src/foodn/data/polygons.foodn`.
"""
from __future__ import annotations

import math

TOL = 1e-9

POLYGONS = "src/foodn/data/polygons.foodn"
DISJOINT = "src/foodn/data/disjoint.foodn"

# polygons.foodn, read by hand.
FIXTURE_SIDES = {
    "Rb1": [(1.8, 0.9), (2.0, 1.0), (2.1, 0.95)],
    "Sq1": [(2.7, 0.85), (3.0, 1.0), (3.1, 0.95)],
}
FIXTURE_ALPHA = {"Rb1": 95.0}  # p4[1] in degrees
FIXTURE_COUNTS = {"objects": 2, "classes": 3, "relations": 5, "exploiters": 5, "modifiers": 7}
FIXTURE_RELATIONS = [
    ("Rb1", "T_Rb", "instance-of"),
    ("Sq1", "T_Sq", "instance-of"),
    ("T_Rb", "T_Pg", "a-kind-of"),
    ("T_Sq", "T_Pg", "a-kind-of"),
    ("T_Sq", "T_Rb", "is-a"),
]
# min over per-property compatibility; Sq1 has p6 = 1 where T_Rb wants a
# fuzzy value, Rb1's angles are not T_Sq's (90, 90, 90, 90).
FIXTURE_MEMBERSHIP = {
    ("Rb1", "T_Rb"): 0.8,
    ("Rb1", "T_Pg"): 1.0,
    ("Rb1", "T_Sq"): 0.0,
    ("Sq1", "T_Sq"): 1.0,
    ("Sq1", "T_Pg"): 1.0,
    ("Sq1", "T_Rb"): 0.0,
}
# Witnesses: Rb1, Sq1, T_Pg, T_Rb, T_Sq; no graded relation.
FIXTURE_WITNESSES = 5
# T_Rb and T_Sq agree on p1, p2, p3, p5 and on method f1 ("4*a").
FIXTURE_INTERSECTION = (["p1", "p2", "p3", "p5"], ["f1"])


def merge(pairs, tol=TOL):
    """Canonical form: sorted, supports within tol folded into the first,
    keeping the max degree."""
    out: list[list[float]] = []
    for s, d in sorted(pairs):
        if out and s - out[-1][0] <= tol:
            out[-1][1] = max(out[-1][1], d)
        else:
            out.append([s, d])
    return [(s, d) for s, d in out if d > 0.0]


def extend(f, args, tol=TOL):
    """Lift f over arguments that are floats or lists of (support, degree)."""
    pairs = []

    def recurse(i, values, degree):
        if i == len(args):
            pairs.append((float(f(*values)), degree))
            return
        arg = args[i]
        if isinstance(arg, float):
            recurse(i + 1, values + [arg], degree)
        else:
            for s, d in arg:
                recurse(i + 1, values + [s], min(degree, d))

    recurse(0, [], 1.0)
    return merge(pairs, tol)


def fold_sum(sides, tol=TOL):
    """sum over fuzzy numbers, two at a time: sup over pairs of min."""
    acc = merge(sides[0], tol)
    for side in sides[1:]:
        acc = merge([(a + s, min(da, d)) for a, da in acc for s, d in side], tol)
    return acc


def narrow_expected():
    """Expected results of f1 and f2 on the fixture's Rb1 and Sq1."""
    rb, sq = FIXTURE_SIDES["Rb1"], FIXTURE_SIDES["Sq1"]
    alpha = FIXTURE_ALPHA["Rb1"]
    return {
        ("Rb1", "f1"): (extend(lambda a: 4 * a, [rb]), "cm"),
        ("Rb1", "f2"): (
            extend(lambda a, t: a**2 * math.sin(math.radians(t)), [rb, alpha]),
            "cm^2",
        ),
        ("Sq1", "f1"): (extend(lambda a: 4 * a, [sq]), "cm"),
        ("Sq1", "f2"): (extend(lambda a: a**2, [sq]), "cm^2"),
    }


def same_pairs(got, want, tol=TOL) -> bool:
    """Supports agree within tol (relative above 1), degrees exactly."""
    return len(got) == len(want) and all(
        abs(gs - ws) <= tol * max(1.0, abs(ws)) and gd == wd
        for (gs, gd), (ws, wd) in zip(got, want)
    )


def reach(edges, start, kinds, direction):
    step: dict[str, list[str]] = {}
    for s, t, k in edges:
        if k in kinds:
            a, b = (s, t) if direction == "out" else (t, s)
            step.setdefault(a, []).append(b)
    found, todo = set(), [start]
    while todo:
        for nxt in step.get(todo.pop(), ()):
            if nxt not in found:
                found.add(nxt)
                todo.append(nxt)
    return sorted(found)
