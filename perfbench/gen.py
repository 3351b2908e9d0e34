"""Seeded synthetic inputs for the benchmark, with their expected answers.

The program only ever sees the generated `.foodn` text.  The expected
answers (entity counts, membership degrees, reachability, exploiter
results) are computed here from the generator's own plain-Python
description of the network; no engine type is imported, so a fault in the
engine cannot leak into the answers it is checked against.

Numbers are generated as integers in tenths or hundredths and written as
short decimals, so the text and the expected answers read the same floats.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import reference

# Property vocabulary: every class and object draws from it, and an id
# always carries the same semantic, so cross-class membership never hits a
# semantic mismatch and infer_relations scores every pair.
VOCAB = {
    "k1": ("Number of legs", "count"),
    "k2": ("Number of wheels", "count"),
    "s1": ("Length of body", "set"),
    "s2": ("Weight of body", "set"),
    "t1": ("Degree of ripeness", "truth"),
    "t2": ("Degree of wear", "truth"),
    "r1": ("Sizes of angles", "angles"),
}
SET_UNITS = {"s1": "cm", "s2": "kg"}
# A class takes one property from each group, so every class and object
# holds the same kinds of value and costs the same to load and compare.
GROUPS = (("k1", "k2"), ("s1", "s2"), ("t1", "t2"), ("r1",))

# Each class carries the method over its count property.  Classes with the
# same count property have equivalent methods, which the intersection and
# difference answers depend on.
METHODS = {
    "k1": ("m1", "Doubled legs", "2*k + 1", (("k", "k1"),), None),
    "k2": ("m2", "Wheels squared", "k^2", (("k", "k2"),), None),
}


def tenths(i: int) -> str:
    return str(i // 10) if i % 10 == 0 else f"{i // 10}.{i % 10}"


def hundredths(i: int) -> str:
    if i % 100 == 0:
        return str(i // 100)
    text = f"{i // 100}.{i % 100:02d}"
    return text.rstrip("0")


# -- the network description ---------------------------------------------------


@dataclass
class Spec:
    """A generated network in plain Python, and the text the program reads.

    Object values: ("count", n) | ("set", [(support, degree), ...]) |
    ("truth", d) | ("angles", [deg, ...]).  Class values: ("count", n) |
    ("marker",) | ("interval", lo, hi).
    """

    objects: dict = field(default_factory=dict)   # name -> (class, {pid: value})
    classes: dict = field(default_factory=dict)   # name -> ({pid: value}, [method])
    relations: list = field(default_factory=list)  # (source, target, kind, degree)
    chains: list = field(default_factory=list)    # [(modifier, source, target, pid, before, after)]
    text: str = ""

    # -- answers --------------------------------------------------------------

    def counts(self) -> dict:
        return {
            "objects": len(self.objects),
            "classes": len(self.classes),
            "relations": len(self.relations),
            "modifiers": sum(len(c) for c in self.chains),
        }

    def degree(self, obj: str, cls: str) -> float:
        """Membership under the min t-norm: per class property, 1 for an
        equal count, a set value under a fuzzy marker or angles inside the
        open interval; the truth degree under a fuzzy marker; else 0."""
        values = self.objects[obj][1]
        degree = 1.0
        for pid, want in self.classes[cls][0].items():
            have = values.get(pid)
            if have is None:
                d = 0.0
            elif want[0] == "count":
                d = 1.0 if have[1] == want[1] else 0.0
            elif want[0] == "interval":
                d = 1.0 if all(want[1] < x < want[2] for x in have[1]) else 0.0
            elif have[0] == "truth":
                d = have[1]
            else:
                d = 1.0
            degree = min(degree, d)
        return degree

    def infer(self) -> list:
        """(object, class, degree) for every pair with a positive degree and
        no instance-of edge yet, in sorted name order."""
        linked = {(s, t) for s, t, k, _ in self.relations if k == "instance-of"}
        out = []
        for o in sorted(self.objects):
            for c in sorted(self.classes):
                if (o, c) in linked:
                    continue
                d = self.degree(o, c)
                if d > 0.0:
                    out.append((o, c, d))
        return out

    def reach(self, start: str, kinds, direction: str) -> list:
        return reference.reach([r[:3] for r in self.relations], start, kinds, direction)

    def witnesses(self) -> dict:
        """How many objects, classes and relations make the network fuzzy."""
        objects = sum(
            any(v[0] == "set" or (v[0] == "truth" and 0.0 < v[1] < 1.0) for v in vals.values())
            for _, vals in self.objects.values()
        )
        classes = sum(
            any(v[0] == "marker" for v in props.values()) for props, _ in self.classes.values()
        )
        relations = sum(d < 1.0 for *_, d in self.relations)
        return {"object": objects, "class": classes, "relation": relations}

    def only_in(self, a: str, b: str):
        """Property and method ids of class a with no equal counterpart in b."""
        (pa, ma), (pb, mb) = self.classes[a], self.classes[b]
        props = [pid for pid, v in pa.items() if pb.get(pid) != v]
        methods = [m[0] for m in ma if m not in mb]
        return props, methods

    def shared(self, a: str, b: str):
        (pa, ma), (pb, mb) = self.classes[a], self.classes[b]
        props = [pid for pid, v in pa.items() if pb.get(pid) == v]
        methods = [m[0] for m in ma if m in mb]
        return props, methods

    def sym_difference(self, a: str, b: str):
        a_props, a_methods = self.only_in(a, b)
        b_props, b_methods = self.only_in(b, a)

        def qualify(ids, other, owner):
            return [f"{i}@{owner}" if i in other else i for i in ids]

        return (
            qualify(a_props, b_props, a) + qualify(b_props, a_props, b),
            qualify(a_methods, b_methods, a) + qualify(b_methods, a_methods, b),
        )


def _class_value(rng, pid):
    kind = VOCAB[pid][1]
    if kind == "count":
        return ("count", rng.choice((2, 3, 4)))
    if kind == "angles":
        return ("interval", rng.choice((0, 30)), rng.choice((150, 180)))
    return ("marker",)


def _object_value(rng, pid, want):
    kind = VOCAB[pid][1]
    if kind == "count":
        base = want[1] if want is not None else rng.choice((2, 3, 4))
        return ("count", base if rng.random() < 0.9 else base + 1)
    if kind == "set":
        s = rng.randint(10, 50)
        supports = [s, s + rng.randint(1, 5), s + rng.randint(6, 12)]
        degrees = [rng.randint(10, 99), 100, rng.randint(10, 99)]
        return ("set", [(tenths(x), hundredths(d)) for x, d in zip(supports, degrees)])
    if kind == "truth":
        return ("truth", hundredths(rng.randint(5, 100)))
    angles = [rng.randint(31, 149) for _ in range(4)]
    if rng.random() < 0.15:
        angles[0] = rng.choice((15, 179))
    return ("angles", angles)


def _value_text(pid, v):
    if v[0] == "count":
        return str(v[1])
    if v[0] == "set":
        body = " + ".join(f"{s}/{d}" for s, d in v[1])
        return "{" + body + "} " + SET_UNITS[pid]
    if v[0] == "truth":
        return f"fuzzy({v[1]})"
    return "(" + ", ".join(str(x) for x in v[1]) + ") deg"


def _plain(v):
    """The value with its decimal strings read as floats."""
    if v[0] == "set":
        return ("set", [(float(s), float(d)) for s, d in v[1]])
    if v[0] == "truth":
        return ("truth", float(v[1]))
    return v


def network(seed, n_objects: int, n_classes: int, n_chains: int = 0) -> Spec:
    """A synthetic network: classes over VOCAB in an a-kind-of tree with
    extra graded is-a edges, objects with instance-of edges (some graded)
    and an association tree with extra aggregation edges, and n_chains
    two-step modifier chains that move a truth degree away and back.

    The seed picks names, values and edge ends; every count that sets the
    cost of loading (properties and their kinds per entity, elements per
    value, relations of each kind, modifiers) is fixed by the sizes alone.
    """
    rng = random.Random(seed)
    spec = Spec()
    lines = [f"// synthetic network, seed {seed}"]

    for i in range(n_classes):
        name = f"C{i}"
        props = {pid: _class_value(rng, pid) for pid in (rng.choice(g) for g in GROUPS)}
        method = METHODS[next(pid for pid in props if pid in METHODS)]
        spec.classes[name] = (props, [method])
        lines.append(f"class {name} {{")
        for pid, v in props.items():
            semantic = VOCAB[pid][0]
            if v[0] == "marker":
                lines.append(f'  property {pid} "{semantic}" : fuzzy;')
            elif v[0] == "count":
                lines.append(f'  property {pid} "{semantic}" = {v[1]};')
            else:
                lines.append(f'  property {pid} "{semantic}" = interval({v[1]}, {v[2]}) deg;')
        mid, semantic, body, binds, unit = method
        bind = ", ".join(f"{var} = {pid}" for var, pid in binds)
        tail = f" unit {unit}" if unit else ""
        lines.append(f'  method {mid} "{semantic}" = "{body}" bind {bind}{tail};')
        lines.append("}")

    with_extra = set(rng.sample(range(n_objects), (3 * n_objects) // 10))
    texts = {}
    for j in range(n_objects):
        name = f"O{j}"
        cls = f"C{rng.randrange(n_classes)}"
        values = {pid: _object_value(rng, pid, want) for pid, want in spec.classes[cls][0].items()}
        extra = None
        if j in with_extra:  # the other count property, with its semantic
            extra = "k2" if "k1" in values else "k1"
            values[extra] = _object_value(rng, extra, None)
        texts[name] = values
        spec.objects[name] = (cls, {pid: _plain(v) for pid, v in values.items()})
        lines.append(f"object {name} : {cls} {{")
        for pid, v in values.items():
            semantic = f' "{VOCAB[pid][0]}"' if pid == extra else ""
            lines.append(f"  {pid}{semantic} = {_value_text(pid, v)};")
        lines.append("}")

    def relate(src, tgt, kind, degree="1"):
        spec.relations.append((src, tgt, kind, float(degree)))
        tail = f" degree {degree}" if degree != "1" else ""
        lines.append(f"relation {src} {kind} {tgt}{tail};")

    # one edge per chosen source and kind, so no edge repeats
    graded = set(rng.sample(range(n_objects), n_objects // 10))
    aggregated = set(rng.sample(range(1, n_objects), n_objects // 10))
    for j, (name, (cls, _)) in enumerate(spec.objects.items()):
        relate(name, cls, "instance-of", hundredths(rng.randint(50, 99)) if j in graded else "1")
        if j:
            relate(name, f"O{rng.randrange(j)}", "association")
        if j in aggregated:
            relate(name, f"O{rng.randrange(j)}", "aggregation")
    specialised = set(rng.sample(range(1, n_classes), n_classes // 5))
    for i in range(1, n_classes):
        relate(f"C{i}", f"C{rng.randrange(i)}", "a-kind-of")
        if i in specialised:
            relate(f"C{i}", f"C{rng.randrange(i)}", "is-a", hundredths(rng.randint(50, 99)))

    # Two-step chains on objects that hold a truth degree: O -> O_v2 -> O_v3,
    # the second step restoring the first value under a new name.
    eligible = [o for o, vals in texts.items() if any(v[0] == "truth" for v in vals.values())]
    for obj in rng.sample(eligible, n_chains):
        pid = next(p for p, v in texts[obj].items() if v[0] == "truth")
        before = texts[obj][pid][1]
        after = hundredths(rng.choice([d for d in range(5, 101, 5) if hundredths(d) != before]))
        chain = [
            (f"W_{obj}_a", obj, f"{obj}_v2", pid, before, after),
            (f"W_{obj}_b", f"{obj}_v2", f"{obj}_v3", pid, after, before),
        ]
        spec.chains.append(chain)
        for mod, src, tgt, p, old, new in chain:
            lines.append(f"modifier {mod} object {src} -> {tgt} {{")
            lines.append(f"  {p}: fuzzy({old}) -> fuzzy({new});")
            lines.append("}")

    spec.text = "\n".join(lines) + "\n"
    return spec


# -- wide method evaluations ---------------------------------------------------


def wide_network(seed: int, n_objects: int, sides: int, supports: int):
    """Objects whose perimeter sum(p2[*]) enumerates supports**sides
    combinations.  Each side's supports are consecutive points of a 0.05
    grid from a seeded start, so distinct sums stay far apart compared with
    the tolerance, the expected merge is unambiguous, and every seed keeps
    the same number of sums: sides * (supports - 1) + 1.
    Returns (text, {object: [[(support, degree), ...] per side]})."""
    rng = random.Random(seed)
    lines = [
        f"// wide perimeters, seed {seed}",
        "class T_W {",
        '  property p2 "Lengths of sides" : fuzzy;',
        '  method f1 "Perimeter" = "sum(a)" bind a = p2[*] unit cm;',
        "}",
    ]
    sides_by_object = {}
    for j in range(n_objects):
        name = f"W{j}"
        polygon = []
        for _ in range(sides):
            s = rng.randint(20, 60)
            grid = list(range(s, s + supports))
            degrees = [rng.randint(5, 100) for _ in grid]
            degrees[rng.randrange(len(degrees))] = 100
            polygon.append([(hundredths(5 * x), hundredths(d)) for x, d in zip(grid, degrees)])
        sides_by_object[name] = [[(float(s), float(d)) for s, d in side] for side in polygon]
        body = ", ".join("{" + " + ".join(f"{s}/{d}" for s, d in side) + "}" for side in polygon)
        lines.append(f"object {name} : T_W {{ p2 = ({body}) cm; }}")
    return "\n".join(lines) + "\n", sides_by_object
