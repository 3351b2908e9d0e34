"""The four workloads: what one round runs, how each answer is checked, and
which per-layer figures a traced round yields.

A round is a fixed list of operations, so every run attempts whole rounds
of the same operations whatever its seed and length.  Each operation goes
through `Recorder.call`, which times it and, in a traced run, opens the
root span that the layer spans nest under.  Checks run outside the timed
calls.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict

import foodn
import foodn.cli
import gen
import reference as ref
import speed

FAILED = object()


class Recorder:
    """Times operations by kind and counts attempts, failures and wrong answers.

    Samples are kept in reference nanoseconds (see speed.py): a sample is
    recorded as measured and rescaled at the next calibration, which
    `call` makes once CALIBRATE_EVERY_NS has passed and a round's end
    forces.  `busy_ns` sums the rescaled samples."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)  # kind -> reference ns per call
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.busy_ns = 0.0
        self.calibrations: list[float] = []  # seconds per calibration pass
        self.pending: list[tuple[str, int]] = []  # samples not yet rescaled
        self.calibrate()

    def calibrate(self):
        """Time the calibration loop and rescale the samples taken since
        the previous calibration."""
        now = speed.calibration_s()
        if self.pending:
            scale = speed.factor(self.calibrations[-1], now)
            for kind, i in self.pending:
                self.samples[kind][i] *= scale
                self.busy_ns += self.samples[kind][i]
            self.pending.clear()
        self.calibrations.append(now)
        self.calibrated_at = time.perf_counter_ns()

    def call(self, kind, fn, *args):
        self.attempted += 1
        clock = time.perf_counter_ns
        if clock() - self.calibrated_at > speed.CALIBRATE_EVERY_NS:
            self.calibrate()
        try:
            if self.tracer is None:
                start = clock()
                result = fn(*args)
                took = clock() - start
            else:
                with self.tracer.op(kind):
                    start = clock()
                    result = fn(*args)
                    took = clock() - start
        except Exception:  # an operation that raises is a failed operation
            self.failed += 1
            if self.failed <= 3:
                print(f"[{kind}] failed:\n{traceback.format_exc()}", file=sys.stderr)
            return FAILED
        self.samples[kind].append(took)
        self.pending.append((kind, len(self.samples[kind]) - 1))
        return result

    def fault(self, kind, what):
        """Count an operation that returned but broke an invariant of the
        program (a known fault), and drop its latency sample, which is
        still the last one pending."""
        self.failed += 1
        assert self.pending[-1] == (kind, len(self.samples[kind]) - 1)
        self.pending.pop()
        self.samples[kind].pop()
        if self.failed <= 3:
            print(f"[{kind}] {what}", file=sys.stderr)

    def check(self, ok, what):
        if not ok:
            if len(self.wrong) < 5:
                print(f"wrong answer: {what}", file=sys.stderr)
            self.wrong.append(what)


def median_s(samples) -> float:
    return statistics.median(samples) / 1e9


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def copy_network(net):
    """A network that shares the (immutable) entities but none of the
    mutable collections, so a round can grow it without touching the base."""
    out = foodn.Network(net.tol)
    out.objects = dict(net.objects)
    out.classes = dict(net.classes)
    out.relations = list(net.relations)
    out.modifiers = dict(net.modifiers)
    out.exploiters = dict(net.exploiters)
    out.provenance = list(net.provenance)
    out.history = dict(net.history)
    return out


def check_network(rec, net, spec, probes, where):
    """Counts, memberships and reachability against the generator's answers."""
    counts = spec.counts()
    got = {
        "objects": len(net.objects),
        "classes": len(net.classes),
        "relations": len(net.relations),
        "modifiers": len(net.modifiers),
    }
    rec.check(got == counts, f"{where}: counts {got} != {counts}")
    for obj, cls, want in probes["membership"]:
        rec.check(net.membership(obj, cls) == want, f"{where}: membership {obj} {cls}")
    for start, kinds, direction, want in probes["reach"]:
        got = net.query_related(start, kinds, direction, transitive=True)
        rec.check(got == want, f"{where}: query {start} {kinds} {direction}")


def membership_probes(rng, spec, n, cross=0.0, names=None):
    names = names or sorted(spec.objects)
    classes = sorted(spec.classes)
    out = []
    for _ in range(n):
        obj = rng.choice(names)
        cls = rng.choice(classes) if rng.random() < cross else spec.objects[obj][0]
        out.append((obj, cls, spec.degree(obj, cls)))
    return out


def reach_probes(rng, spec, n):
    """Transitive queries: up or down the class hierarchy, and up the object
    association tree (downwards from near its root the answer would be most
    of the network, and its size would vary with the seed)."""
    out = []
    for i in range(n):
        if i % 2:
            start, kinds = rng.choice(sorted(spec.classes)), ("a-kind-of", "is-a")
            direction = rng.choice(("out", "in"))
        else:
            start, kinds, direction = rng.choice(sorted(spec.objects)), ("association", "aggregation"), "out"
        out.append((start, kinds, direction, spec.reach(start, kinds, direction)))
    return out


class Workload:
    name = ""

    def setup(self, seed, ctx):
        raise NotImplementedError

    def round(self, state, rec):
        raise NotImplementedError

    def teardown(self, state):
        pass

    def kinds(self, state) -> list[str]:
        """Operation kinds whose median latencies make up op_us."""
        raise NotImplementedError

    def details(self, state, rec) -> dict:
        """The workload's named end-to-end figures: name -> (value, unit)."""
        raise NotImplementedError

    def layers(self, state, rec, tracer) -> dict:
        """Per-layer figures from traced rounds: name -> (value, unit)."""
        raise NotImplementedError


# -- build -----------------------------------------------------------------------


class Build(Workload):
    """parse_network, dumps, loads and dumps again over synthetic networks of
    growing size; the evaluator does no work here."""

    name = "build"
    SIZES = (300, 600, 1200)  # objects; classes are a twentieth of that

    def setup(self, seed, ctx):
        rng = random.Random(f"{seed}-build-probes")
        nets = []
        for n in self.SIZES:
            spec = gen.network(f"{seed}-build-{n}", n, n // 20, n // 100)
            probes = {
                "membership": membership_probes(rng, spec, 20),
                "reach": reach_probes(rng, spec, 4),
            }
            nets.append((n, spec, probes))
        return {"nets": nets}

    def round(self, state, rec):
        for n, spec, probes in state["nets"]:
            result = rec.call(f"parse@{n}", foodn.parse_network, spec.text)
            if result is FAILED:
                continue
            net, warnings = result
            rec.check(warnings == [], f"parse@{n}: warnings {warnings}")
            check_network(rec, net, spec, probes, f"parse@{n}")
            text = rec.call(f"dumps@{n}", foodn.dumps, net)
            if text is FAILED:
                continue
            back = rec.call(f"loads@{n}", foodn.loads, text)
            if back is FAILED:
                continue
            check_network(rec, back, spec, probes, f"loads@{n}")
            again = rec.call(f"dumps@{n}", foodn.dumps, back)
            rec.check(again == text, f"dumps@{n}: dumps(loads(dumps(net))) != dumps(net)")

    def kinds(self, state):
        top = self.SIZES[-1]
        return [f"parse@{top}", f"loads@{top}", f"dumps@{top}"]

    def details(self, state, rec):
        top = self.SIZES[-1]
        entities = [n + n // 20 for n in self.SIZES]
        ingest = []
        for n in self.SIZES:
            per_round = [p + l for p, l in zip(rec.samples[f"parse@{n}"], rec.samples[f"loads@{n}"])]
            ingest.append(statistics.median(per_round))
        # least-squares slope of log time against log entity count
        xs, ys = [math.log(e) for e in entities], [math.log(t) for t in ingest]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
        return {
            "build.parse_s": (median_s(rec.samples[f"parse@{top}"]), "s"),
            "build.loads_s": (median_s(rec.samples[f"loads@{top}"]), "s"),
            "build.dumps_s": (median_s(rec.samples[f"dumps@{top}"]), "s"),
            "build.scaling_exponent": (slope, "1"),
        }

    def layers(self, state, rec, t):
        top = self.SIZES[-1]
        parse, dumps, loads = f"parse@{top}", f"dumps@{top}", f"loads@{top}"
        chars = len(state["nets"][-1][1].text)
        dsl_self = t.per_op(parse, "dsl.parse_network", "self")
        to_doc = t.per_op(dumps, "serialize.to_document")
        from_doc = t.per_op(loads, "serialize.from_document")
        return {
            "dsl.parse_network.self_s": (dsl_self, "s"),
            "dsl.chars_per_s": (chars / dsl_self if dsl_self else 0.0, "1/s"),
            "network.add_relation.calls": (t.per_op(parse, "network.add_relation", "calls"), "count"),
            "network.add_relation.us_per_call": (
                t.per_call([parse, loads], "network.add_relation") * 1e6,
                "us",
            ),
            "network.add.s": (t.per_op(parse, "network.add"), "s"),
            "serialize.to_document.s": (to_doc, "s"),
            "serialize.encode_s": (t.per_op(dumps, "op") - to_doc, "s"),
            "serialize.from_document.self_s": (t.per_op(loads, "serialize.from_document", "self"), "s"),
            "serialize.decode_s": (t.per_op(loads, "op") - from_doc, "s"),
            "expr.parse_expr.calls": (
                t.per_op(parse, "expr.parse_expr", "calls") + t.per_op(loads, "expr.parse_expr", "calls"),
                "count",
            ),
        }


# -- evaluate --------------------------------------------------------------------


class Evaluate(Workload):
    """Narrow fixture methods called many times, and a few wide seeded
    sum(p2[*]) perimeters; narrow calls are dominated by binding and
    compiling, wide ones by enumeration and merge."""

    name = "evaluate"
    NARROW_EACH = 50  # calls of each of the four narrow methods per round
    WIDE = 3  # wide objects, each evaluated once per round
    SIDES, SUPPORTS = 6, 6

    def setup(self, seed, ctx):
        fixture, _ = foodn.load_file(ref.POLYGONS)
        text, sides = gen.wide_network(f"{seed}-wide", self.WIDE, self.SIDES, self.SUPPORTS)
        wide, _ = foodn.parse_network(text)
        plan = []
        for (obj, mid), want in ref.narrow_expected().items():
            plan += [(f"narrow.{obj}.{mid}", fixture.objects[obj], mid, want)] * self.NARROW_EACH
        for obj, polygon in sides.items():
            plan.append(("wide", wide.objects[obj], "f1", (ref.fold_sum(polygon), "cm")))
        random.Random(f"{seed}-evaluate-order").shuffle(plan)
        return {"plan": plan, "sides": sides}

    def round(self, state, rec):
        for kind, entity, mid, (pairs, unit) in state["plan"]:
            value = rec.call(kind, foodn.eval_method, entity, mid)
            if value is FAILED:
                continue
            rec.check(
                value.unit == unit and ref.same_pairs(value.elements, pairs),
                f"{kind} {entity.name}.{mid}: {value}",
            )

    def narrow(self, state):
        return sorted({k for k, *_ in state["plan"] if k != "wide"})

    def kinds(self, state):
        return self.narrow(state) + ["wide"]

    def details(self, state, rec):
        narrow = geomean([median_s(rec.samples[k]) for k in self.narrow(state)])
        return {
            "evaluate.calls_per_s": (1.0 / narrow, "1/s"),
            "evaluate.wide_s": (median_s(rec.samples["wide"]), "s"),
        }

    def layers(self, state, rec, t):
        narrow = self.narrow(state)
        n_narrow = sum(t.n_ops(k) for k in narrow)
        combinations = self.SUPPORTS**self.SIDES
        kernel_s = t.per_op("wide", "kernel.eval_program")
        kept = statistics.fmean(
            len(pairs) for kind, _, _, (pairs, _) in state["plan"] if kind == "wide"
        )
        return {
            "evaluator.resolve_binding.us_per_call": (
                t.per_call(narrow, "evaluator.resolve_binding") * 1e6,
                "us",
            ),
            "evaluator.evaluate_method.self_us": (
                t.per_call(narrow, "evaluator.evaluate_method", "self") * 1e6,
                "us",
            ),
            "expr.parse_expr.calls_per_eval": (
                sum(t.count(k, "expr.parse_expr") for k in narrow) / n_narrow if n_narrow else 0.0,
                "count",
            ),
            "expr.parse_expr.us_per_call": (t.per_call(narrow, "expr.parse_expr") * 1e6, "us"),
            "expr.compile_program.us_per_call": (t.per_call(narrow, "expr.compile_program") * 1e6, "us"),
            "kernel.eval_program.s": (kernel_s, "s"),
            "kernel.combinations": (combinations, "count"),
            "kernel.combinations_per_s": (combinations / kernel_s if kernel_s else 0.0, "1/s"),
            "fuzzy.merge_pairs.s": (t.per_op("wide", "fuzzy.merge_pairs"), "s"),
            "fuzzy.merge.kept_ratio": (kept / combinations, "1"),
        }


# -- session ---------------------------------------------------------------------

EXPLOITERS = ("union", "intersection", "difference", "sym-difference", "clone")
# Queries over the class hierarchy and over the object graph cost different
# amounts and come in equal numbers, so each kind gets its own median.
QUERIES = ("query.classes", "query.objects")
# The fixture chain that meets the known fault: the second application binds
# Sq1 again although Sq1 is retired, the third binds Rb1_2 again and re-adds
# the modification-of edge Rb1_2 -> Sq1 as a silent duplicate.
FIXTURE_CHAIN = ("M1_Sq1", "M2_Rb1", "M1_Sq1")


class Session(Workload):
    """A seeded mix of reads and writes on a mid-size synthetic network that
    grows during the round, then the fixture's back-and-forth modifier chain.
    Each round starts again from the network as loaded."""

    name = "session"
    OBJECTS, CLASSES, CHAINS = 600, 40, 10
    MEMBERSHIPS, QUERIES, EACH_EXPLOITER = 100, 40, 12

    def setup(self, seed, ctx):
        spec = gen.network(f"{seed}-session", self.OBJECTS, self.CLASSES, self.CHAINS)
        base, _ = foodn.parse_network(spec.text)
        fixture, _ = foodn.load_file(ref.POLYGONS)
        rng = random.Random(f"{seed}-session-plan")
        mutable = {chain[0][1] for chain in spec.chains}
        stable = sorted(set(spec.objects) - mutable)
        classes = sorted(spec.classes)

        # reads and exploiter arguments avoid the objects the round renames
        reads = [
            ("membership",) + m
            for m in membership_probes(rng, spec, self.MEMBERSHIPS, cross=0.3, names=stable)
        ]
        queries = [
            (QUERIES[kinds[0] == "association"],) + (start, kinds, direction, want)
            for start, kinds, direction, want in reach_probes(rng, spec, self.QUERIES)
        ]

        writes = []
        for i in range(self.EACH_EXPLOITER):
            # unions and clones alternate between objects and classes
            pool = stable if i % 2 else classes
            for kind in EXPLOITERS:
                writes.append(self._exploiter(rng, spec, kind, f"X{i}_{kind}", pool, classes))
        steps = [("modifier",) + step for chain in spec.chains for step in chain]

        slots = ["r"] * len(reads) + ["q"] * len(queries) + ["w"] * len(writes) + ["m"] * len(steps)
        rng.shuffle(slots)
        rng.shuffle(writes)
        source = {"r": iter(reads), "q": iter(queries), "w": iter(writes), "m": iter(steps)}
        plan = [next(source[s]) for s in slots]  # modifier steps keep their chain order
        clones = defaultdict(int)  # a clone takes the next free index, in plan order
        for i, op in enumerate(plan):
            if op[0] == "clone":
                name = op[1][0]
                clones[name] += 1
                plan[i] = op[:3] + (f"{name}_clone{clones[name]}",)

        return {
            "base": base,
            "fixture": fixture,
            "plan": plan,
            "infer": spec.infer(),
            "witnesses": spec.witnesses(),
            "relations": 0,
        }

    @staticmethod
    def _exploiter(rng, spec, kind, result, pool, classes):
        if kind == "clone":
            return ("clone", [rng.choice(pool)], None, None)
        if kind == "union":
            return ("union", rng.sample(pool, 2), result, None)
        answer = {
            "intersection": spec.shared,
            "difference": spec.only_in,
            "sym-difference": spec.sym_difference,
        }[kind]
        while True:  # a pair whose result exists
            a, b = rng.sample(classes, 2)
            want = answer(a, b)
            if want[0] or want[1]:
                return (kind, [a, b], result, want)

    def round(self, state, rec):
        net = copy_network(state["base"])
        proposals = rec.call("infer", net.infer_relations)
        if proposals is not FAILED:
            got = [(r.source, r.target, r.degree) for r in proposals]
            rec.check(got == state["infer"], "infer_relations proposals")
        verdict = rec.call("is_fuzzy", net.is_fuzzy)
        if verdict is not FAILED:
            fuzzy, witnesses = verdict
            by_kind = {k: sum(w.kind == k for w in witnesses) for k in ("object", "class", "relation")}
            rec.check(fuzzy and by_kind == state["witnesses"], f"is_fuzzy witnesses {by_kind}")

        for op in state["plan"]:
            if op[0] == "membership":
                _, obj, cls, want = op
                got = rec.call("membership", net.membership, obj, cls)
                rec.check(got is FAILED or got == want, f"membership {obj} {cls}: {got} != {want}")
            elif op[0] in QUERIES:
                kind, start, kinds, direction, want = op
                got = rec.call(kind, net.query_related, start, kinds, direction, True)
                rec.check(got is FAILED or got == want, f"query {start} {kinds} {direction}")
            elif op[0] == "modifier":
                _, mod, src, target, pid, _, after = op
                new = self._modify(rec, net, "modifier", mod, src)
                if new is not None:
                    rec.check(new == target, f"{mod}: created {new}, expected {target}")
                    value = net.objects[new].get_property(pid).value.value
                    rec.check(value == float(after), f"{mod}: {pid} is {value}")
            else:
                self._exploit(rec, net, *op)
        state["relations"] = len(net.relations)

        fixture = copy_network(state["fixture"])
        name = "Sq1"
        for mod in FIXTURE_CHAIN:
            name = self._modify(rec, fixture, "fixture_modifier", mod, name)
            if name is None:
                break

    @staticmethod
    def _modify(rec, net, kind, mod, src):
        """Apply a modifier and check that history grew by exactly this step.
        Returns the new name, or None when the step failed."""
        relations, provenance = len(net.relations), len(net.provenance)
        new = rec.call(kind, net.apply_modifier, mod, src)
        if new is FAILED:
            return None
        live = new in net.objects or new in net.classes
        if live and new in net.history:
            rec.fault(kind, f"{mod} on {src}: {new} is both live and retired")
            return new
        rec.check(live and src in net.history, f"{mod}: {src} not retired or {new} not live")
        rec.check(src not in net.objects and src not in net.classes, f"{mod}: {src} still live")
        rec.check(len(net.provenance) == provenance + 1, f"{mod}: provenance did not grow by one")
        edge = net.relations[-1]
        rec.check(
            len(net.relations) == relations + 1
            and (edge.source, edge.target, edge.kind) == (new, src, "modification-of"),
            f"{mod}: no new modification-of edge {new} -> {src}",
        )
        return new

    @staticmethod
    def _exploit(rec, net, kind, args, result, want):
        before = [net.entity(a) for a in args]
        name = rec.call(kind, net.apply_exploiter, kind, args, result)
        if name is FAILED:
            return
        rec.check(
            all(net.entity(a) is e for a, e in zip(args, before)),
            f"{kind} {args}: an argument changed",
        )
        made = net.entity(name)
        if kind == "clone":
            ok = name == want and made.specification == before[0].specification
        elif kind == "union" and args[0] in net.objects:
            ok = made.mode == "extensional" and list(made.extension) == args
        elif kind == "union":
            ok = [p.name for p in made.projections] == args
        else:
            ok = (
                [p.id for p in made.specification] == want[0]
                and [m.id for m in made.signature] == want[1]
            )
        rec.check(ok and name == (result or want), f"{kind} {args}: result {name}")

    def kinds(self, state):
        return ["membership", *QUERIES, "is_fuzzy", "infer", *EXPLOITERS, "modifier"]

    def details(self, state, rec):
        return {
            "session.membership_us": (median_s(rec.samples["membership"]) * 1e6, "us"),
            "session.query_us": (geomean([median_s(rec.samples[k]) for k in QUERIES]) * 1e6, "us"),
            "session.exploiter_us": (geomean([median_s(rec.samples[k]) for k in EXPLOITERS]) * 1e6, "us"),
            "session.modifier_us": (median_s(rec.samples["modifier"]) * 1e6, "us"),
            "session.infer_s": (median_s(rec.samples["infer"]), "s"),
        }

    def layers(self, state, rec, t):
        ops = self.kinds(state) + ["fixture_modifier"]
        rounds = t.n_ops("infer")
        out = {
            "network.query_related.us_per_call": (t.per_call(QUERIES, "network.query_related") * 1e6, "us"),
            "network.membership.us_per_call": (t.per_call(["membership"], "network.membership") * 1e6, "us"),
            "network.apply_exploiter.self_us": (
                t.per_call(EXPLOITERS, "network.apply_exploiter", "self") * 1e6,
                "us",
            ),
            "network.apply_modifier.self_us": (
                t.per_call(["modifier"], "network.apply_modifier", "self") * 1e6,
                "us",
            ),
            "network.infer_relations.s": (t.per_op("infer", "network.infer_relations"), "s"),
            "network.relations.count": (state["relations"], "count"),
            "model.membership_degree.calls": (
                sum(t.count(k, "model.membership_degree") for k in ops) / rounds if rounds else 0.0,
                "count",
            ),
            "model.membership_degree.us_per_call": (t.per_call(ops, "model.membership_degree") * 1e6, "us"),
            "modifiers.check_applicable.us_per_call": (
                t.per_call(["modifier", "fixture_modifier"], "modifiers.check_applicable") * 1e6,
                "us",
            ),
            "modifiers.transform.us_per_call": (
                t.per_call(["modifier", "fixture_modifier"], "modifiers.transform") * 1e6,
                "us",
            ),
        }
        for kind in EXPLOITERS:
            out[f"exploiters.{kind}.us_per_call"] = (t.per_call([kind], f"exploiters.{kind}") * 1e6, "us")
        return out


# -- cli -------------------------------------------------------------------------

_FUZZY_TEXT = re.compile(r"^\{(?P<body>[^}]*)\}(?: (?P<unit>\S+))?$")


def _pairs_from_text(text):
    m = _FUZZY_TEXT.match(text.strip())
    if not m:
        return None, None
    pairs = []
    for piece in m.group("body").split(" + "):
        s, d = piece.split("/")
        pairs.append((float(s), float(d)))
    return pairs, m.group("unit")


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cli_plan(rng, out):
    """One invocation per subcommand, each with a seeded choice of
    arguments, and the check of its output.  Checks read stdout and any
    written file as text or plain JSON."""
    P, D = ref.POLYGONS, ref.DISJOINT
    plan = []

    def add(kind, argv, check):
        plan.append((kind, argv, check))

    counts = ref.FIXTURE_COUNTS
    if rng.random() < 0.5:
        add("load", ["load", "--in", P], lambda o: dict(
            (k, int(v)) for k, v in (line.split(": ") for line in o.splitlines())) == counts)
    else:
        add("load", ["load", "--in", P, "--format", "doc"], lambda o: json.loads(o) == counts)

    fixture = rng.choice((P, D))
    add("check", ["check", "--in", fixture], lambda o: o.splitlines() == ["ok"])

    add("fuzzy", ["fuzzy", "--in", P], lambda o: (
        o.splitlines()[0] == "fuzzy: true" and len(o.splitlines()) == 1 + ref.FIXTURE_WITNESSES))

    (obj, cls), want = rng.choice(sorted(ref.FIXTURE_MEMBERSHIP.items()))
    tnorm = rng.choice(("min", "product"))  # the fixture's degrees agree under both
    add("membership", ["membership", obj, cls, "--in", P, "--tnorm", tnorm],
        lambda o: float(o) == want)

    start, kinds, direction = rng.choice((
        ("T_Sq", ["a-kind-of", "is-a"], "out"),
        ("Sq1", ["instance-of", "a-kind-of", "is-a"], "out"),
        ("T_Pg", ["a-kind-of", "is-a"], "in"),
        ("T_Rb", ["instance-of", "is-a"], "in"),
    ))
    related = ref.reach(ref.FIXTURE_RELATIONS, start, kinds, direction)
    add("query", ["query", start, *kinds, "--direction", direction, "--transitive", "--in", P],
        lambda o: o.splitlines() == related)

    obj, mid = rng.choice(sorted(ref.narrow_expected()))
    pairs, unit = ref.narrow_expected()[(obj, mid)]

    def check_eval(o):
        got, got_unit = _pairs_from_text(o)
        return got is not None and got_unit == unit and ref.same_pairs(got, pairs)

    add("eval", ["eval", obj, mid, "--in", P], check_eval)

    exploiter = os.path.join(out, "exploiter.json")

    def check_intersection(o):
        doc = _read_json(exploiter)
        made = [c for c in doc["classes"] if c["name"] == "intersection_T_Rb_T_Sq"]
        props, methods = ref.FIXTURE_INTERSECTION
        return (
            o == "created intersection_T_Rb_T_Sq\n"
            and len(made) == 1
            and [p["id"] for p in made[0]["properties"]] == props
            and [m["id"] for m in made[0]["methods"]] == methods
        )

    add("apply-exploiter", *rng.choice((
        (["apply-exploiter", "intersect", "T_Rb", "T_Sq", "--in", P, "--out", exploiter], check_intersection),
        (["apply-exploiter", "clone", "Rb1", "--in", P, "--format", "doc"],
         lambda o: json.loads(o) == {"created": "Rb1_clone1"}),
        (["apply-exploiter", "union", "Rb1", "Sq1", "--in", P], lambda o: o == "created union_Rb1_Sq1\n"),
    )))

    modified = os.path.join(out, "modified.json")
    mod, src, new, level = rng.choice((
        ("M1_Sq1", "Sq1", "Rb1_2", "object"),
        ("M1_T_Sq", "T_Sq", "T_Rb_2", "class"),
    ))

    def check_modifier(o):
        doc = _read_json(modified)
        names = {e["name"] for e in doc["objects"] + doc["classes"]}
        edges = {(r["source"], r["target"], r["kind"]) for r in doc["relations"]}
        return (
            o == f"created {new}\n"
            and doc["history"] == {src: level}
            and new in names and src not in names
            and (new, src, "modification-of") in edges
            and len(doc["provenance"]) == 1
        )

    add("apply-modifier", ["apply-modifier", mod, src, "--in", P, "--out", modified], check_modifier)

    def check_dot(o):
        lines = o.splitlines()
        return (
            lines[0] == "digraph foodn {" and lines[-1] == "}"
            and sum("->" in line for line in lines) == counts["relations"]
        )

    add("export-dot", ["export-dot", "--in", P], check_dot)

    saved = os.path.join(out, "saved.json")

    def check_save(o):
        doc = _read_json(saved)
        return o == "" and all(len(doc[k]) == counts[k] for k in ("objects", "classes", "relations"))

    add("save", ["save", "--in", P, "--out", saved], check_save)
    rng.shuffle(plan)
    return plan


class Cli(Workload):
    """A round-robin of the foodn subcommands, each in its own process.

    Bytecode policy: every set-up starts an empty private bytecode cache
    (PYTHONPYCACHEPREFIX inside the run's scratch directory, writing
    allowed) and fills it with one untimed import of foodn.cli and one
    load, so every timed invocation finds a warm cache."""

    name = "cli"
    POLICY = "warm private bytecode cache, filled during set-up"

    def setup(self, seed, ctx):
        out = tempfile.mkdtemp(prefix="cli-", dir=ctx.out)
        env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH", "PYTHONPYCACHEPREFIX", "FOODN_TOLERANCE")
        }
        env["PYTHONPATH"] = str(ctx.root / "src")
        env["PYTHONPYCACHEPREFIX"] = os.path.join(out, "pycache")
        state = {"out": out, "env": env, "root": str(ctx.root)}
        for argv in (["-c", "import foodn.cli"], ["-m", "foodn", "load", "--in", ref.POLYGONS]):
            proc = self._spawn(state, argv)
            if proc.returncode != 0:
                raise RuntimeError(f"warm-up {argv} exited {proc.returncode}: {proc.stderr}")
        state["plan"] = cli_plan(random.Random(f"{seed}-cli"), out)
        return state

    def teardown(self, state):
        shutil.rmtree(state["out"], ignore_errors=True)

    @staticmethod
    def _spawn(state, argv):
        return subprocess.run(
            [sys.executable, *argv],
            cwd=state["root"],
            env=state["env"],
            capture_output=True,
            text=True,
            timeout=60,
        )

    def round(self, state, rec):
        for kind, argv, check in state["plan"]:
            proc = rec.call(kind, self._spawn, state, ["-m", "foodn", *argv])
            if proc is FAILED:
                continue
            rec.check(proc.returncode == 0 and check(proc.stdout),
                      f"foodn {' '.join(argv)}: exit {proc.returncode}, {proc.stdout!r} {proc.stderr!r}")

    def traced_extras(self, state, rec):
        """The floor and the in-process share of an invocation: a bare
        interpreter, the import of foodn.cli, and foodn.cli.main on the same
        argv inside this process."""
        rec.call("interpreter", self._spawn, state, ["-c", "pass"])
        rec.call("import", self._spawn, state, ["-c", "import foodn.cli"])
        for kind, argv, check in state["plan"]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = rec.call(f"main.{kind}", self._main, argv)
            rec.check(code == 0 and check(out.getvalue()), f"in-process foodn {' '.join(argv)}")

    @staticmethod
    def _main(argv):
        """foodn.cli.main, looked up at call time so that a traced run
        records its span."""
        return foodn.cli.main(argv)

    def kinds(self, state):
        return sorted({kind for kind, _, _ in state["plan"]})

    def details(self, state, rec):
        return {"cli.wall_ms": (geomean([median_s(rec.samples[k]) for k in self.kinds(state)]) * 1e3, "ms")}

    def layers(self, state, rec, t):
        floor = median_s(rec.samples["interpreter"])
        main = geomean([median_s(rec.samples[f"main.{k}"]) for k in self.kinds(state)])
        return {
            "cli.interpreter_ms": (floor * 1e3, "ms"),
            "cli.import_ms": ((median_s(rec.samples["import"]) - floor) * 1e3, "ms"),
            "cli.main_ms": (main * 1e3, "ms"),
        }


WORKLOADS = {w.name: w for w in (Build(), Evaluate(), Session(), Cli())}
