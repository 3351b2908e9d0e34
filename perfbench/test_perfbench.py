"""Self-tests of the benchmark: deterministic inputs, checks that reject
wrong answers, well-formed spans and the repeat mode.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def spec():
    return gen.network("selftest", 120, 10, 4)


@pytest.fixture
def ctx(monkeypatch):
    monkeypatch.chdir(ROOT)
    return run.Context(ROOT)


# -- the generator ---------------------------------------------------------------


def test_generator_is_deterministic_for_a_seed():
    a, b = gen.network(7, 80, 6, 3), gen.network(7, 80, 6, 3)
    assert a.text == b.text and a.relations == b.relations and a.chains == b.chains
    assert a.infer() == b.infer()
    assert gen.network(8, 80, 6, 3).text != a.text
    assert gen.wide_network(7, 2, 4, 3) == gen.wide_network(7, 2, 4, 3)
    assert gen.wide_network(8, 2, 4, 3) != gen.wide_network(7, 2, 4, 3)


def test_workload_plans_are_deterministic_for_a_seed(ctx):
    session = wl.WORKLOADS["session"]
    one, two = session.setup(3, ctx), session.setup(3, ctx)
    assert one["plan"] == two["plan"] and one["infer"] == two["infer"]
    assert session.setup(4, ctx)["plan"] != one["plan"]


def test_generator_answers_match_the_engine(spec):
    import foodn

    net, warnings = foodn.parse_network(spec.text)
    assert warnings == []
    assert [(r.source, r.target, r.degree) for r in net.infer_relations()] == spec.infer()
    for name, (cls, _) in spec.objects.items():
        assert net.membership(name, cls) == spec.degree(name, cls)


# -- checks reject perturbed answers --------------------------------------------


def _parsed(spec):
    import foodn

    return foodn.parse_network(spec.text)[0]


def _probes(spec):
    rng = random.Random(1)
    return {"membership": wl.membership_probes(rng, spec, 10), "reach": wl.reach_probes(rng, spec, 6)}


def test_network_check_accepts_the_right_answers(spec):
    rec = wl.Recorder()
    wl.check_network(rec, _parsed(spec), spec, _probes(spec), "test")
    assert rec.wrong == []


def test_network_check_rejects_a_degree_off_by_a_hundredth(spec):
    probes = _probes(spec)
    obj, cls, degree = probes["membership"][0]
    probes["membership"][0] = (obj, cls, degree + 0.01)
    rec = wl.Recorder()
    wl.check_network(rec, _parsed(spec), spec, probes, "test")
    assert len(rec.wrong) == 1 and "membership" in rec.wrong[0]


def test_network_check_rejects_a_dropped_reachable_name(spec):
    probes = _probes(spec)
    i = next(i for i, p in enumerate(probes["reach"]) if p[3])
    start, kinds, direction, names = probes["reach"][i]
    probes["reach"][i] = (start, kinds, direction, names[1:])
    rec = wl.Recorder()
    wl.check_network(rec, _parsed(spec), spec, probes, "test")
    assert len(rec.wrong) == 1 and "query" in rec.wrong[0]


def test_network_check_rejects_a_wrong_count(spec):
    rec = wl.Recorder()
    net = _parsed(spec)
    net.relations.pop()
    wl.check_network(rec, net, spec, {"membership": [], "reach": []}, "test")
    assert rec.wrong and "counts" in rec.wrong[0]


def test_support_moved_by_ten_tolerances_is_rejected():
    want = ref.narrow_expected()[("Rb1", "f1")][0]
    assert ref.same_pairs(list(want), want)
    moved = [(want[0][0] + 10 * ref.TOL * max(1.0, want[0][0]), want[0][1])] + want[1:]
    assert not ref.same_pairs(moved, want)
    assert not ref.same_pairs([(s, d - 0.01) for s, d in want], want)


def test_fixture_perimeter_is_the_papers_answer():
    assert ref.narrow_expected()[("Rb1", "f1")] == ([(7.2, 0.9), (8.0, 1.0), (8.4, 0.95)], "cm")


def test_wide_fold_agrees_with_brute_force():
    _, sides = gen.wide_network(5, 1, 4, 3)
    polygon = sides["W0"]
    assert ref.same_pairs(ref.fold_sum(polygon), ref.extend(lambda *xs: sum(xs), polygon))


def test_evaluate_round_rejects_a_perturbed_result(ctx):
    evaluate = wl.WORKLOADS["evaluate"]
    state = evaluate.setup(1, ctx)
    rec = wl.Recorder()
    evaluate.round(state, rec)
    assert rec.wrong == [] and rec.failed == 0
    kind, entity, mid, (pairs, unit) = next(p for p in state["plan"] if p[0] == "wide")
    s, d = pairs[0]
    state["plan"] = [(kind, entity, mid, ([(s + 10 * ref.TOL * max(1.0, s), d)] + pairs[1:], unit))]
    evaluate.round(state, rec)
    assert len(rec.wrong) == 1


def test_session_round_counts_only_the_known_modifier_fault(ctx):
    session = wl.WORKLOADS["session"]
    state = session.setup(2, ctx)
    rec = wl.Recorder()
    session.round(state, rec)
    assert rec.wrong == []
    # the fixture chain: second and third applications rebind retired names
    assert rec.failed == 2
    assert rec.attempted == len(state["plan"]) + 2 + len(wl.FIXTURE_CHAIN)


def test_session_round_rejects_perturbed_answers(ctx):
    session = wl.WORKLOADS["session"]
    state = session.setup(2, ctx)
    i = next(i for i, op in enumerate(state["plan"]) if op[0] == "intersection")
    kind, args, result, (props, methods) = state["plan"][i]
    state["plan"][i] = (kind, args, result, (props[1:] + ["k9"], methods))
    j = next(j for j, op in enumerate(state["plan"]) if op[0] == "membership")
    _, obj, cls, degree = state["plan"][j]
    state["plan"][j] = ("membership", obj, cls, degree + 0.01)
    state["infer"] = state["infer"][:-1]
    rec = wl.Recorder()
    session.round(state, rec)
    assert len(rec.wrong) == 3


def test_cli_checks_accept_real_output_and_reject_perturbed_output(ctx):
    import foodn.cli

    cli = wl.WORKLOADS["cli"]
    state = cli.setup(1, ctx)
    try:
        for seed in range(6):  # several seeds, so every variant is seen
            for kind, argv, check in wl.cli_plan(random.Random(seed), state["out"]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    assert foodn.cli.main(argv) == 0
                text = out.getvalue()
                assert check(text), (argv, text)
                if kind in ("membership", "query", "eval", "load", "fuzzy", "check", "export-dot"):
                    assert not check(_perturb(kind, text)), (argv, text)
    finally:
        cli.teardown(state)


def _perturb(kind, text):
    if kind == "membership":
        return f"{float(text) + 0.01}\n"
    if kind == "eval":
        pairs, unit = wl._pairs_from_text(text)
        s, d = pairs[0]
        moved = [(s + 10 * ref.TOL * max(1.0, s), d)] + pairs[1:]
        return "{" + " + ".join(f"{a!r}/{b!r}" for a, b in moved) + "} " + unit + "\n"
    lines = text.splitlines()
    if kind == "load" and text.startswith("{"):
        return text.replace('"relations": 5', '"relations": 6')
    return "\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "warning: x\n" + text


# -- spans -----------------------------------------------------------------------


def test_spans_nest_and_self_times_are_not_negative(ctx):
    tracer = Tracer()
    rec = wl.Recorder(tracer)
    evaluate = wl.WORKLOADS["evaluate"]
    state = evaluate.setup(1, ctx)
    state["plan"] = state["plan"][:40]
    tracer.install()
    try:
        evaluate.round(state, rec)
        import foodn

        foodn.loads(foodn.dumps(foodn.parse_network(gen.network(1, 30, 3, 1).text)[0]))
    finally:
        tracer.uninstall()
    assert rec.wrong == []
    by_id = {s[0]: s for s in tracer.spans}
    children: dict[int, int] = {}
    for span_id, parent, name, start, end, op in tracer.spans:
        assert start <= end
        if parent:
            p = by_id[parent]
            assert p[3] <= start and end <= p[4], (name, p[2])
            children[parent] = children.get(parent, 0) + end - start
    for span_id, total in children.items():
        s = by_id[span_id]
        assert total <= s[4] - s[3]
    assert all(self_ns >= 0 for _, _, self_ns in tracer.agg.values())
    names = {s[2] for s in tracer.spans}
    assert {"op", "evaluator.evaluate_method", "expr.parse_expr", "kernel.eval_program"} <= names
    assert {"dsl.parse_network", "network.add_relation", "serialize.to_document"} <= names


def test_recorder_rescales_samples_to_reference_seconds(monkeypatch):
    readings = iter([0.010, 0.030, 0.020])
    monkeypatch.setattr(wl.speed, "calibration_s", lambda: next(readings))
    monkeypatch.setattr(wl.speed, "CALIBRATE_EVERY_NS", 10**15)  # only the explicit calibrations
    rec = wl.Recorder()  # first calibration: 10 ms
    rec.call("op", lambda: None)
    rec.call("op", lambda: None)
    rec.fault("op", "the second call broke an invariant")
    raw = rec.samples["op"][0]
    rec.calibrate()  # 30 ms: the machine ran at half the reference speed on average
    assert rec.samples["op"] == [raw * wl.speed.REFERENCE_S / 0.020]
    assert rec.busy_ns == rec.samples["op"][0] and rec.pending == []
    assert (rec.attempted, rec.failed) == (2, 1)
    rec.calibrate()  # nothing pending: nothing changes
    assert rec.samples["op"] == [raw * wl.speed.REFERENCE_S / 0.020]


def test_tracer_uninstall_restores_the_program():
    from foodn import evaluator, network

    before = (evaluator.parse_expr, network.Network.add_relation)
    tracer = Tracer()
    tracer.install()
    assert evaluator.parse_expr is not before[0]
    tracer.uninstall()
    assert (evaluator.parse_expr, network.Network.add_relation) == before


# -- the command -----------------------------------------------------------------


def test_repeat_mode_prints_each_spread_against_its_bound(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    run.repeat(ROOT, ["evaluate"], 1, 0.5, 2)
    out = capsys.readouterr().out
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in bench["end_to_end"]:
        line = next(l for l in out.splitlines() if l.strip().startswith(metric["name"] + " "))
        assert "spread" in line and f"bound {metric['bound']:.0%}" in line


def test_fails_without_the_program():
    bare = run.Context(ROOT).out / "bare"  # only BENCHMARK.json and perfbench/
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == ""
