"""End-to-end and per-layer benchmark of foodn.

Run from the root of a checkout:

    python3 perfbench/run.py --workload build --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25            # every workload, named figures
    python3 perfbench/run.py --workload session --repeat 10          # run-to-run spread vs bounds

A run sets up its inputs from the seed (several times, timing each), then
runs whole rounds of the workload for --seconds, one caller in a closed
loop, checking every answer.  The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
figures, from span recorders wrapped around the program's entry points.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

# Set-ups per run, half before the rounds and half after, so that setup_s
# (their median) samples the machine at both ends of the run: at least
# MIN_SETUPS each time, and cheap ones repeat until SETUP_BUDGET_S is spent.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 2, 25, 0.5
OUT = ".perfbench_out"


class Context:
    def __init__(self, root: Path):
        self.root = root
        self.out = root / OUT
        self.out.mkdir(exist_ok=True)


def locate_program() -> Path:
    """The checkout root (the working directory), with foodn importable
    from its src/.  Exits 2 when the program is not there."""
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "foodn" / "__init__.py").is_file():
        sys.exit(f"error: no program to measure: {src / 'foodn'} is missing; run from a checkout root")
    sys.path.insert(0, str(src))
    import foodn

    if Path(foodn.__file__).resolve().parent != src / "foodn":
        sys.exit(f"error: imported foodn from {foodn.__file__}, not from {src}")
    return root


# -- statistics ------------------------------------------------------------------


def tail(samples):
    """(percentile, value) for the highest of p75/p90/p99/p99.9 with at least
    ten samples beyond it, or None below forty samples."""
    n = len(samples)
    if n < 40:
        return None
    ordered = sorted(samples)
    for p in (99.9, 99.0, 90.0, 75.0):
        if n * (1 - p / 100) >= 10:
            return p, ordered[math.ceil(p / 100 * n) - 1]
    return None


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import foodn.kernel

    from workloads import Cli

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "backend": foodn.kernel.BACKEND,
        "backends_available": sorted(foodn.kernel.available_backends()),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "bytecode_policy": Cli.POLICY,
    }


# -- one run ---------------------------------------------------------------------


def set_up(workload, seed, ctx):
    """Timed set-ups, each between two calibrations; returns the last state
    and the times in reference seconds."""
    times, state = [], None
    before = speed.calibration_s()
    while len(times) < MIN_SETUPS or (sum(times) < SETUP_BUDGET_S and len(times) < MAX_SETUPS):
        if state is not None:
            workload.teardown(state)
        start = time.perf_counter()
        state = workload.setup(seed, ctx)
        took = time.perf_counter() - start
        after = speed.calibration_s()
        times.append(took * speed.factor(before, after))
        before = after
    return state, times


def run_rounds(workload, state, seconds, recorders):
    """Whole rounds until the time is up, cycling through the recorders
    (traced and untraced rounds alternate in a traced run).  Returns the
    busy time of each round in reference nanoseconds, per recorder."""
    busy = [[] for _ in recorders]
    start = time.perf_counter()
    i = 0
    while True:
        k = i % len(recorders)
        rec, extras = recorders[k]
        before = rec.busy_ns
        tracer = rec.tracer
        if tracer is not None:
            tracer.install()
        try:
            workload.round(state, rec)
        finally:
            if tracer is not None:
                tracer.uninstall()
        rec.calibrate()
        busy[k].append(rec.busy_ns - before)
        if extras is not None and hasattr(workload, "traced_extras"):
            tracer.install()
            try:
                workload.traced_extras(state, extras)
            finally:
                tracer.uninstall()
            extras.calibrate()
        i += 1
        if time.perf_counter() - start >= seconds and i >= len(recorders):
            return busy


def kernel_micro(root):
    """The kernel micro-layer: the cases of benchmarks/bench_kernel.py,
    seconds per call (best of three) for every available backend."""
    import foodn.kernel
    from foodn.expr import compile_program, parse_expr

    path = root / "benchmarks" / "bench_kernel.py"
    spec = importlib.util.spec_from_file_location("bench_kernel", path)
    bench_kernel = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_kernel)
    out = {}
    for label, body, n_vars, n_supports in bench_kernel.CASES:
        names = [chr(ord("a") + i) for i in range(n_vars)]
        program = compile_program(parse_expr(body), {v: i for i, v in enumerate(names)})
        supports, degrees = bench_kernel.build_inputs(n_vars, n_supports)
        slug = label.split(",")[0].replace(" ", "_")
        for backend, fn in sorted(foodn.kernel.available_backends().items()):
            seconds = bench_kernel.bench(fn, program, supports, degrees, repeat=3, calls=1)
            out[(slug, backend)] = seconds
    return out


def run_once(name, seed, seconds, trace, root):
    import workloads
    from spans import Tracer

    ctx = Context(root)
    workload = workloads.WORKLOADS[name]
    env = environment(name, seed, seconds, trace)
    print("env " + json.dumps(env), flush=True)
    checked = []  # every recorder whose wrong answers count
    state = None
    try:
        if not trace:
            state, setup_times = set_up(workload, seed, ctx)
            rec = workloads.Recorder()
            counted = checked = [rec]
            busy = run_rounds(workload, state, seconds, [(rec, None)])[0]
            workload.teardown(state)
            state, more = set_up(workload, seed, ctx)
            setup_times += more
            kinds = workload.kinds(state)
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (peak_rss_mb(children=name == "cli"), "MB"),
                "round_s": (statistics.median(busy) / 1e9, "s"),
                "op_us": (workloads.geomean([workloads.median_s(rec.samples[k]) for k in kinds]) * 1e6, "us"),
            }
            details = dict(workload.details(state, rec))
            details["machine.calibration_ms"] = (statistics.median(rec.calibrations) * 1e3, "ms")
            samples = rec.samples
        else:
            metrics, details = {}, {}
            # One traced round of every other workload, so that every
            # per-layer figure is measured in every traced run.
            for other in workloads.WORKLOADS.values():
                if other is workload:
                    continue
                tracer = Tracer()
                rec, extras = workloads.Recorder(tracer), workloads.Recorder(tracer)
                checked += [rec, extras]
                other_state = other.setup(seed, ctx)
                try:
                    run_rounds(other, other_state, 0, [(rec, extras)])
                    metrics.update(other.layers(other_state, extras, tracer))
                finally:
                    other.teardown(other_state)
            # The workload itself: traced and untraced rounds alternate, and
            # the ratio of their busy times is the tracing overhead.
            state = workload.setup(seed, ctx)
            tracer = Tracer()
            traced, extras, plain = workloads.Recorder(tracer), workloads.Recorder(tracer), workloads.Recorder()
            counted = [traced, plain]
            checked += [traced, extras, plain]
            busy_traced, busy_plain = run_rounds(workload, state, seconds, [(traced, extras), (plain, None)])
            metrics.update(workload.layers(state, extras, tracer))
            overhead = statistics.median(busy_traced) / statistics.median(busy_plain) - 1.0
            metrics["trace.overhead_ratio"] = (overhead, "1")
            for (slug, backend), secs in sorted(kernel_micro(root).items()):
                details[f"kernel.micro.{slug}.{backend}_ms"] = (secs * 1e3, "ms")
                if backend == env["backend"]:
                    metrics[f"kernel.micro.{slug}_ms"] = (secs * 1e3, "ms")
            spans_path = ctx.out / f"spans-{name}-seed{seed}.json"
            tracer.write(spans_path)
            print(f"spans written to {spans_path.relative_to(root)}")
            samples = traced.samples
    finally:
        if state is not None:
            workload.teardown(state)

    attempted = sum(r.attempted for r in counted)
    failed = sum(r.failed for r in counted)
    wrong = [w for r in checked for w in r.wrong]
    report(name, samples, details, metrics, attempted, failed)
    print(
        "detail "
        + json.dumps(
            {
                "env": env,
                "figures": {k: {"value": v, "unit": u} for k, (v, u) in details.items()},
                "kinds": {
                    k: {"n": len(v), "median_s": statistics.median(v) / 1e9} for k, v in sorted(samples.items())
                },
            }
        )
    )
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def report(name, samples, details, metrics, attempted, failed):
    print(f"== {name}: {attempted} operations attempted, {failed} failed")
    for kind, values in sorted(samples.items()):
        median = statistics.median(values) / 1e6
        top = tail(values)
        extra = f", p{top[0]:g} {top[1] / 1e6:.4f} ms" if top else ""
        print(f"   {kind:28} median {median:10.4f} ms  (n={len(values)}{extra})")
    for key, (value, unit) in list(details.items()) + list(metrics.items()):
        print(f"   {key:40} {value:14.6g} {unit}")


# -- several runs ----------------------------------------------------------------


def child_run(root, name, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: {name} seed {seed} exited {proc.returncode}")
    detail = next(json.loads(l[7:]) for l in lines if l.startswith("detail "))
    return json.loads(lines[-1]), detail


def run_all(root, names, seed, seconds):
    """Every workload once, each in its own process, with its named figures."""
    for name in names:
        result, detail = child_run(root, name, seed, seconds)
        print(f"== {name}: correct={result['correct']}, {result['attempted']} attempted, "
              f"{result['failed']} failed, backend {detail['env']['backend']}")
        for key, fig in list(detail["figures"].items()) + list(result["metrics"].items()):
            print(f"   {key:32} {fig['value']:14.6g} {fig['unit']}")


def repeat(root, names, seed, seconds, times):
    """Run each workload `times` times on consecutive seeds and print every
    end-to-end metric's spread, (q3 - q1) / median, against its bound.
    Every run's result and detail go to .perfbench_out/repeat-<workload>.jsonl."""
    bench = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name in names:
        runs = []
        with open(Context(root).out / f"repeat-{name}.jsonl", "w", encoding="utf-8") as log:
            for i in range(times):
                result, detail = child_run(root, name, seed + i, seconds)
                log.write(json.dumps({"result": result, "detail": detail}) + "\n")
                runs.append(result)
        shares = {(r["failed"], r["attempted"]) for r in runs}
        print(f"== {name}: {times} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed/attempted: {sorted(f'{f}/{a}' for f, a in shares)}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"   {metric:14} median {med:12.6g}  spread {spread:7.2%}  bound {bound:.0%}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="build, evaluate, session, cli or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0, help="runs per workload, for the spread table")
    args = ap.parse_args()
    root = locate_program()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            ap.error(f"unknown workload {name!r}")
    if args.repeat:
        repeat(root, names, args.seed, args.seconds, args.repeat)
    elif args.workload == "all":
        run_all(root, names, args.seed, args.seconds)
    else:
        run_once(args.workload, args.seed, args.seconds, args.trace, root)


if __name__ == "__main__":
    main()
