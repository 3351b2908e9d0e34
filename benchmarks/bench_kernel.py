"""Time the evaluation kernel on its own.

Runs a few representative method bodies, without sum(), over fuzzy inputs
of growing size, so every case enumerates the full product of its
variables' supports, and reports the best wall time per call.  Usage:

    python benchmarks/bench_kernel.py [--repeat 7] [--calls 20]
"""
from __future__ import annotations

import argparse
import timeit

from foodn.expr import compile_program, parse_expr
from foodn.kernel import eval_program

CASES = [
    # (label, body, number of variables, supports per variable)
    ("scale, 1 var x 50", "4*a", 1, 50),
    ("square, 1 var x 200", "a^2", 1, 200),
    ("product, 2 vars x 40", "a*b", 2, 40),
    ("mixed trig, 2 vars x 60", "a^2*sin(b)", 2, 60),
    ("polynomial, 3 vars x 25", "a*b + b*c + a*c", 3, 25),
    ("deep, 4 vars x 12", "sqrt(a^2 + b^2) * (c + d)", 4, 12),
]


def build_inputs(n_vars: int, n_supports: int):
    supports = []
    degrees = []
    for v in range(n_vars):
        supports.append([1.0 + 0.01 * (v + 1) * k for k in range(n_supports)])
        degrees.append([1.0 - 0.9 * k / n_supports for k in range(n_supports)])
    return supports, degrees


def bench(fn, program, supports, degrees, repeat: int, calls: int) -> float:
    run = lambda: fn(  # noqa: E731 - tiny timing closure
        program.codes,
        program.operands,
        program.consts,
        program.max_stack,
        supports,
        degrees,
        1e-9,
    )
    times = timeit.repeat(run, number=calls, repeat=repeat)
    return min(times) / calls


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=7)
    ap.add_argument("--calls", type=int, default=20)
    args = ap.parse_args()

    print(f"{'case':28}{'time':>14}")
    print("-" * 42)
    for label, body, n_vars, n_supports in CASES:
        var_names = [chr(ord("a") + i) for i in range(n_vars)]
        program = compile_program(parse_expr(body),
                                  {v: i for i, v in enumerate(var_names)})
        supports, degrees = build_inputs(n_vars, n_supports)
        seconds = bench(eval_program, program, supports, degrees,
                        args.repeat, args.calls)
        print(f"{label:28}{seconds * 1e3:>12.3f}ms")


if __name__ == "__main__":
    main()
