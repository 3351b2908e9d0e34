"""Time the evaluation kernel on its own.

Compiles a few representative method bodies, without sum(), to their
functions and runs them over fuzzy inputs of growing size, so every case
enumerates the full product of its variables' supports, and reports the
best wall time per call.  A second table times sum(a) over a k-member
family, the shape of a polygon's perimeter, which the evaluator folds one
member at a time through the same kernel.  Usage:

    python benchmarks/bench_kernel.py [--repeat 7] [--calls 20]
"""
from __future__ import annotations

import argparse
import timeit

from foodn.evaluator import evaluate_method
from foodn.expr import compile_program, parse_expr
from foodn.fuzzy import FuzzySet
from foodn.kernel import eval_program
from foodn.model import Binding, FuzzyTuple, MethodDef, Property, define_object

CASES = [
    # (label, body, number of variables, supports per variable)
    ("scale, 1 var x 50", "4*a", 1, 50),
    ("square, 1 var x 200", "a^2", 1, 200),
    ("product, 2 vars x 40", "a*b", 2, 40),
    ("mixed trig, 2 vars x 60", "a^2*sin(b)", 2, 60),
    ("polynomial, 3 vars x 25", "a*b + b*c + a*c", 3, 25),
    ("deep, 4 vars x 12", "sqrt(a^2 + b^2) * (c + d)", 4, 12),
    # two variable-disjoint halves each: what a factorizing planner would split
    ("sum of products, 4 vars x 12", "a*b + c*d", 4, 12),
    ("product of sums, 4 vars x 12", "(a+b)*(c+d)", 4, 12),
]


FOLDS = [
    # (label, members, supports per member)
    ("perimeter, 4 sides x 3", 4, 3),
    ("perimeter, 6 sides x 6", 6, 6),
    ("perimeter, 12 sides x 5", 12, 5),
]
PERIMETER = MethodDef("f1", "Perimeter", "sum(a)", (Binding("a", "p2", "all"),), "cm")


def build_polygon(n_sides: int, n_supports: int):
    """An object whose sides are fuzzy lengths on a 0.05 grid, as in the
    benchmark's wide perimeters, so that many partial sums coincide."""
    sides = []
    for v in range(n_sides):
        start = 20 + (7 * v) % 41
        sides.append(FuzzySet(tuple(
            ((start + k) * 0.05, 1.0 - 0.9 * k / n_supports) for k in range(n_supports)
        )))
    return define_object("W", [Property("p2", "Lengths of sides", FuzzyTuple(tuple(sides)))])


def build_inputs(n_vars: int, n_supports: int):
    supports = []
    degrees = []
    for v in range(n_vars):
        supports.append([1.0 + 0.01 * (v + 1) * k for k in range(n_supports)])
        degrees.append([1.0 - 0.9 * k / n_supports for k in range(n_supports)])
    return supports, degrees


def bench(fn, program, supports, degrees, repeat: int, calls: int) -> float:
    run = lambda: fn(program, supports, degrees, 1e-9)  # noqa: E731 - tiny timing closure
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

    print()
    print(f"{'fold of sum(a)':28}{'time':>14}")
    print("-" * 42)
    for label, n_sides, n_supports in FOLDS:
        polygon = build_polygon(n_sides, n_supports)
        run = lambda: evaluate_method(polygon, PERIMETER, 1e-9)  # noqa: E731
        seconds = min(timeit.repeat(run, number=args.calls, repeat=args.repeat)) / args.calls
        print(f"{label:28}{seconds * 1e3:>12.3f}ms")


if __name__ == "__main__":
    main()
