"""Pure-Python evaluation kernel.

Runs a compiled RPN program over every combination of the variables'
supports, taking the min of the participating degrees per combination and
the max degree over outputs that coincide within the tolerance.
"""
from __future__ import annotations

import math

from .errors import EvaluationError
from .expr import (
    OP_ADD,
    OP_CONST,
    OP_COS,
    OP_DIV,
    OP_MUL,
    OP_NEG,
    OP_POW,
    OP_SIN,
    OP_SQRT,
    OP_SUB,
    OP_VAR,
)
from .fuzzy import MAX_COMBINATIONS, merge_pairs

BACKEND = "pure"

_DEG = math.pi / 180.0


def eval_program(codes, operands, consts, max_stack, supports, degrees, tol):
    """Enumerate the program over fuzzy variables.

    *supports* and *degrees* are parallel per-variable lists of floats.
    Returns (values, degrees) lists in canonical order.
    """
    n_vars = len(supports)
    sizes = [len(col) for col in supports]
    total = 1
    for k in sizes:
        if k == 0:
            raise EvaluationError("a variable has an empty support")
        total *= k
    if total > MAX_COMBINATIONS:
        raise EvaluationError(f"{total} support combinations exceed the enumeration limit")

    n_ops = len(codes)
    idx = [0] * n_vars
    stack = [0.0] * max(max_stack, 1)
    pairs = []

    for _ in range(total):
        sp = 0
        for i in range(n_ops):
            op = codes[i]
            arg = operands[i]
            if op == OP_CONST:
                stack[sp] = consts[arg]
                sp += 1
            elif op == OP_VAR:
                stack[sp] = supports[arg][idx[arg]]
                sp += 1
            elif op == OP_ADD:
                sp -= 1
                stack[sp - 1] = stack[sp - 1] + stack[sp]
            elif op == OP_SUB:
                sp -= 1
                stack[sp - 1] = stack[sp - 1] - stack[sp]
            elif op == OP_MUL:
                sp -= 1
                stack[sp - 1] = stack[sp - 1] * stack[sp]
            elif op == OP_DIV:
                sp -= 1
                if stack[sp] == 0.0:
                    raise EvaluationError("division by zero at a support combination")
                stack[sp - 1] = stack[sp - 1] / stack[sp]
            elif op == OP_POW:
                sp -= 1
                try:
                    stack[sp - 1] = math.pow(stack[sp - 1], stack[sp])
                except (ValueError, OverflowError) as exc:
                    raise EvaluationError(f"power failed at a support combination: {exc}") from exc
            elif op == OP_NEG:
                stack[sp - 1] = -stack[sp - 1]
            elif op == OP_SIN:
                stack[sp - 1] = math.sin(stack[sp - 1] * _DEG)
            elif op == OP_COS:
                stack[sp - 1] = math.cos(stack[sp - 1] * _DEG)
            elif op == OP_SQRT:
                try:
                    stack[sp - 1] = math.sqrt(stack[sp - 1])
                except ValueError as exc:
                    raise EvaluationError(f"sqrt failed at a support combination: {exc}") from exc
            else:
                raise EvaluationError(f"unknown opcode {op}")
        value = stack[0]
        if not math.isfinite(value):
            raise EvaluationError("non-finite result at a support combination")

        degree = 1.0
        for k in range(n_vars):
            d = degrees[k][idx[k]]
            if d < degree:
                degree = d
        pairs.append((value, degree))

        k = n_vars - 1
        while k >= 0:
            idx[k] += 1
            if idx[k] < sizes[k]:
                break
            idx[k] = 0
            k -= 1

    merged = merge_pairs(pairs, tol)
    return [s for s, _ in merged], [d for _, d in merged]
