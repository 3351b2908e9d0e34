"""The evaluation kernel's one loop.

Runs a compiled body (a function of the tuple of slot values, see
``expr.compile_program``) over every combination of the variables'
supports, taking the min of the participating degrees per combination and
the max degree over outputs that coincide within the tolerance.
``evaluator.extend`` runs on the same loop.
"""
from __future__ import annotations

import math
from itertools import product

from .errors import EvaluationError
from .fuzzy import MAX_COMBINATIONS, merge_pairs

BACKEND = "pure"


def eval_program(program, supports, degrees, tol):
    """Enumerate *program* over fuzzy variables.

    *supports* and *degrees* are parallel per-variable sequences of floats.
    Returns (values, degrees) lists in canonical order.
    """
    total = 1
    for column in supports:
        if not column:
            raise EvaluationError("a variable has an empty support")
        total *= len(column)
    if total > MAX_COMBINATIONS:
        raise EvaluationError(f"{total} support combinations exceed the enumeration limit")
    # a body without variables is one crisp value at degree 1
    mins = map(min, product(*degrees)) if degrees else (1.0,)
    try:
        pairs = [(program(xs), d) for xs, d in zip(product(*supports), mins)]
    except ZeroDivisionError as exc:
        raise EvaluationError("division by zero at a support combination") from exc
    except (ArithmeticError, ValueError) as exc:
        raise EvaluationError(f"evaluation failed at a support combination: {exc}") from exc
    if not all(math.isfinite(value) for value, _ in pairs):
        raise EvaluationError("non-finite result at a support combination")
    merged = merge_pairs(pairs, tol)
    return [s for s, _ in merged], [d for _, d in merged]
