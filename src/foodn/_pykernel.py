"""The evaluation kernel's one loop.

Runs a compiled body (one generated function of the slot values, see
``expr.compile_program``) over every combination of the variables'
supports, with only C builtins around it.  The min of the degrees per
combination is taken one column at a time, lazily and in the product's
order, and ``fuzzy.merge_pairs`` keeps the max over outputs that coincide
within the tolerance; its canonical pairs are the result.
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
    Returns ``merge_pairs``' tuple of (support, degree) float pairs.
    """
    total = 1
    for column in supports:
        if not column:
            raise EvaluationError("a variable has an empty support")
        total *= len(column)
    if total > MAX_COMBINATIONS:
        raise EvaluationError(f"{total} support combinations exceed the enumeration limit")
    try:
        values = list(map(program, product(*supports)))
    except ZeroDivisionError as exc:
        raise EvaluationError("division by zero at a support combination") from exc
    except (ArithmeticError, ValueError) as exc:
        raise EvaluationError(f"evaluation failed at a support combination: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise EvaluationError("non-finite result at a support combination")
    # a body without variables is one crisp value at degree 1
    mins, *rest = degrees or [(1.0,)]
    for column in rest:
        mins = _min_with(mins, column)
    return merge_pairs(zip(values, mins), tol)


def _min_with(mins, column):
    """The min of each of *mins* with each degree of *column*, in product
    order and lazily, so that no list of mins is held."""
    return (a if a <= b else b for a in mins for b in column)
