"""The evaluation kernel: the one place method bodies are enumerated.

``eval_program(program, supports, degrees, tol)`` runs a compiled body over
every combination of its variables' supports (see ``_pykernel``).  This
module only re-exports ``_pykernel``; it stays separate because the
benchmark reads ``BACKEND`` and ``available_backends()`` here and traces
``eval_program`` where the evaluator looks it up, so folding it into
``_pykernel`` is a change to the benchmark as well.
"""
from __future__ import annotations

from . import _pykernel

BACKEND: str = _pykernel.BACKEND
eval_program = _pykernel.eval_program


def available_backends() -> dict:
    """Map of backend name to its eval_program; used by benchmarks."""
    return {"pure": eval_program}
