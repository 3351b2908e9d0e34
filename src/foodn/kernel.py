"""The evaluation kernel: the one place method bodies are enumerated.

``eval_program`` runs a compiled program over every combination of its
variables' supports (see ``_pykernel``).
"""
from __future__ import annotations

from . import _pykernel

BACKEND: str = _pykernel.BACKEND
eval_program = _pykernel.eval_program


def available_backends() -> dict:
    """Map of backend name to its eval_program; used by benchmarks."""
    return {"pure": eval_program}
