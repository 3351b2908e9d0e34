"""benchmarks/mutants.py's catalogue and summary parser, loaded from its file; no mutant is run."""
from __future__ import annotations

from conftest import ROOT, load

mutants = load("benchmarks/mutants.py")


def test_every_old_text_occurs_once_in_the_checkout():
    # a refactor that moves a mutant's text fails here, not in a mutant run
    assert mutants.stale(ROOT) == []


def test_ids_are_unique_and_every_mutant_changes_its_text():
    ids = [m[0] for m in mutants.MUTANTS]
    assert len(ids) == len(set(ids)) >= 15
    assert all(old != new for _, _, old, new, _ in mutants.MUTANTS)
    assert mutants.SELF.endswith(f"::{test_every_old_text_occurs_once_in_the_checkout.__name__}")


def test_killers_reads_failed_and_error_lines():
    output = """\
=========================== short test summary info ============================
FAILED tests/test_f.py::test_bad - assert 1 == 2
FAILED tests/test_f.py::test_p[c - d] - AssertionError: assert 'c - d' == 'a b'
ERROR tests/test_g.py
ERROR tests/test_f.py::test_err - RuntimeError: x
2 failed, 2 passed, 2 errors in 0.79s
"""
    assert mutants.killers(output) == [
        "tests/test_f.py::test_bad", "tests/test_f.py::test_p[c - d]",
        "tests/test_g.py", "tests/test_f.py::test_err",
    ]
    assert mutants.killers("1061 passed in 51.92s\n") == []
    # conftest failed to import: pytest printed no summary
    assert mutants.killers("ImportError while loading conftest\n") is None
