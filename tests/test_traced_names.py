"""The benchmark traces the program by name: perfbench/spans.py wraps each
(owner, attribute) where its caller looks it up.  A change that drops or
renames one of those names fails here, in the unit tests, rather than only
in a traced benchmark run.  The module is loaded from its file and used
read-only: nothing is wrapped."""
from __future__ import annotations

import pytest

from conftest import load


@pytest.mark.parametrize("owner, attr, span", load("perfbench/spans.py").targets(),
                         ids=lambda x: getattr(x, "__name__", x))
def test_every_traced_name_resolves(owner, attr, span):
    assert callable(getattr(owner, attr)), f"{span}: {owner.__name__}.{attr} is gone"
