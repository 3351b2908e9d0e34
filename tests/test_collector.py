"""The build entry points pause the cyclic garbage collector for their
duration and leave its enabled state as they found it."""
from __future__ import annotations

import gc
import json
from pathlib import Path

import pytest

from conftest import POLYGONS
from foodn import dsl, serialize
from foodn.errors import CorruptDocument, DslError

TEXT = Path(POLYGONS).read_text(encoding="utf-8")
NET = dsl.parse_network(TEXT)[0]
DOCUMENT = serialize.dumps(NET)

# entry point -> (a call that returns, a call that raises and what it
# raises, the owner and name of a function each call reaches inside)
ENTRY_POINTS = {
    "parse_network": (
        lambda: dsl.parse_network(TEXT),
        (lambda: dsl.parse_network("class Bad {"), DslError),
        (dsl, "_tokenize"),
    ),
    "loads": (
        lambda: serialize.loads(DOCUMENT),
        (lambda: serialize.loads("{nope"), CorruptDocument),
        (json, "loads"),
    ),
    "dumps": (
        lambda: serialize.dumps(NET),
        (lambda: serialize.dumps(object()), AttributeError),
        (serialize, "to_document"),
    ),
}


@pytest.fixture(autouse=True)
def collector_restored():
    """A failing case must not leave the collector off for the tests after it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "caller-disabled"])
@pytest.mark.parametrize("outcome", ["returns", "raises"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_restores_the_collector(entry, outcome, enabled, monkeypatch):
    returns, (raises, error), (owner, name) = ENTRY_POINTS[entry]
    inner = getattr(owner, name)
    seen = []

    def watched(*args, **kwargs):
        seen.append(gc.isenabled())
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, watched)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if outcome == "returns":
        returns()
    else:
        with pytest.raises(error):
            raises()
    assert gc.isenabled() is enabled
    assert seen and not any(seen)  # paused while the call ran

