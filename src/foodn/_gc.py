"""Building a network without paying Python's cyclic garbage collector.

Parsing, loading and dumping a network allocate tens of thousands of
container objects that stay alive, and every allocation counts towards the
collector's next pass, which then walks objects that are not garbage.
"""
from __future__ import annotations

import functools
import gc


def collector_paused(fn):
    """Run *fn* with the cyclic garbage collector disabled, and restore the
    collector's prior enabled state when *fn* returns or raises.

    The collector's switch is process-global: while the call runs, no thread
    gets automatic collections, and a ``gc.disable()`` made by another thread
    during the call is undone when the call ends, if the collector was
    enabled when the call began.  Reference counting still frees acyclic
    garbage at once; cyclic garbage made during the call waits for the next
    collection after it.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused
