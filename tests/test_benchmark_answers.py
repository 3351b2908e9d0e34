"""perfbench's build, evaluate and session rounds at small sizes, over many
seeds, with every answer checked as the benchmark checks it.  The expected
answers come from perfbench/gen.py and perfbench/reference.py, which import
no engine type.  Only the recorder's wrong answers and failed operations are
read; its timings are not."""
from __future__ import annotations

import pytest

from conftest import ROOT, load

workloads = load("perfbench/workloads.py")

SEEDS = range(40)


class Build(workloads.Build):
    SIZES = (20, 40, 60)


class Evaluate(workloads.Evaluate):
    NARROW_EACH = 1


class Session(workloads.Session):
    OBJECTS, CLASSES, CHAINS = 60, 4, 2
    MEMBERSHIPS, QUERIES, EACH_EXPLOITER = 20, 8, 2


# Failed operations per round.  A session round ends with the fixture's
# modifier chain, whose second and third steps bind a name that is still in
# history: the name-reuse fault, which the recorder counts as failed.
FAILED_PER_ROUND = {"build": 0, "evaluate": 0, "session": 2}


@pytest.mark.parametrize("workload", [Build(), Evaluate(), Session()], ids=lambda w: w.name)
def test_every_benchmark_answer_holds_over_many_seeds(workload, monkeypatch):
    monkeypatch.chdir(ROOT)  # perfbench names the bundled fixtures relative to the checkout
    rec = workloads.Recorder()
    for seed in SEEDS:
        workload.round(workload.setup(seed, None), rec)
    assert rec.wrong == []
    assert rec.failed == FAILED_PER_ROUND[workload.name] * len(SEEDS)
