"""Write the tier-1 kill matrix of a catalogue of mutants: MUT_<short rev>.json.

    python benchmarks/mutants.py

Checks HEAD out with `git worktree add` in a temporary directory and stops
unless every mutant's old text occurs there exactly once and tier-1 passes.
Per mutant it writes the new text over the old, runs the whole of tier-1 (no
-x; SELF is deselected, as it fails on every mutated tree) and restores the
file.  A failed or errored test kills the mutant, and so does a run that
printed no test summary (it died at collection).  benchmarks/mutants/ gets
each verdict, every killing test and the run's seconds, with the baseline's.
"""
from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from trajectory import REPO, git

NET, FUZZY, MODEL, DSL = (f"src/foodn/{m}.py" for m in ("network", "fuzzy", "model", "dsl"))
KERNEL, EXPR, GC = "src/foodn/_pykernel.py", "src/foodn/expr.py", "src/foodn/_gc.py"
MUTANTS = [  # (id, path, old, new, the fault it stands for)
    ("query-one-step", NET, "frontier.append(nxt)", "pass",
     "a transitive query follows only the start's own edges"),
    ("symdiff-no-owner", "src/foodn/exploiters.py", 'replace(x, id=f"{x.id}@{owner}") if x.id in clash else x',
     "x", "sym-difference keeps an id left on both sides twice, without @owner"),
    ("infer-product", NET, "if d < degree:\n                            degree = d\n",
     "if d < 1.0:\n                            degree *= d\n", "infer_relations scores under the product t-norm"),
    ("merge-equal-only", FUZZY, "if pair[0] - first <= tol:", "if pair[0] == first:",
     "merge_pairs merges only equal supports, as a dict would"),
    ("merge-last-support", FUZZY, "if pair[1] > merged[-1][1]:\n                merged[-1] = (first, pair[1])",
     "merged[-1] = (pair[0], max(pair[1], merged[-1][1]))", "merge_pairs keeps a run's last support"),
    ("terms-no-truth-number", MODEL, "    (TruthDegree, CrispNumber): _truth_against_number,\n", "",
     "a truth degree against a crisp 1 or 0 scores 0"),
    ("missing-scores-one", MODEL, "return 1.0 if type(class_prop.value) is Absent else 0.0", "return 1.0",
     "compat_degree scores every missing property 1"),
    ("min-late-bound", KERNEL, "mins = _min_with(mins, column)",
     "mins = (a if a <= b else b for a in mins for b in column)",
     "the per-column min is written inline, so it reads the loop's last column"),
    ("kernel-max", KERNEL, "(a if a <= b else b for", "(a if a >= b else b for",
     "the kernel takes a combination's degree by max, not min"),
    ("bin-no-parens", EXPR, 'f"({left} {node.op} {right})"', 'f"{left} {node.op} {right}"',
     "a Bin compiles without its parentheses, so precedence is Python's"),
    ("neg-no-sign", EXPR, 'return f"(-{source(node.operand)})"', 'return f"({source(node.operand)})"',
     "a Neg compiles without its sign"),
    ("infer-number-by-id", NET, "numbers.setdefault(p, len(numbers))",
     "numbers.setdefault(next((q for q in numbers if q.id == p.id), p), len(numbers))",
     "infer numbers class properties by id alone, so two classes share a term"),
    ("steps-in-text-order", DSL, "in sorted(steps, key=itemgetter(0)):", "in steps:",
     "parse_network runs its steps in text order, not phase by phase"),
    ("lint-before-modifiers", DSL, "_RELATION, _MODIFIER, _LINT = range(5)",
     "_RELATION, _LINT, _MODIFIER = range(5)", "the reflection lint runs before the modifiers exist"),
    ("tokenizer-no-hyphen", DSL, r"[^\W\d]\w*(?:-[^\W\d_]\w*)*", r"[^\W\d]\w*",
     "an identifier cannot hold a hyphen"),
    ("gc-no-finally", GC, "try:\n            return fn(*args, **kwargs)\n        finally:\n            if was_enabled:\n"
     "                gc.enable()", "result = fn(*args, **kwargs)\n        if was_enabled:\n            gc.enable()\n"
     "        return result", "collector_paused leaves the collector off when its call raises"),
    ("gc-no-guard", GC, "if was_enabled:\n                gc.enable()", "gc.enable()",
     "collector_paused turns on a collector that was off"),
    ("insert-key-no-kind", NET, "key = (relation.source, relation.target, relation.kind)",
     "key = (relation.source, relation.target)", "_insert keys an edge without its kind"),
    ("interval-first-component", MODEL, "cv.contains(min(values)) and cv.contains(max(values))",
     "cv.contains(values[0])", "a tuple is tested against an interval by its first component"),
    ("retire-without-history", NET, "            self.history[retired] = entity_kind(entity)\n", "",
     "a modifier drops its source instead of keeping it in history"),
    ("clone-retires-source", NET, "return self._bind(stored, kind, names)",
     'return self._bind(stored, kind, names, retired=names[0] if kind == "clone" else None)',
     "an exploiter mutates the network: clone retires its source"),
    ("json-float-format", "src/foodn/serialize.py", "_float = float.__repr__", "_float = format_number",
     "the JSON writer writes integral floats without their .0"),
]
SELF = "tests/test_mutants.py::test_every_old_text_occurs_once_in_the_checkout"
SUMMARY = re.compile(r"^=* ?(\d+ \w+|no tests ran).* in [\d.]+s")
KILL = re.compile(r"^(?:FAILED|ERROR) ([^\s\[]+(?:\[[^\]]*\])?)")  # a test id may hold " - "


def stale(root: Path) -> list[str]:
    """The ids of the mutants whose old text does not occur exactly once under *root*."""
    return [m[0] for m in MUTANTS if (root / m[1]).read_text(encoding="utf-8").count(m[2]) != 1]


def killers(output: str) -> list[str] | None:
    """The tests a `pytest -rfE` run failed or errored, or None when it printed no test summary."""
    lines = output.splitlines()
    if not any(SUMMARY.match(line) for line in lines):
        return None
    return [m.group(1) for m in map(KILL.match, lines) if m]


def tier1(root: Path, *deselect: str) -> tuple[subprocess.CompletedProcess, float]:
    """One tier-1 run of *root*, with fixed hash and hypothesis seeds and an empty example database."""
    with tempfile.TemporaryDirectory() as db:
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0",
               "HYPOTHESIS_STORAGE_DIRECTORY": db}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", "--continue-on-collection-errors", *(f"--deselect={t}" for t in deselect)],
            cwd=root, env=env, capture_output=True, text=True)
        return proc, round(time.perf_counter() - start, 1)


def matrix(root: Path) -> dict:
    if missing := stale(root):
        sys.exit(f"error: old text not found exactly once: {', '.join(missing)}")
    base, seconds = tier1(root)
    if base.returncode != 0:
        sys.exit(f"error: tier-1 fails on the unmutated tree:\n{base.stdout[-2000:]}")
    rows = []
    for mid, path, old, new, why in MUTANTS:
        file = root / path
        text = file.read_text(encoding="utf-8")
        file.write_text(text.replace(old, new), encoding="utf-8")
        try:
            proc, took = tier1(root, SELF)
        finally:
            file.write_text(text, encoding="utf-8")
        tests = killers(proc.stdout)
        rows.append({"id": mid, "path": path, "why": why, "killed": proc.returncode != 0,
                     "at_collection": tests is None, "killed_by": tests or [], "seconds": took})
        print(f"{mid}: {'killed' if proc.returncode else 'SURVIVED'} by {len(tests or [])}", flush=True)
    passed = int(re.search(r"(\d+) passed", base.stdout).group(1))
    return {"baseline": {"passed": passed, "seconds": seconds}, "mutants": rows,
            "killed": sum(r["killed"] for r in rows)}


def main() -> None:
    rev = git(REPO, "rev-parse", "--short", "HEAD")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "head"
        git(REPO, "worktree", "add", "--detach", str(root), rev)
        try:
            result = matrix(root)
        finally:
            git(REPO, "worktree", "remove", "--force", str(root))
    out = REPO / "benchmarks" / "mutants" / f"MUT_{rev}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"rev": rev, "python": platform.python_version(), **result}, indent=1) + "\n")
    print(f"wrote {out.relative_to(REPO)}: {result['killed']} of {len(MUTANTS)} killed")


if __name__ == "__main__":
    main()
