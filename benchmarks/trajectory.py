"""Write one point of the benchmark trajectory: BENCH_<short rev>.json.

Runs every workload that this checkout's BENCHMARK.json names once,
untraced at seed 1 for its run_seconds, through its perfbench/run.py, and
writes to benchmarks/trajectory/ each run's JSON report, the lines and
non-blank lines of src/foodn/*.py, the checkout's git revision and the
Python version.

With --against REV it checks REV out with `git worktree add` in a
temporary directory and, for each workload, runs PAIRS alternating pairs
of untraced runs, REV and the checkout, each through its own
perfbench/run.py; the first pair runs REV first, the next the checkout
first, and so on.  The file then also holds, per workload and gated
metric, each side's median and quartiles and in how many pairs the
checkout read lower, with every run's report.  Usage:

    python benchmarks/trajectory.py [--against REV]
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PAIRS = 10  # alternating pairs per workload, each side's quartiles need several
SEED = 1


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def count_lines(root: Path) -> dict:
    """Lines and non-blank lines of src/foodn/*.py, counted as `wc -l` and
    `grep -cv '^[[:space:]]*$'` count them."""
    lines = non_blank = 0
    for path in sorted((root / "src" / "foodn").glob("*.py")):
        text = path.read_bytes()
        lines += text.count(b"\n")
        non_blank += sum(1 for line in text.split(b"\n") if line.strip(b" \t\r\f\v"))
    return {"lines": lines, "non_blank": non_blank}


def run(root: Path, workload: str, seconds: float) -> dict:
    """One untraced run of *root*'s own perfbench/run.py: its last stdout
    line, {"correct", "attempted", "failed", "metrics"}."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: {workload} in {root} exited {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(base: list[dict], change: list[dict], metrics: list[str]) -> dict:
    """Per metric, each side's median and quartiles over its runs, and in
    how many pairs (base[i], change[i]) the change read lower; ties count
    for neither.  Also each side's failed and attempted operations."""
    out = {}
    for metric in metrics:
        before = [r["metrics"][metric]["value"] for r in base]
        after = [r["metrics"][metric]["value"] for r in change]
        out[metric] = {
            "base": quartiles(before),
            "change": quartiles(after),
            "lower_in": sum(a < b for b, a in zip(before, after)),
        }
    for side, runs in (("base", base), ("change", change)):
        out[f"{side}_ops"] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
        }
    return out


def against(root: Path, rev: str, bench: dict) -> tuple[dict, dict]:
    """Alternating pairs of REV and *root* for every workload: (the
    summary, the first of *root*'s runs per workload)."""
    metrics = [m["name"] for m in bench["end_to_end"]]
    seconds = bench["run_seconds"]
    rev = git(root, "rev-parse", "--short", rev)
    workloads, first = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        base_root = Path(tmp) / "base"
        git(root, "worktree", "add", "--detach", str(base_root), rev)
        try:
            for w in bench["workloads"]:
                sides = {"base": [], "change": []}
                for i in range(PAIRS):
                    order = (("base", base_root), ("change", root))
                    for side, checkout in order if i % 2 == 0 else order[::-1]:
                        sides[side].append(run(checkout, w["name"], seconds))
                workloads[w["name"]] = {**summarize(sides["base"], sides["change"], metrics),
                                        "runs": sides}
                first[w["name"]] = sides["change"][0]
        finally:
            git(root, "worktree", "remove", "--force", str(base_root))
    return {"rev": rev, "seed": SEED, "pairs": PAIRS, "workloads": workloads}, first


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="REV", help="also run alternating pairs against REV")
    args = ap.parse_args()
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    rev = git(REPO, "rev-parse", "--short", "HEAD")
    seconds = bench["run_seconds"]
    point = {
        "rev": rev,
        # a run of uncommitted sources is not the revision it names
        "dirty": bool(git(REPO, "status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "seconds": seconds,
        "loc": {"src": count_lines(REPO)},
    }
    if args.against:
        point["against"], point["runs"] = against(REPO, args.against, bench)
    else:
        point["runs"] = {w["name"]: run(REPO, w["name"], seconds) for w in bench["workloads"]}
    out = REPO / "benchmarks" / "trajectory" / f"BENCH_{rev}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out.relative_to(REPO)}")


if __name__ == "__main__":
    main()
