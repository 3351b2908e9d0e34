"""Write one point of the benchmark trajectory: BENCH_<short rev>.json.

Runs every workload that a checkout's BENCHMARK.json names (this checkout
by default) once, untraced at seed 1 for its run_seconds, through that
checkout's perfbench/run.py, and writes to benchmarks/trajectory/ each
run's JSON report, the lines and non-blank lines of src/foodn/*.py, the
checkout's git revision and the Python version.  Usage:

    python benchmarks/trajectory.py [--root CHECKOUT]
"""
from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=REPO, help="checkout to measure")
    root = ap.parse_args().root.resolve()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "perfbench"))
    import run  # the checkout's own runner

    rev = git(root, "rev-parse", "--short", "HEAD")
    seconds = bench["run_seconds"]
    point = {
        "rev": rev,
        # a run of uncommitted sources is not the revision it names
        "dirty": bool(git(root, "status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "seconds": seconds,
        "loc": {"src": count_lines(root)},
        "runs": {w["name"]: run.child_run(root, w["name"], 1, seconds)[0]
                 for w in bench["workloads"]},
    }
    out = REPO / "benchmarks" / "trajectory" / f"BENCH_{rev}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out.relative_to(REPO)}")


if __name__ == "__main__":
    main()
