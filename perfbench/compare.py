"""Compare two commits on one workload with identical benchmark code.

    python3 perfbench/compare.py BASE HEAD --workload NAME [--pairs 10] [--trace 0|1]

Exports both commits with ``git archive`` into ``.perfbench_work/compare/``,
copies this checkout's ``perfbench/`` and ``BENCHMARK.json`` over both, and
runs the benchmark in pairs, each run ``run_seconds`` long: pair k uses
seed 1000 + k on both sides, and the side that runs first alternates.  For
every metric it prints both medians and quartiles and how many pairs HEAD
won.  An end-to-end metric reads ``gain`` when there are at least ten
pairs, HEAD wins at least nine tenths of them, and the medians differ by
more than BASE's quartile distance; ``regression`` when HEAD's median is worse by more than the
metric's bound; ``unresolved`` when BASE's own spread is wider than the
bound; and ``within bound`` otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PAIRS = 10  # fewer pairs never read as a gain
FIRST_SEED = 1000


def export(rev: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True).stdout
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    shutil.rmtree(dest / HERE.name, ignore_errors=True)
    shutil.copytree(HERE, dest / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(checkout / HERE.name / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark failed in {checkout}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def head_wins(base: list[float], head: list[float], spec: dict) -> int:
    sign = 1.0 if spec["better"] == "lower" else -1.0
    return sum(sign * (b - h) > 0 for b, h in zip(base, head))


def verdict(base: list[float], head: list[float], spec: dict) -> str:
    sign = 1.0 if spec["better"] == "lower" else -1.0
    wins = head_wins(base, head, spec)
    q1, med_b, q3 = quartiles(base)
    med_h = statistics.median(head)
    worse_by = sign * (med_h - med_b) / abs(med_b) if med_b else 0.0
    if len(base) >= MIN_PAIRS and wins >= 0.9 * len(base) and abs(med_h - med_b) > q3 - q1:
        return "gain"
    if worse_by > spec["bound"]:
        return "regression"
    if med_b and (q3 - q1) / abs(med_b) > spec["bound"]:
        return "unresolved"
    return "within bound"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    work = ROOT / ".perfbench_work" / "compare"
    sides = {"base": export(args.base, work / "base"), "head": export(args.head, work / "head")}

    values: dict[str, dict[str, list[float]]] = {"base": {}, "head": {}}
    for k in range(args.pairs):
        order = ("base", "head") if k % 2 == 0 else ("head", "base")
        for side in order:
            result = run(sides[side], args.workload, FIRST_SEED + k, seconds, args.trace)
            if not result["correct"]:
                print(f"pair {k}: {side} failed {result['failed']} of {result['attempted']} ops")
            for name, metric in result["metrics"].items():
                values[side].setdefault(name, []).append(metric["value"])

    print(f"{args.workload}: {args.base} (base) vs {args.head} (head), {args.pairs} pairs of {seconds:g} s")
    for name, base in values["base"].items():
        head = values["head"][name]
        b1, b2, b3 = quartiles(base)
        h1, h2, h3 = quartiles(head)
        line = f"{name:45s} base {b2:.5g} [{b1:.5g}, {b3:.5g}]  head {h2:.5g} [{h1:.5g}, {h3:.5g}]"
        if name in specs:
            wins = head_wins(base, head, specs[name])
            line += f"  head won {wins}/{len(base)}: {verdict(base, head, specs[name])}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
