#!/usr/bin/env python3
"""Compare a base git ref with the working tree over alternating benchmark pairs.

    python3 scripts/bench_pairs.py BASE_REF --workload iris-lg --pairs 10 --seed 73

The base ref (git archive) and the working tree's tracked files, as they
are on disk, are copied into .bench_build/pairs/. Pair k runs
`perfbench/run.py --workload W --seed SEED+k --trace 0` in both copies,
base first in even pairs and change first in odd ones, so that a slow
stretch of the host does not always fall on one side. The script prints
every pair's end-to-end metrics, then for each metric the median and
quartiles of both sides, in how many pairs the change was better, and
whether a gain holds by the rule a claim needs: the change better in at
least 9 of 10 pairs, and its median ahead of the base median by more
than the base side's interquartile range.
It exits 1 if any run failed or had a failed operation, and removes the
copies on the way out.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS_DIR = ROOT / ".bench_build" / "pairs"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git ref of the base side")
    parser.add_argument("--workload", required=True,
                        help="a workload perfbench/run.py knows")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair k uses seed + k")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        parser.error("--pairs must be >= 1 and --seed >= 0")
    return args


def git(*args, **kwargs):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE, **kwargs).stdout


def export_base(ref: str, dest: Path) -> None:
    with tempfile.TemporaryFile() as archive:
        archive.write(git("archive", "--format=tar", ref))
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(dest, filter="data")


def export_working_tree(dest: Path) -> None:
    for name in git("ls-files", "-z").decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_side(checkout: Path, args, seed: int) -> dict | None:
    """The result line of one end-to-end run, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(seed), "--seconds", str(args.seconds),
         "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        print(f"  {checkout.name} seed {seed}: exit {proc.returncode}")
        return None
    result = json.loads(lines[-1])
    if result["failed"] or not result["correct"]:
        print(f"  {checkout.name} seed {seed}: {result['failed']} of "
              f"{result['attempted']} operations failed")
    return result


def quartiles(values) -> tuple:
    """(q1, median, q3) of values; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def gain_verdict(base, change, better: str) -> tuple:
    """(pairs the change won, whether the gain rule holds).

    The rule holds when the change is better in at least 9 of every 10
    pairs and its median beats the base median by more than the base
    side's interquartile range.
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    q1, base_median, q3 = quartiles(base)
    gap = sign * (base_median - statistics.median(change))
    return wins, 10 * wins >= 9 * len(base) and gap > q3 - q1


def summarize(metrics, results) -> None:
    print(f"{'metric':<16} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'change':>8} {'wins':>6} "
          f"{'gain':>5}")
    for name, better in metrics:
        base = [r["base"]["metrics"][name]["value"] for r in results]
        change = [r["change"]["metrics"][name]["value"] for r in results]
        wins, holds = gain_verdict(base, change, better)

        def spread(values):
            q1, median, q3 = quartiles(values)
            if len(values) < 2:
                return median, f"{median:.4g}"
            return median, f"{median:.4g} [{q1:.4g}, {q3:.4g}]"
        base_median, base_text = spread(base)
        change_median, change_text = spread(change)
        delta = (change_median / base_median - 1.0) * 100.0 \
            if base_median else float("nan")
        print(f"{name:<16} {base_text:>30} {change_text:>30} "
              f"{delta:>+7.1f}% {wins:>3}/{len(results)} "
              f"{'yes' if holds else 'no':>5}")


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    sides = {"base": PAIRS_DIR / "base", "change": PAIRS_DIR / "change"}
    shutil.rmtree(PAIRS_DIR, ignore_errors=True)
    try:
        for path in sides.values():
            path.mkdir(parents=True)
        export_base(args.base, sides["base"])
        export_working_tree(sides["change"])
        results, ok = [], True
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            pair = {side: run_side(sides[side], args, seed) for side in order}
            if any(r is None or r["failed"] or not r["correct"]
                   for r in pair.values()):
                ok = False
                continue
            results.append(pair)
            print(f"pair {k + 1} seed {seed} ({order[0]} first): " + ", ".join(
                f"{name} {pair['base']['metrics'][name]['value']:.4g} -> "
                f"{pair['change']['metrics'][name]['value']:.4g}"
                for name, _ in metrics), flush=True)
        if results:
            print(f"\n{args.workload}, base {args.base}, {len(results)} pairs")
            summarize(metrics, results)
        return 0 if ok and results else 1
    finally:
        shutil.rmtree(PAIRS_DIR, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
