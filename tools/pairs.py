"""Run alternating parent/change pairs of one bench workload and summarize them.

    python3 tools/pairs.py --parent DIR --change DIR --workload decide --seed 7 --pairs 10 [--seconds S]

DIR is the root of a checkout.  Each pair runs ``bench/run.py --trace 0``
once in each checkout, one after the other; the side that goes first
alternates from pair to pair, so a drift in the host's speed falls on both
sides alike.  --seconds defaults to ``run_seconds`` in BENCHMARK.json.

It prints one line per pair, then per end-to-end metric of BENCHMARK.json
each side's median and quartiles and the number of pairs in which the
change did better (by that metric's ``better``), and each side's failed and
attempted request counts.  It exits 1 when any run reports
``"correct": false``.  It only runs the bench; it changes nothing in it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one bench run in checkout, as JSON."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of xs."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[str]:
    """Report lines for (parent, change) run results, metric by metric."""
    lines = []
    for name, direction in better.items():
        values = [[run["metrics"][name]["value"] for run in side] for side in zip(*pairs)]
        wins = sum(c < p if direction == "lower" else c > p for p, c in zip(*values))
        (p1, pm, p3), (c1, cm, c3) = map(quartiles, values)
        lines.append(
            f"{name}: parent {pm:.6g} [{p1:.6g}, {p3:.6g}], change {cm:.6g} [{c1:.6g}, {c3:.6g}]; "
            f"change better in {wins} of {len(pairs)} ({direction} is better); "
            f"median change {cm - pm:+.6g}, parent IQR {p3 - p1:.6g}"
        )
    for label, side in zip(("parent", "change"), zip(*pairs)):
        failed = sum(run["failed"] for run in side)
        attempted = sum(run["attempted"] for run in side)
        lines.append(f"{label}: {failed} of {attempted} requests failed")
    return lines


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    pairs = []
    for i in range(args.pairs):
        sides = {"parent": args.parent, "change": args.change}
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: run_bench(sides[side], args.workload, args.seed, args.seconds)
                for side in order}
        pairs.append((runs["parent"], runs["change"]))
        print(f"pair {i + 1} ({order[0]} first): " + ", ".join(
            f"{name} {runs['parent']['metrics'][name]['value']:.6g} -> "
            f"{runs['change']['metrics'][name]['value']:.6g}" for name in better), flush=True)
    for line in summarize(pairs, better):
        print(line)
    return 0 if all(run["correct"] for pair in pairs for run in pair) else 1


if __name__ == "__main__":
    sys.exit(main())
