"""gcdissect benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload decide|certify|plans --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its src/.
One process, one thread, one client in a closed loop: the next request
starts when the previous one returns.  Inputs come from the seed alone (see
workloads.py).  Each output is checked between requests, outside the timed
interval.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: setup_s (median
over SETUP_PROBES fresh processes of import plus the first, cold request),
throughput_rps (requests per second of request time) and peak_rss_mb.  It
also prints report lines that are not JSON metrics: latency_p50_s,
latency_p90_s where a run holds at least P90_MIN_REQUESTS requests (so not on
certify, at about 3 s a request), and error_rate, which is 0 on the search
workloads.  The median latency of a run jumps with the host's speed (the
mean, hence throughput, moves smoothly), so it is printed but not gated.
--trace 1 runs every request twice, untraced and traced in alternating
order, and prints the per-layer metrics of layers.py plus trace_overhead;
spans go to .bench_run/.

decide and certify measure for --seconds.  plans fails a fixed share of its
requests (the known verifier defects), so a run of --seconds would fail a
number of them that moves with the host's speed; its runs are instead whole
tamper cycles, PLANS_RPS requests per second asked for (per pass in a traced
run), which take about --seconds on a 2-vCPU VM.  Its attempted and failed
counts then repeat exactly from run to run.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  failed counts requests that raised or failed their
check; correct is false when any of them is not a known verifier defect
(workloads.KNOWN_DEFECTS).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cold
import layers
from tracer import Tracer

HERE = Path(__file__).resolve().parent
# Fresh-process set-up samples per run, the run's own process included.
SETUP_PROBES = {"decide": 9, "certify": 2, "plans": 9}
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MiB",
}
P90_MIN_REQUESTS = 100
# Nominal plans request rate; the seed code makes about 11.4 a second.
PLANS_RPS = 11
# A fixed-count run stops here even if unfinished, to exit in 180 s.
HARD_STOP_S = 150


def setup_probe(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold.py"), "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if not doc["ok"]:
        raise RuntimeError(f"cold {workload} request 0 failed its check")
    return doc["setup_s"]


class Tally:
    """Attempted requests and their verdicts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.unexpected = 0

    def add(self, wl, req, outcome) -> None:
        self.attempted += 1
        if isinstance(outcome, Exception):
            self.failures.append(f"request {req.index} ({req.kind}) raised {outcome!r}")
            self.unexpected += 1
            return
        verdict = wl.check(req, outcome)
        if verdict.ok:
            return
        self.failures.append(f"request {req.index} ({req.kind}): {verdict.note}")
        self.unexpected += not verdict.known_defect


def timed(wl, req):
    start = time.perf_counter()
    try:
        outcome = wl.execute(req)
    except Exception as exc:  # a failing request is counted, not fatal
        outcome = exc
    return time.perf_counter() - start, outcome


def request_budget(wl, seconds: float, passes: int) -> int | None:
    """Requests a run makes after request 0, or None for a run of `seconds`."""
    if wl.cycle is None:
        return None
    cycles = max(1, round(seconds * PLANS_RPS / passes / wl.cycle))
    return cycles * wl.cycle


def running(start: float, seconds: float, index: int, budget: int | None) -> bool:
    elapsed = time.perf_counter() - start
    if budget is None:
        return elapsed < seconds
    return index <= budget and elapsed < HARD_STOP_S


def measure(seconds: float, wl, tally: Tally, budget: int | None):
    """(JSON metrics, report-only lines, requests measured) of a plain run."""
    latencies = []
    index = 1
    start = time.perf_counter()
    while running(start, seconds, index, budget):
        req = wl.request(index)
        took, outcome = timed(wl, req)
        latencies.append(took)
        # Checked at once and dropped, so that outputs do not pile up in
        # peak_rss_mb; the check is outside the request's timed interval.
        tally.add(wl, req, outcome)
        index += 1
    metrics = {
        "throughput_rps": len(latencies) / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {"latency_p50_s": statistics.median(latencies)}
    if len(latencies) >= P90_MIN_REQUESTS:
        report["latency_p90_s"] = statistics.quantiles(latencies, n=10)[8]
    return metrics, report, len(latencies)


def measure_traced(workload: str, seed: int, seconds: float, wl, tally: Tally,
                   budget: int | None):
    """(JSON metrics, report-only lines, requests measured) of a traced run."""
    tracer = Tracer("gcdissect", layers.TARGETS, keep=layers.KEEP)
    per_request = []
    spent = {True: 0.0, False: 0.0}
    index = 1
    start = time.perf_counter()
    while running(start, seconds, index, budget):
        req = wl.request(index)
        for traced in ((True, False) if index % 2 else (False, True)):
            if traced:
                tracer.begin(index)
                try:
                    took, outcome = timed(wl, req)
                finally:
                    counts = layers.request_counts(*tracer.end())
                per_request.append(counts)
            else:
                took, outcome = timed(wl, req)
            spent[traced] += took
            tally.add(wl, req, outcome)
        index += 1
    cold.WORKDIR.mkdir(exist_ok=True)
    tracer.dump(str(cold.WORKDIR / f"trace-{workload}-{seed}.json"), workload=workload, seed=seed)
    return layers.run_metrics(per_request, spent[True], spent[False]), {}, len(per_request)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gcdissect benchmark")
    parser.add_argument("--workload", required=True, choices=("decide", "certify", "plans"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_s, wl, req0, out0 = cold.cold_start(args.workload, args.seed)
    tally = Tally()
    try:
        tally.add(wl, req0, out0)
        if args.trace:
            metrics, report, requests = measure_traced(
                args.workload, args.seed, args.seconds, wl, tally,
                request_budget(wl, args.seconds, passes=2),
            )
            units = {name: unit for name, (unit, _) in layers.METRICS.items()}
        else:
            samples = [setup_s] + [
                setup_probe(args.workload, args.seed)
                for _ in range(SETUP_PROBES[args.workload] - 1)
            ]
            metrics, report, requests = measure(
                args.seconds, wl, tally, request_budget(wl, args.seconds, passes=1)
            )
            metrics["setup_s"] = statistics.median(samples)
            units = END_TO_END
    finally:
        wl.close()

    print(f"# workload {args.workload}, seed {args.seed}, {requests} requests measured, "
          f"trace {args.trace}")
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:14.6g} {unit}")
    for name, value in report.items():
        print(f"{name:34s} {value:14.6g} s")
    print(f"{'error_rate':34s} {len(tally.failures) / tally.attempted:14.6g} ratio "
          f"({len(tally.failures)} of {tally.attempted} requests)")
    for line in tally.failures:
        print(f"# failed: {line}")
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
