"""Smoke test of the benchmark itself.

    python3 bench/smoke.py            (or: python3 -m pytest bench/smoke.py)

Runs every workload briefly, traced and untraced, from the checkout root, and
checks that each metric named in BENCHMARK.json is printed with its unit and
that the output checks pass.  Also checks that plans reports the same
attempted and failed counts on two seeds, that the tracer refuses a missing
name and that the benchmark fails without the library's sources.  Takes about
a minute and a half.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@functools.lru_cache(maxsize=None)
def _result(workload: str, trace: int, seed: int = 1) -> dict:
    proc = _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace))
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_workload_prints_its_metrics():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            result = _result(workload, trace)
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] is True, (workload, trace)
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_plans_failures_repeat():
    # The known verifier defects fail a fixed share of plans requests, so
    # its runs are a fixed number of requests: the counts must not move.
    counts = {(r["attempted"], r["failed"]) for r in (_result("plans", 0, seed) for seed in (1, 2))}
    assert len(counts) == 1, counts


def test_tracer_refuses_missing_name():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import HOT, Tracer, TraceError

    Tracer("gcdissect", [("composition.compose_sets", HOT)])
    for missing in ("composition.no_such_function", "no_such_module.compose_sets"):
        try:
            Tracer("gcdissect", [(missing, HOT)])
        except TraceError:
            continue
        raise AssertionError(f"the missing traced name {missing} was accepted")


def test_fails_without_sources():
    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", "decide", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_tracer_refuses_missing_name, test_fails_without_sources,
                 test_every_workload_prints_its_metrics, test_plans_failures_repeat):
        test()
        print(f"ok {test.__name__}")
