"""Set-up time: ``import gcdissect`` plus the first, cold request.

``python3 bench/cold.py --workload NAME --seed N`` measures it in a fresh
process and prints ``{"setup_s": ...}``; ``run.py`` also calls
``cold_start`` in its own process before it imports anything from the
library.  Interpreter start-up is not counted.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_run"


def import_library():
    """Import gcdissect from this checkout's src/, never from elsewhere."""
    if not (SRC / "gcdissect" / "__init__.py").is_file():
        raise SystemExit(f"bench: no gcdissect sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    package = importlib.import_module("gcdissect")
    elapsed = time.perf_counter() - start
    if Path(package.__file__).resolve().parent != SRC / "gcdissect":
        raise SystemExit(f"bench: imported gcdissect from {package.__file__}, not {SRC}")
    return elapsed


def cold_start(workload: str, seed: int):
    """(set-up seconds, workload, request 0, its output) in this process."""
    import_s = import_library()
    import workloads

    wl = workloads.make(workload, seed, str(WORKDIR))
    req = wl.request(0)
    start = time.perf_counter()
    out = wl.execute(req)
    first_s = time.perf_counter() - start
    return import_s + first_s, wl, req, out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    setup_s, wl, req, out = cold_start(args.workload, args.seed)
    verdict = wl.check(req, out)
    wl.close()
    print(json.dumps({"setup_s": setup_s, "ok": verdict.ok or verdict.known_defect}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
