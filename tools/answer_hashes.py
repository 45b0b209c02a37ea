"""Fingerprint the search's answers on the bench workloads' requests.

    python3 tools/answer_hashes.py [--seeds 7 11] [--decide 320] [--certify 60] [--plans 448]

Run from the root of a checkout; the library is imported from its src/ and
the requests from bench/workloads.py, which this script only reads.  For
each seed it prints one JSON line: the decide hit count over the first
--decide requests with the first 16 hex digits of a sha256 over every hit
in order, and whether the first --certify certify requests all return [].
A second line gives, per construction, the first 12 hex digits of a sha256
over the plan documents (``cli.dumps_plan``, untampered) of the first
--plans plans requests, each rewritten in one layout (compact, sorted keys)
so that only the documents' contents count.  Two checkouts give the same
answers, hit order included, or the same plans, exactly when their lines
agree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from gcdissect import cli  # noqa: E402


def decide_hash(seed: int, count: int) -> tuple[int, str]:
    """(hits, digest) of the first count decide requests at seed."""
    wl = workloads.make("decide", seed, "")
    digest, hits = hashlib.sha256(), 0
    for i in range(count):
        for hit in wl.execute(wl.request(i)):
            digest.update(f"{i} {hit.tree.key} {hit.witness!r} {hit.root_set.pieces!r}\n".encode())
            hits += 1
    return hits, digest.hexdigest()[:16]


def certify_empty(seed: int, count: int) -> bool:
    """Whether the first count certify requests at seed all return []."""
    wl = workloads.make("certify", seed, "")
    return all(wl.execute(wl.request(i)) == [] for i in range(count))


def plan_hashes(seed: int, count: int) -> dict[str, str]:
    """Digest per construction of the layout-free plan documents of the
    first count plans requests at seed, in request order."""
    digests = defaultdict(hashlib.sha256)
    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.make("plans", seed, workdir)
        for i in range(count):
            req = wl.request(i)
            text = json.dumps(json.loads(cli.dumps_plan(wl.construct(req), req.cls, req.tol)),
                              sort_keys=True)
            digests[req.kind].update(f"{i} {text}\n".encode())
    return {kind: d.hexdigest()[:12] for kind, d in digests.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    parser.add_argument("--decide", type=int, default=320, help="decide requests per seed")
    parser.add_argument("--certify", type=int, default=60, help="certify requests per seed")
    parser.add_argument("--plans", type=int, default=448, help="plans requests per seed")
    args = parser.parse_args()
    for seed in args.seeds:
        hits, digest = decide_hash(seed, args.decide)
        empty = certify_empty(seed, args.certify)
        print(json.dumps({"seed": seed, "decide_hits": hits, "decide_sha256": digest,
                          "certify_empty": empty}))
        print(json.dumps({"seed": seed, "plans_sha256": plan_hashes(seed, args.plans)}))


if __name__ == "__main__":
    main()
