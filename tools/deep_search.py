"""Time one deep self-affinity search and fingerprint its hits.

    python3 tools/deep_search.py --class Q:1/5,1/2 --n 9

Run from anywhere; the library is imported from this checkout's src/.  The
search runs in this process, which is fresh when the script is run as a
command, and the search cap (GCDISSECT_SEARCH_CAP) is raised to --n in this
process's own environment only.  It prints one JSON line: the hit count,
the sha256 of the hits' tree keys in order, one per line, the CPU seconds of
the search (user plus system, import excluded) and the peak RSS of the
process in MiB when the search returns, before the keys are built.  Two
checkouts find the same hits in the same order exactly when their counts
and digests agree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gcdissect import GenericQuad, treesearch  # noqa: E402
from gcdissect.scalars import parse_scalar  # noqa: E402


def parse_class(text: str) -> GenericQuad:
    """Q:alpha,beta, as the gcdissect command line writes a generic class."""
    kind, _, params = text.partition(":")
    try:
        values = [parse_scalar(v) for v in params.split(",")]
        if kind == "Q" and len(values) == 2:
            return GenericQuad(*values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad class {text!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(f"bad class {text!r}: expected Q:alpha,beta")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--class", dest="cls", required=True, type=parse_class)
    parser.add_argument("--n", type=int, required=True)
    args = parser.parse_args(argv)
    os.environ[treesearch.CAP_ENV_VAR] = str(args.n)
    start = time.process_time()
    hits = treesearch.search_self_affine(args.cls, args.n)
    cpu_s = time.process_time() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    digest = hashlib.sha256("".join(f"{h.tree.key}\n" for h in hits).encode())
    print(json.dumps({"hits": len(hits), "sha256": digest.hexdigest(),
                      "cpu_s": round(cpu_s, 3), "peak_rss_mb": round(peak_kib / 1024, 2)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
