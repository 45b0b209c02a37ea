"""tools/deep_search.py at n = 5, against the search run in this process."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from gcdissect import GenericQuad, search_self_affine
from gcdissect.treesearch import CAP_ENV_VAR

TOOL = Path(__file__).resolve().parent.parent / "tools" / "deep_search.py"


def _run(*args: str) -> subprocess.CompletedProcess:
    # A cap below n in the caller's environment: the tool raises it for itself.
    return subprocess.run(
        [sys.executable, str(TOOL), *args], env={**os.environ, CAP_ENV_VAR: "4"},
        capture_output=True, text=True, timeout=120,
    )


def test_deep_search_prints_the_count_and_digest_of_the_ordered_hits():
    proc = _run("--class", "Q:1/5,1/2", "--n", "5")
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    doc = json.loads(line)
    hits = search_self_affine(GenericQuad(Fraction(1, 5), Fraction(1, 2)), 5)
    keys = "".join(f"{h.tree.key}\n" for h in hits)
    assert sorted(doc) == ["cpu_s", "hits", "peak_rss_mb", "sha256"]
    assert doc["hits"] == len(hits) > 0
    assert doc["sha256"] == hashlib.sha256(keys.encode()).hexdigest()
    assert doc["cpu_s"] >= 0 and doc["peak_rss_mb"] > 0


def test_deep_search_refuses_a_class_that_is_not_generic():
    proc = _run("--class", "T:1/2", "--n", "5")
    assert proc.returncode == 2 and proc.stdout == ""
