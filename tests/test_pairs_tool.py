"""The summary of tools/pairs.py on fixed run results."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def _run(throughput, setup, failed=0, attempted=100):
    return {
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {"throughput_rps": {"value": throughput, "unit": "1/s"},
                    "setup_s": {"value": setup, "unit": "s"}},
    }


def test_quartiles():
    assert pairs.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_summary_counts_wins_by_each_metrics_direction():
    # throughput: higher is better, the change wins pairs 1, 2 and 4;
    # setup: lower is better, the change wins pairs 1 and 3.
    runs = [
        (_run(100, 0.5), _run(120, 0.4)),
        (_run(110, 0.5), _run(115, 0.6, failed=2)),
        (_run(105, 0.5), _run(100, 0.3)),
        (_run(90, 0.5), _run(130, 0.5)),
    ]
    lines = pairs.summarize(runs, {"throughput_rps": "higher", "setup_s": "lower"})
    assert lines == [
        "throughput_rps: parent 102.5 [97.5, 106.25], change 117.5 [111.25, 122.5]; "
        "change better in 3 of 4 (higher is better); median change +15, parent IQR 8.75; "
        "per-pair ratio change/parent 1.12273 [1.02219, 1.26111]",
        "setup_s: parent 0.5 [0.5, 0.5], change 0.45 [0.375, 0.525]; "
        "change better in 2 of 4 (lower is better); median change -0.05, parent IQR 0; "
        "per-pair ratio change/parent 0.9 [0.75, 1.05]",
        "parent: 0 of 400 requests failed",
        "change: 2 of 400 requests failed",
    ]


def test_per_pair_ratios_cancel_a_drift_between_pairs():
    # The host slows from pair to pair: the sides' quartiles overlap and the
    # change's median lies inside the parent's IQR, but the change is 10%
    # ahead within every pair, which the per-pair ratio shows.
    runs = [(_run(t, 0.5), _run(1.1 * t, 0.5)) for t in (500, 400, 300, 200, 100)]
    (line, *_) = pairs.summarize(runs, {"throughput_rps": "higher"})
    assert line == (
        "throughput_rps: parent 300 [200, 400], change 330 [220, 440]; "
        "change better in 5 of 5 (higher is better); median change +30, parent IQR 200; "
        "per-pair ratio change/parent 1.1 [1.1, 1.1]"
    )
