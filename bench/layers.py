"""Which library functions the traced run wraps, and the per-layer metrics.

Layers are the modules of ``gcdissect``: treesearch, composition,
affine_types, realizer, verifier and cli.  ``scalars`` calls are too fine to
wrap and ``families`` only generates decide inputs, so neither has metrics.

Each metric is a per-request mean over the traced requests of a run, except
the ratios, which divide two run totals.  The end-to-end numbers each should
move, and on which workload (latencies are the run report's lines):

treesearch.*                  throughput_rps and latency_p50_s on certify and
                              decide
treesearch.enumerate_s        setup_s and peak_rss_mb on certify
composition.*                 throughput_rps and latency_p50_s on certify,
                              then decide; no change predicted on plans
affine_types.flip_calls       decide and certify
affine_types.classify_*       latency_p50_s on plans
realizer.*, cli.*             latency_p50_s on plans
verifier.*                    latency_p90_s and throughput_rps on plans; no
                              change predicted on the search workloads
verifier.rejections           the failed count on plans

treesearch.hit_share, treesearch.distinct_root_sets (at the searched level:
n=5 on decide, n=6 on certify) and verifier.bbox_overlap_ratio describe the
workload: they are what a value-level search and a bounding-box sweep would
exploit.  composition.row_yield is distinct pieces out per piece pair; a
mirror trapezoid row yields two pieces, so it can exceed 1.
"""

from __future__ import annotations

from tracer import COUNT, HOT, ITER, SPAN

SEARCH = "treesearch.search_self_affine"
ENUMERATE = "treesearch.enumerate_trees"
COMPOSE = "composition.compose_sets"
MEMBER = "composition.member"
FLIP = "affine_types.flip"
CLASSIFY = "affine_types.classify_quadrangle"
CONSTRUCT = (
    "realizer.dissect_odd",
    "realizer.dissect_trapezoid_selfaffine",
    "realizer.dissect_por5",
    "realizer.dissect_even_general",
    "realizer.dissect_trapezoid",
)
REALIZE = "realizer.realize_tree"
DUMPS = "cli.dumps_plan"
LOADS = "cli.loads_plan"
MAIN = "cli.main"
VERIFY = "verifier.verify_plan"
CLIP = "verifier.convex_intersection_area"

TARGETS = (
    (SEARCH, SPAN),
    (ENUMERATE, ITER),
    (COMPOSE, HOT),
    (MEMBER, HOT),
    (FLIP, COUNT),
    (CLASSIFY, HOT),
    *((name, SPAN) for name in CONSTRUCT),
    (REALIZE, SPAN),
    (DUMPS, SPAN),
    (LOADS, SPAN),
    (MAIN, SPAN),
    (VERIFY, SPAN),
    (CLIP, HOT),
)
KEEP = (SEARCH, MEMBER, COMPOSE, CLIP, DUMPS, VERIFY, *CONSTRUCT)

# name -> (unit, better); order is the report order.
METRICS = {
    "treesearch.search_self_s": ("s/req", "lower"),
    "treesearch.enumerate_s": ("s/req", "lower"),
    "treesearch.trees_visited": ("count/req", "lower"),
    "treesearch.hits": ("count/req", "higher"),
    "treesearch.hit_share": ("ratio", "higher"),
    "treesearch.distinct_root_sets": ("count/req", "lower"),
    "composition.compose_calls": ("count/req", "lower"),
    "composition.compose_s": ("s/req", "lower"),
    "composition.distinct_results": ("count/req", "lower"),
    "composition.useful_ratio": ("ratio", "higher"),
    "composition.piece_pairs": ("count/req", "lower"),
    "composition.pieces_out": ("count/req", "lower"),
    "composition.row_yield": ("ratio", "higher"),
    "composition.member_calls": ("count/req", "lower"),
    "composition.member_s": ("s/req", "lower"),
    "affine_types.flip_calls": ("count/req", "lower"),
    "affine_types.classify_calls": ("count/req", "lower"),
    "affine_types.classify_s": ("s/req", "lower"),
    "realizer.construct_s": ("s/req", "lower"),
    "realizer.tiles_out": ("count/req", "higher"),
    "cli.dumps_s": ("s/req", "lower"),
    "cli.loads_s": ("s/req", "lower"),
    "cli.main_self_s": ("s/req", "lower"),
    "cli.plan_bytes": ("bytes/req", "lower"),
    "verifier.verify_self_s": ("s/req", "lower"),
    "verifier.pair_tests": ("count/req", "lower"),
    "verifier.clip_s": ("s/req", "lower"),
    "verifier.bbox_overlap_ratio": ("ratio", "higher"),
    "verifier.rejections": ("count/req", "higher"),
    "trace_overhead": ("ratio", "lower"),
}

# Run totals behind the ratios: metric -> (numerator, denominator).
RATIOS = {
    "treesearch.hit_share": ("_searches_with_hits", "_searches"),
    "composition.useful_ratio": ("composition.distinct_results", "composition.compose_calls"),
    "composition.row_yield": ("composition.pieces_out", "composition.piece_pairs"),
    "verifier.bbox_overlap_ratio": ("_bbox_overlaps", "verifier.pair_tests"),
}


def _pieces(s) -> int:
    return (
        len(s.q_points) + len(s.t_points) + len(s.t_intervals) + len(s.q_curves) + s.has_p
    )


def _bbox(pts):
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return min(xs), max(xs), min(ys), max(ys)


def _boxes_overlap(p, q) -> bool:
    """Bounding boxes share positive area; touching boxes do not count,
    since tiles that only touch cannot overlap in positive area."""
    px0, px1, py0, py1 = _bbox(p)
    qx0, qx1, qy0, qy1 = _bbox(q)
    return px0 < qx1 and qx0 < px1 and py0 < qy1 and qy0 < py1


def request_counts(totals: dict, kept: dict) -> dict:
    """Per-layer numbers of one traced request (untimed post-processing)."""

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def busy(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    searches = kept[SEARCH][1]
    # search_self_affine passes each tree's non-empty root set to member
    # (once per target tried); trees with an empty root never reach it.
    member_args, _, member_parents = kept[MEMBER]
    roots = {id(a[0]): a[0] for a, parent in zip(member_args, member_parents) if parent == SEARCH}
    distinct_roots = len(set(roots.values())) + (calls(ENUMERATE) > len(roots))
    compose_args, compose_results, _ = kept[COMPOSE]
    plans = [plan for name in CONSTRUCT for plan in kept[name][1]]
    return {
        "treesearch.search_self_s": own(SEARCH),
        "treesearch.enumerate_s": busy(ENUMERATE),
        "treesearch.trees_visited": calls(ENUMERATE),
        "treesearch.hits": sum(len(hits) for hits in searches),
        "_searches": len(searches),
        "_searches_with_hits": sum(1 for hits in searches if hits),
        "treesearch.distinct_root_sets": distinct_roots,
        "composition.compose_calls": calls(COMPOSE),
        "composition.compose_s": busy(COMPOSE),
        "composition.distinct_results": len(set(compose_results)),
        "composition.piece_pairs": sum(_pieces(a[0]) * _pieces(a[2]) for a in compose_args),
        "composition.pieces_out": sum(_pieces(result) for result in compose_results),
        "composition.member_calls": calls(MEMBER),
        "composition.member_s": busy(MEMBER),
        "affine_types.flip_calls": calls(FLIP),
        "affine_types.classify_calls": calls(CLASSIFY),
        "affine_types.classify_s": busy(CLASSIFY),
        "realizer.construct_s": sum(busy(name) for name in CONSTRUCT),
        "realizer.tiles_out": sum(len(plan.tiles) for plan in plans),
        "cli.dumps_s": busy(DUMPS),
        "cli.loads_s": busy(LOADS),
        "cli.main_self_s": own(MAIN),
        "cli.plan_bytes": sum(len(text) for text in kept[DUMPS][1]),
        "verifier.verify_self_s": own(VERIFY),
        "verifier.pair_tests": calls(CLIP),
        "verifier.clip_s": busy(CLIP),
        "_bbox_overlaps": sum(1 for a in kept[CLIP][0] if _boxes_overlap(a[0], a[1])),
        "verifier.rejections": sum(1 for report in kept[VERIFY][1] if not report.ok),
    }


def run_metrics(per_request: list[dict], traced_s: float, untraced_s: float) -> dict:
    """Per-request means and total ratios over a traced run."""
    n = len(per_request)
    sums: dict[str, float] = {}
    for counts in per_request:
        for key, value in counts.items():
            sums[key] = sums.get(key, 0) + value
    out = {}
    for name in METRICS:
        if name == "trace_overhead":
            out[name] = traced_s / untraced_s - 1
        elif name in RATIOS:
            num, den = RATIOS[name]
            out[name] = sums[num] / sums[den] if sums[den] else 0.0
        else:
            out[name] = sums[name] / n
    return out
