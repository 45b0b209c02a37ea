"""Tests for plan serialization, SVG output, and the command line."""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gcdissect import (
    GenericQuad,
    Parallelogram,
    PlanFormatError,
    Trapezoid,
    dissect_even_general,
    dissect_odd,
    dissect_trapezoid_selfaffine,
)
from gcdissect.cli import (
    MAX_TILES,
    _parse_class,
    _parse_points,
    class_from_doc,
    class_to_doc,
    dumps_plan,
    loads_plan,
    main,
    plan_from_doc,
    render_svg,
    tree_from_doc,
    tree_to_doc,
)

Q_GENERIC = GenericQuad(F(1, 5), F(1, 2))


def _roundtrip(plan, cls, tol=0.0):
    text = dumps_plan(plan, cls, tol)
    loaded, loaded_cls, loaded_tol = loads_plan(text)
    assert dumps_plan(loaded, loaded_cls, loaded_tol) == text
    return loaded, loaded_cls, loaded_tol


# -------------------------------------------------------------- documents


def test_roundtrip_fan():
    plan = dissect_trapezoid_selfaffine(Trapezoid(F(1, 3)), 3)
    loaded, cls, tol = _roundtrip(plan, Trapezoid(F(1, 3)))
    assert cls == Trapezoid(F(1, 3))
    assert tol == 0.0
    assert loaded.root.points == plan.root.points
    assert [t.points for t in loaded.tiles] == [t.points for t in plan.tiles]
    assert loaded.pinned == plan.pinned
    assert loaded.gc


def test_roundtrip_odd():
    plan = dissect_odd(Q_GENERIC, 5)
    loaded, cls, _ = _roundtrip(plan, Q_GENERIC)
    assert cls == Q_GENERIC
    assert loaded.cuts == plan.cuts
    assert loaded.tree.key == plan.tree.key


def test_roundtrip_even_general():
    plan = dissect_even_general(Q_GENERIC, 6)
    loaded, _, tol = _roundtrip(plan, Q_GENERIC, tol=1e-9)
    assert tol == 1e-9
    assert not loaded.gc
    assert loaded.tree == plan.tree
    assert loaded.pinned == plan.pinned


def test_class_doc_rational():
    doc = class_to_doc(Q_GENERIC)
    assert doc == {"kind": "Q", "alpha": "1/5", "beta": "1/2"}
    assert class_from_doc(doc) == Q_GENERIC
    assert class_from_doc(class_to_doc(Parallelogram())) == Parallelogram()


def test_class_doc_float_carries_tol():
    cls = GenericQuad(0.5, 0.8284271247461903)
    doc = class_to_doc(cls)
    assert doc["tol"] == 1e-9
    back = class_from_doc(doc)
    assert back.alpha == 0.5 and back.beta == 0.8284271247461903


def test_tree_doc_roundtrip():
    plan = dissect_odd(Q_GENERIC, 7)
    doc = tree_to_doc(plan.tree)
    assert tree_from_doc(doc).key == plan.tree.key
    assert tree_from_doc({"leaf": True}).key == "L"


def test_plan_doc_rejects_garbage():
    with pytest.raises(PlanFormatError):
        loads_plan("not json at all {")
    with pytest.raises(PlanFormatError):
        loads_plan("{}")
    with pytest.raises(PlanFormatError):
        loads_plan(json.dumps({"version": 99}))
    good = json.loads(dumps_plan(dissect_odd(Q_GENERIC, 5), Q_GENERIC))
    nan = {"dec": "nan"}
    tile0 = dict(good["tiles"][0], points=[[nan, "0/1"]] + good["tiles"][0]["points"][1:])
    cut0 = good["cuts"][0]
    for changes in (
        {"tree": {"op": "dot"}},
        {"tree": {"construction": "even_general", "params": {"nu": "1/0"}}},
        {"root": [["1/0", "0/1"]] + good["root"][1:]},
        {"root": [[nan, "0/1"]] + good["root"][1:]},
        {"tiles": [tile0] + good["tiles"][1:]},
        {"pinned": ["1/0"]},
        {"pinned": 5},
        {"cuts": None},
        {"cuts": [dict(cut0, start_side=5, end_side=3)]},
        {"cuts": [dict(cut0, start_side=-1, end_side=1)]},
        {"cuts": [dict(cut0, start_side=float("inf"))]},
        {"tol": "nan"},
    ):
        with pytest.raises(PlanFormatError):
            plan_from_doc(dict(good, **changes))


# -------------------------------------------------------- argument parsing


def test_parse_class_forms():
    assert _parse_class("Q:1/5,1/2") == Q_GENERIC
    assert _parse_class("T:3/7") == Trapezoid(F(3, 7))
    assert _parse_class("P") == Parallelogram()
    assert _parse_class("Q:0.25,0.625") == GenericQuad(0.25, 0.625)


@pytest.mark.parametrize("bad", ["Q:1/2", "T:", "R:1/2", "Q:1/2,1/3", "T:2"])
def test_parse_class_rejects(bad):
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_class(bad)


def test_parse_points():
    pts = _parse_points("0,0;1,0;1,1;0,1")
    assert pts == ((0, 0), (1, 0), (1, 1), (0, 1))
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_points("0,0;1,0;1,1")
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_points("0,0;1,0;1,1;x,y")


# --------------------------------------------------------------- commands


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_cli_classify(capsys):
    code, doc = _run(capsys, "classify", "--points", "0,0;1,0;1,1;0,1")
    assert code == 0
    assert doc["class"] == {"kind": "P"}


def test_cli_flip(capsys):
    code, doc = _run(capsys, "flip", "--class", "Q:1/5,1/2")
    assert code == 0
    assert doc["class"] == {"kind": "Q", "alpha": "1/4", "beta": "5/8"}
    code, doc = _run(capsys, "flip", "--class", "T:1/2")
    assert code == 1
    assert "error" in doc


def test_cli_compose(capsys):
    code, doc = _run(
        capsys, "compose", "--left", "Q:1/5,1/2", "--right", "Q:1/4,5/8",
        "--op", "dot",
    )
    assert code == 0
    assert {"kind": "Q", "alpha": "1/20", "beta": "5/16"} in doc["q_points"]
    assert not doc["has_p"] and not doc["t_intervals"]


def test_cli_search(capsys):
    code, doc = _run(capsys, "search", "--class", "T:1/2", "--n", "2")
    assert code == 0
    assert doc and all("tree" in h and "witness" in h for h in doc)


def test_cli_parity(capsys):
    code, doc = _run(capsys, "parity", "--n", "3")
    assert code == 0
    assert doc["exponents"] == sorted(doc["exponents"])
    assert all(e % 2 == 1 for e in doc["exponents"])


def test_cli_family(capsys):
    code, doc = _run(capsys, "family", "--id", "II", "--alpha", "1/2")
    assert code == 0
    assert abs(float(doc["beta"]["dec"]) - 0.8284271247461903) < 1e-12


def test_cli_dissect_verify_render(capsys, tmp_path):
    plan_path = tmp_path / "plan.json"
    svg_path = tmp_path / "plan.svg"
    code, _ = _run(
        capsys, "dissect", "--class", "T:1/2", "--n", "4", "--out", str(plan_path)
    )
    assert code == 0
    code, doc = _run(capsys, "verify", "--plan", str(plan_path))
    assert code == 0
    assert doc["ok"]
    code, doc = _run(capsys, "render", "--plan", str(plan_path), "--svg", str(svg_path))
    assert code == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and svg.count("<polygon") == 5


def test_cli_dissect_writes_stdout(capsys):
    code = main(["dissect", "--class", "Q:1/5,1/2", "--n", "5"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert len(doc["tiles"]) == 5


def test_cli_dissect_kite_five(capsys):
    code, doc = _run(capsys, "dissect", "--class", "Q:1/2,2/3", "--n", "5")
    assert code == 1
    assert "kite" in doc["error"]


def test_cli_dissect_refusals(capsys):
    code, doc = _run(capsys, "dissect", "--class", "Q:1/5,1/2", "--n", "4")
    assert code == 1 and "error" in doc
    code, doc = _run(capsys, "dissect", "--class", "T:1/2", "--n", "1")
    assert code == 1 and "error" in doc


def test_cli_selfaffine_even(capsys, tmp_path):
    plan_path = tmp_path / "even.json"
    code, _ = _run(
        capsys, "selfaffine", "--class", "Q:1/5,1/2", "--n", "6",
        "--out", str(plan_path),
    )
    assert code == 0
    assert json.loads(plan_path.read_text())["tol"] == 1e-9
    # the declared tolerance makes verification pass; forcing zero breaks it
    code, doc = _run(capsys, "verify", "--plan", str(plan_path))
    assert code == 0 and doc["ok"]
    code, doc = _run(capsys, "verify", "--plan", str(plan_path), "--tol", "0")
    assert code == 1 and not doc["ok"]


def test_cli_selfaffine_refuses_odd_beyond_five(capsys):
    code, doc = _run(capsys, "selfaffine", "--class", "Q:1/5,1/2", "--n", "7")
    assert code == 1
    assert "dissect" in doc["error"]


def test_cli_verify_missing_file(capsys):
    code, doc = _run(capsys, "verify", "--plan", "/nonexistent/plan.json")
    assert code == 2
    assert "error" in doc


def test_cli_verify_corrupt_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    code, doc = _run(capsys, "verify", "--plan", str(bad))
    assert code == 2
    assert "error" in doc


def test_cli_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["search", "--help"], ["verify", "-h"]])
def test_cli_help_is_json(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["help"]
    assert doc["help"].startswith(f"usage: gcdissect {argv[0] if len(argv) > 1 else ''}")


def test_cli_bad_numbers_exit_2_with_json(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--points", "0,0;1,0;1,nan;0,1"])
    assert exc.value.code == 2
    assert "error" in json.loads(capsys.readouterr().out)
    doc = json.loads(dumps_plan(dissect_odd(Q_GENERIC, 5), Q_GENERIC))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(doc, pinned=["1/0"])))
    code, out = _run(capsys, "verify", "--plan", str(bad))
    assert code == 2 and "error" in out
    good = tmp_path / "good.json"
    good.write_text(dumps_plan(dissect_odd(Q_GENERIC, 5), Q_GENERIC))
    for tol in ("nan", "inf", "-1"):
        for argv in (
            ["classify", "--points", "0,0;1,0;1,1;0,1"],
            ["search", "--class", "Q:0.5,0.8284271247461903", "--n", "3"],
            ["dissect", "--class", "Q:1/5,1/2", "--n", "5"],
            ["verify", "--plan", str(good)],
        ):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--tol", tol])
            assert exc.value.code == 2
            assert "error" in json.loads(capsys.readouterr().out)


def test_cli_refuses_tile_counts_above_the_limit(capsys):
    for cls, n in (("Q:1/5,1/2", 1001), ("T:1/2", 1200)):
        code, doc = _run(capsys, "dissect", "--class", cls, "--n", str(n))
        assert code == 1 and "MAX_TILES" in doc["error"]
    code, doc = _run(capsys, "selfaffine", "--class", "T:1/2", "--n", str(MAX_TILES + 1))
    assert code == 1 and "MAX_TILES" in doc["error"]
    # the deepest plan allowed still round-trips
    assert main(["dissect", "--class", "T:1/2", "--n", str(MAX_TILES)]) == 0
    text = capsys.readouterr().out
    assert len(loads_plan(text)[0].tiles) == MAX_TILES


def test_cli_cap_refusal_for_huge_leaf_counts(capsys):
    for argv in (("search", "--class", "P", "--n", "2000"), ("parity", "--n", "2000")):
        code, doc = _run(capsys, *argv)
        assert code == 1
        assert "a search over 2000-leaf trees exceeds the cap" in doc["error"]


def test_cli_verify_deep_documents_exit_2(capsys, tmp_path):
    doc = json.loads(dumps_plan(dissect_odd(Q_GENERIC, 5), Q_GENERIC))
    tree = '{"op": "dot", "left": ' * 3000 + '{"leaf": true}' + ', "right": {"leaf": true}}' * 3000
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(dict(doc, tree="TREE")).replace('"TREE"', tree))
    brackets = tmp_path / "brackets.json"
    brackets.write_text("[" * 100_000)
    for path in (deep, brackets):
        code, out = _run(capsys, "verify", "--plan", str(path))
        assert code == 2 and "error" in out


def test_svg_deterministic():
    plan = dissect_odd(Q_GENERIC, 5)
    text = dumps_plan(plan, Q_GENERIC)
    loaded, _, _ = loads_plan(text)
    assert render_svg(plan) == render_svg(loaded)


# ------------------------------------------------------------ fuzzing


def _exit_code(argv):
    """Run the CLI as its console script would (a usage error is SystemExit)
    and check that it printed JSON."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    json.loads(out.getvalue())
    return code


FUZZ_PLANS = tuple(
    json.loads(dumps_plan(plan, cls, tol))
    for plan, cls, tol in (
        (dissect_odd(Q_GENERIC, 5), Q_GENERIC, 0.0),
        (dissect_trapezoid_selfaffine(Trapezoid(F(1, 3)), 3), Trapezoid(F(1, 3)), 0.0),
        (dissect_even_general(Q_GENERIC, 6), Q_GENERIC, 1e-9),
    )
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["1/0", "1/2", "-7/3", "0.5", {"dec": "nan"}, {"dec": "1e400"}]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def plan_documents(draw):
    """A valid plan with a few values replaced or removed, or any JSON value."""
    if draw(st.integers(0, 4)) == 0:
        return draw(json_values)
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_PLANS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_values)
    return doc


@settings(max_examples=40, deadline=None)
@given(plan_documents(), st.sampled_from([[], ["--tol", "0"], ["--tol", "1e-9"]]))
def test_fuzz_verify_documents(tmp_path_factory, doc, tol):
    path = tmp_path_factory.mktemp("fuzz") / "plan.json"
    path.write_text(json.dumps(doc))
    assert _exit_code(["verify", "--plan", str(path), *tol]) in (0, 1, 2)


FUZZ_TOKENS = {
    "classify": (
        "--points", "--tol", "0,0;1,0;1,1;0,1", "0,0;2,0;1,1;0,1", "0,0;1,1;1,0;0,1",
        "0,0;1,0;2,0;0,1", "0,0;1,0;1,1", "0,0;1,0;1,x;0,1", "1e308,0;0,0;0,1;1,1",
    ),
    "search": ("--class", "--n", "--tol"),
    "dissect": ("--class", "--n", "--tol"),
}
FUZZ_VALUES = (
    "Q:1/5,1/2", "Q:1/2,2/3", "Q:0.5,0.8284271247461903", "Q:1,2", "Q:1/2", "T:1/3",
    "T:2", "P", "X", "", "-1", "0", "1", "2", "3", "4", "5", "9", "2000", "1e-9",
    "nan", "inf", "abc", "--", "-h", "--help",
)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fuzz_cli_argv(data):
    command = data.draw(st.sampled_from(sorted(FUZZ_TOKENS)))
    tokens = st.sampled_from(FUZZ_TOKENS[command] + FUZZ_VALUES)
    argv = [command, *data.draw(st.lists(tokens, max_size=6))]
    assert _exit_code(argv) in (0, 1, 2)
