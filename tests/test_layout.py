"""Module boundaries: no source module imports another module's private names,
none uses the per-tree reference path, one function decides quotient ties,
one function inverts the glueing rows, a class set holds only its pieces, a
pair reaches the table only through the row pairs, only the search's
skeleton reads token sets and solves goals, a tree node takes one checked
cut, the CLI prints from one place, the verifier stays independent of the
code whose plans it checks, and no module caches an attribute through
functools.cached_property."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gcdissect"


def test_no_private_imports_across_modules():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}:{node.lineno} imports {alias.name} from .{node.module}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not offenders, "\n".join(offenders)


# Test references only: the product answers level by level over distinct sets.
PER_TREE = {"enumerate_trees", "quotient_exponents"}


def test_no_source_module_uses_the_per_tree_path():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in PER_TREE:
                offenders.append(f"{path.name}:{node.lineno} uses {name}")
    assert not offenders, "\n".join(offenders)


def test_only_the_colon_row_decides_quotient_ties():
    # The Q : Q tie is decided in one place, composition._colon_qq: the
    # inverse reads it from the forward piece, the colon cut from the parent.
    # The tie band itself stays in scalars.py: no search mode or membership
    # bound of its own widens float quotients by it.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if path.name == "composition.py" and getattr(top, "name", None) == "_colon_qq":
                continue
            offenders += [
                f"{path.name}:{node.lineno} uses quotients_equal"
                for node in ast.walk(top)
                if (getattr(node, "id", None) or getattr(node, "attr", None)) == "quotients_equal"
            ]
        if path.name != "scalars.py" and "QUOTIENT_TIE_REL" in path.read_text(encoding="utf-8"):
            offenders.append(f"{path.name} names QUOTIENT_TIE_REL")
    assert not offenders, "\n".join(offenders)


def test_one_function_inverts_the_glueing_rows():
    # composition._inverse solves every row from its forward image; no
    # row carries an inverse of its own, as a function or a Row field.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name.endswith("_inverse"):
                if (path.name, node.name) != ("composition.py", "_inverse"):
                    offenders.append(f"{path.name}:{node.lineno} defines {node.name}")
            elif isinstance(node, ast.ClassDef) and node.name == "Row":
                offenders += [
                    f"{path.name}:{field.lineno} Row declares inverse"
                    for field in node.body
                    if isinstance(field, ast.AnnAssign) and field.target.id == "inverse"
                ]
    assert not offenders, "\n".join(offenders)


# Class-to-piece converters, which a set that holds its pieces does not need.
CONVERTERS = {"_pieces_of", "_q_point_holds"}


def test_class_set_holds_only_its_pieces():
    # A ClassSet stores its pieces and reads classes off them as views, so
    # no function turns a set's classes into pieces or tests a class point.
    tree = ast.parse((SRC / "composition.py").read_text(encoding="utf-8"))
    (node,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ClassSet"]
    fields = [f.target.id for f in node.body if isinstance(f, ast.AnnAssign)]
    assert fields == ["pieces"]
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        offenders += [
            f"{path.name}:{n.lineno} defines {n.name}"
            for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(n, ast.FunctionDef) and n.name in CONVERTERS
        ]
    assert not offenders, "\n".join(offenders)


# The piece-by-piece glue-and-test beside compose_sets, and combine's copy of
# the table-key rule beside _row_pairs.
SECOND_GLUE = {"glue_holds", "_lookup"}


def test_pairs_reach_the_table_only_through_the_row_pairs():
    # The search composes each candidate pair once and tests the built set,
    # and combine finds its row through _row_pairs: no module defines or
    # uses a second path from a pair of operands to the table.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(n, "name", None) or getattr(n, "id", None) or getattr(n, "attr", None)
            if name in SECOND_GLUE:
                offenders.append(f"{path.name}:{getattr(n, 'lineno', '?')} defines or uses {name}")
    assert not offenders, "\n".join(offenders)


# Token-set readers: the skeleton plans the set pass from the token sets,
# and solves each level's goal there.
SKELETON_ONLY = {"partner_targets", "may_hold"}


def test_only_the_skeleton_plans_the_search():
    # In treesearch only _skeleton calls partner_targets and may_hold, and no
    # function beside it turns token sets into windows, so the set pass
    # carries out the skeleton's plan without reading token contents or the
    # move layout.
    offenders = []
    for top in ast.parse((SRC / "treesearch.py").read_text(encoding="utf-8")).body:
        for n in ast.walk(top):
            if isinstance(n, ast.FunctionDef) and n.name == "_partner_targets":
                offenders.append(f"treesearch.py:{n.lineno} defines _partner_targets")
            if getattr(top, "name", None) == "_skeleton" or not isinstance(n, ast.Call):
                continue
            name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            if name in SKELETON_ONLY:
                offenders.append(f"treesearch.py:{n.lineno} calls {name}")
    assert not offenders, "\n".join(offenders)


# The class-with-flag wrapper, the second checked single cut, which
# decompose's cut replaces, and the unchecked cut.
TWO_STEP = {"ClassTerm", "realize_cut", "cut_quad"}


def test_one_checked_cut_per_node():
    # decompose cuts with the row it solved, the recipes' filler splits
    # included; no module defines or uses another cut.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(n, "name", None) or getattr(n, "id", None) or getattr(n, "attr", None)
            if name in TWO_STEP:
                offenders.append(f"{path.name}:{getattr(n, 'lineno', '?')} defines or uses {name}")
    assert not offenders, "\n".join(offenders)


def test_cli_prints_from_main_and_the_parser_only():
    # Commands return (exit code, document); main prints it once.
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    offenders = []
    for top in tree.body:
        if (isinstance(top, ast.FunctionDef) and top.name == "main") or (
            isinstance(top, ast.ClassDef) and top.name == "_Parser"
        ):
            continue
        offenders += [
            f"cli.py:{node.lineno} calls _emit"
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_emit"
        ]
    assert not offenders, "\n".join(offenders)


def test_verifier_does_not_use_what_it_checks():
    # The oracle rebuilds each cut's pieces from the cut record itself: it
    # may not reach the glueing table, the search, or the realizer's cuts.
    allowed = {"realizer": {"DissectionPlan"}, "composition": set(), "treesearch": set()}
    offenders = []
    for node in ast.walk(ast.parse((SRC / "verifier.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            offenders += [
                f"line {node.lineno} imports {a.name}"
                for a in node.names
                if a.name.split(".")[0] == "gcdissect"
            ]
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("gcdissect").lstrip(".")
            offenders += [
                f"line {node.lineno} imports {a.name} from {module}"
                for a in node.names
                if a.name not in allowed.get(module, {a.name})
            ]
        elif (getattr(node, "id", None) or getattr(node, "attr", None)) == "cut_quad":
            offenders.append(f"line {node.lineno} uses cut_quad")
    assert not offenders, "\n".join(offenders)


def test_no_source_module_uses_functools_cached_property():
    # On Python 3.11 its first read on each instance takes a lock, a share
    # of the search's time; composition.cached_attribute takes none.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in n.names] if isinstance(n, ast.ImportFrom) else []
            if "cached_property" in (getattr(n, "id", None), getattr(n, "attr", None), *names):
                offenders.append(f"{path.name}:{n.lineno} uses cached_property")
    assert not offenders, "\n".join(offenders)
