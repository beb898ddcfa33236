"""Rendering: the JSON writer against the standard library, number fields,
and the SVG colours of cscS roots."""

import json
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import sasakijoin.cli as cli
from sasakijoin import render, scan
from sasakijoin.render import dump_json, reproduce_document, scan_svg
from sasakijoin.reproduce import run_checks
from support import reference_dump, setup_moat

F = Fraction
GOLDEN = Path(__file__).parent / "golden"

texts = st.text() | st.text(alphabet='"\\/\x00\x01\x1f\x7f\n\té ☃\U0001f600 ab')
huge = st.integers(min_value=-10 ** 400, max_value=10 ** 400)
fractions = st.fractions() | st.builds(F, huge, st.integers(min_value=1, max_value=10 ** 400))
leaves = (fractions | st.none() | st.booleans() | st.integers()
          | st.integers(min_value=-2 ** 300, max_value=2 ** 300) | texts)
trees = st.recursive(
    leaves,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(texts, children, max_size=5)),
    max_leaves=40)


def _deep(depth):
    tree = {"leaf": [-1, "é", None, {}, []]}
    for level in range(depth):
        tree = {f"k{level}": [tree, level, {}]} if level % 2 else [tree, "x"]
    return tree


@given(trees)
@example(_deep(60))
@example({"": [[], {}, ()], "\x00\"\\": {"☃": True, "a": False}})
def test_writer_matches_the_standard_library(doc):
    assert dump_json(doc) == reference_dump(doc)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_writer_rewrites_golden_documents(path):
    text = path.read_text()
    doc = json.loads(text)
    assert dump_json(doc) == reference_dump(doc) == text


def test_writer_matches_on_the_reproduce_document():
    doc = reproduce_document(run_checks())
    assert dump_json(doc) == reference_dump(doc)


@pytest.mark.parametrize("doc", [1.5, Decimal("0.5"), {1, 2}, {"a": [0.0]}, {1: "a"},
                                 {None: 1}, {("a",): 1}, {"a": {2: 3}}])
def test_writer_rejects_what_documents_do_not_hold(doc):
    with pytest.raises(TypeError):
        dump_json(doc)


def _old_number_field(value):
    value = F(value)
    exact = (str(value.numerator) if value.denominator == 1
             else f"{value.numerator}/{value.denominator}")
    return {"exact": exact, "decimal": repr(float(value))}


big = st.integers(min_value=-10 ** 300, max_value=10 ** 300)


@given(st.builds(F, big) | st.builds(F, big, st.integers(min_value=1, max_value=10 ** 300))
       | st.fractions())
@example(F(-1, 10 ** 400))
@example(F(2 ** 1024 - 2 ** 970 - 1))
def test_writer_prints_a_fraction_as_the_old_number_field(value):
    assert dump_json(value) == reference_dump(_old_number_field(value))
    assert dump_json({"v": [value]}) == reference_dump({"v": [_old_number_field(value)]})


def test_writer_past_the_largest_double_reads_inf():
    # 2**1024 - 2**970 lies halfway between the largest double and 2**1024
    # and rounds to even, to infinity; one less rounds to the largest double
    fields = json.loads(dump_json([F(2 ** 1024 - 2 ** 970), F(-(2 ** 1024 - 2 ** 970), 1),
                                   F(10 ** 400, 3)]))
    assert [f["decimal"] for f in fields] == ["inf", "-inf", "inf"]
    assert fields[2]["exact"] == f"{10 ** 400}/3"


def test_writer_builds_no_fraction_for_fraction_leaves(monkeypatch):
    count, new = [0], Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    values = [F(-7, 3), F(5), F(1, 10 ** 400), 12]
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    text = dump_json(values)
    assert count[0] == 0
    assert json.loads(text) == [{"decimal": "-2.3333333333333335", "exact": "-7/3"},
                                {"decimal": "5.0", "exact": "5"},
                                {"decimal": "0.0", "exact": f"1/{10 ** 400}"}, 12]


def _number_field_dicts(doc):
    """The dicts in a document with exactly the keys of a number field."""
    if isinstance(doc, dict):
        found = [doc] if set(doc) == {"decimal", "exact"} else []
        return found + [d for value in doc.values() for d in _number_field_dicts(value)]
    if isinstance(doc, (list, tuple)):
        return [d for value in doc for d in _number_field_dicts(value)]
    return []


@pytest.mark.parametrize("argv", [
    ["profile", "--d", "1", "--a", "-2675/497", "--g2", "2", "--k", "1", "--x", "1/2",
     "--c", "1/8"],
    ["scan", "--d", "2", "--a", "76561/1387", "--g2", "4", "--k", "2", "--x", "9/10",
     "--grid-n", "16"],
    ["csc-roots", "--d", "1", "--a", "419/19", "--g2", "11", "--k", "9", "--x", "9/10",
     "--width", "1/2048"],
    ["twins", "--d", "1", "--a", "19/3", "--g2", "3", "--k", "1", "--x", "1/2", "--c", "1/2"],
    ["toric", "--n", "2", "--lambda", "1", "--l", "1"],
    ["join", "--l1", "2", "--l2", "3", "--order1", "5", "--order2", "7",
     "--dim1", "2", "--dim2", "3"],
], ids=lambda argv: argv[0])
def test_documents_hold_their_rationals_as_fractions(argv, capsys, monkeypatch):
    # the builders hand every rational to the writer, the one place that
    # prints a number field
    docs, write = [], render.dump_json

    def recording(doc):
        docs.append(doc)
        return write(doc)

    monkeypatch.setattr(render, "dump_json", recording)
    assert cli.main(argv) == 0
    (doc,) = docs
    assert dump_json(doc) == reference_dump(doc) == capsys.readouterr().out
    assert _number_field_dicts(doc) == []
    assert '"exact"' in reference_dump(doc)


def test_scan_never_enters_the_indenting_encoder(capsys, monkeypatch):
    entered = []
    original = json.encoder._make_iterencode

    def recording(*args, **kwargs):
        entered.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", recording)
    code = cli.main(["scan", "--d", "1", "--a", "19/3", "--g2", "3", "--k", "1",
                     "--x", "1/2", "--grid-n", "8"])
    assert code == 0 and json.loads(capsys.readouterr().out)["command"] == "scan"
    assert entered == []


def test_svg_colours_follow_the_verdict():
    # the setup of test_scan_surfaces_contested_roots: one root is contested
    report = scan(setup_moat(F(9, 10)), grid_n=8, boundary_width=F(1, 4))
    svg = scan_svg(report)
    marked = re.findall(r'<line [^>]*stroke="(#[0-9a-f]{6})" stroke-width="2"'
                        r'[^>]*/>\n<circle [^>]*fill="(#[0-9a-f]{6})"/>', svg)
    expected = ["#cc8800" if e.contested else "#117733" if e.genuine else "#cc3311"
                for e in report.csc_rays]
    assert marked == [(color, color) for color in expected]
    assert "#cc8800" in expected
    assert re.search(r'fill="#cc8800"/>\n<text [^>]*>contested cscS root</text>', svg)
