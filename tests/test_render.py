"""Rendering: the JSON writer against the standard library, number fields,
and the SVG colours of cscS roots."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import sasakijoin.cli as cli
from sasakijoin import scan
from sasakijoin.render import dump_json, number_field, reproduce_document, scan_svg
from sasakijoin.reproduce import run_checks
from support import reference_dump, setup_moat

F = Fraction
GOLDEN = Path(__file__).parent / "golden"

texts = st.text() | st.text(alphabet='"\\/\x00\x01\x1f\x7f\n\té ☃\U0001f600 ab')
leaves = (st.none() | st.booleans() | st.integers()
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


@pytest.mark.parametrize("doc", [1.5, F(1, 2), {1, 2}, {"a": [0.0]}, {1: "a"},
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


@given(big | st.builds(F, big, st.integers(min_value=1, max_value=10 ** 300))
       | st.fractions())
@example(F(-1, 10 ** 400))
@example(F(2 ** 1024 - 2 ** 970 - 1))
def test_number_field_matches_the_old_definition(value):
    assert number_field(value) == _old_number_field(value)


def test_number_field_past_the_largest_double_reads_inf():
    # 2**1024 - 2**970 lies halfway between the largest double and 2**1024
    # and rounds to even, to infinity; one less rounds to the largest double
    assert number_field(2 ** 1024 - 2 ** 970)["decimal"] == "inf"
    assert number_field(F(-(2 ** 1024 - 2 ** 970), 1))["decimal"] == "-inf"
    assert number_field(F(10 ** 400, 3)) == {"exact": f"{10 ** 400}/3", "decimal": "inf"}


def test_number_field_of_a_fraction_builds_no_fraction(monkeypatch):
    count, new = [0], Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    values = [F(-7, 3), F(5), F(1, 10 ** 400), 12]
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    fields = [number_field(v) for v in values]
    assert count[0] == 0
    assert [f["exact"] for f in fields] == ["-7/3", "5", f"1/{10 ** 400}", "12"]


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
