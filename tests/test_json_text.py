"""The JSON writer against stdlib `json.dumps(..., indent=2)` as an oracle.

Every `--json` output goes through `monoid._json_text`; the stdlib encoder
appears only here, as the independent reference the bytes must match.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puiseux import EXAMPLE_IDS, Evaluator, FgMonoid, InputError, LengthSet, render, run_paper_example
from puiseux.monoid import _json_text


def oracle(tree) -> str:
    return json.dumps(tree, indent=2)


def query(text: str):
    (_, value), = Evaluator().run_text(text)
    return value


# quotes, backslashes, control characters and non-ASCII text, plus any other character
_STRINGS = st.text(st.sampled_from(['a', 'Z', '"', '\\', '/', '\n', '\t', '\x00', '\x1f', '\x7f',
                                    '·', '²', 'é', ' ', '\U0001d11e']) | st.characters())
_SCALARS = st.none() | st.booleans() | st.integers() | _STRINGS
_TREES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_STRINGS, inner, max_size=4)),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_trees_match_json_dumps(tree):
    assert _json_text(tree) == oracle(tree)
    if isinstance(tree, dict):
        assert render(tree, json_mode=True) == oracle(tree)
        assert render(tree) == oracle(tree)  # props in text mode


_GENERATORS = st.lists(st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6)
                       .filter(lambda q: q > 0), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(_GENERATORS, st.lists(st.integers(0, 4), min_size=4, max_size=4))
def test_factorization_sets_match_json_dumps(gens, mults):
    m = FgMonoid(gens)
    target = sum((g * k for g, k in zip(m.generators, mults)), Fraction(0))
    zs = m.factorizations(target, 10**6)
    assert render(zs, json_mode=True) == oracle(zs.to_json())
    # written at a nested level, as a value inside a dict
    assert _json_text({"factorizations": zs}) == oracle({"factorizations": zs.to_json()})


@pytest.mark.parametrize("text, pinned", [
    ("Z(family(sqden), 9/8)", '"items": []'),
    ("Z(pm(2,3), 0)", '"parts": []'),
    ("L(family(sqden), 9/8)", '"lengths": []'),
    ("Zl(pm(2,3), 6, 4)", '"items": []'),
])
def test_empty_results(text, pinned):
    value = query(text)
    got = render(value, json_mode=True)
    assert got == oracle(value.to_json())
    assert pinned in got


@pytest.mark.parametrize("text", [
    "props(pm(6, 9, 20))", "props(family(grams, K=3))", "props(family(sqden))",
    "props(family(interval1))", "L(pm(2,3), 12)", "Z(pm(1/2, 3/4, 5), 11/2)",
])
def test_query_results(text):
    value = query(text)
    tree = value if isinstance(value, dict) else value.to_json()
    assert render(value, json_mode=True) == oracle(tree)


def test_atoms_bool_and_fraction():
    assert render(query("atoms(pm(3/2, 5, 7/3))"), json_mode=True) == oracle({"atoms": ["3/2", "7/3", "5"]})
    assert render(query("member(pm(2,3), 1)"), json_mode=True) == oracle(False)
    assert render(query("mcd(pm(2,3), 6, 9)"), json_mode=True) == oracle("6")


def test_empty_length_set():
    empty = LengthSet(Fraction(1, 2), ())
    assert render(empty, json_mode=True) == '{\n  "target": "1/2",\n  "lengths": []\n}'


@pytest.mark.parametrize("example", EXAMPLE_IDS)
def test_paper_reports_match_json_dumps(example):
    report = run_paper_example(example)
    assert report.render_json() == oracle(report.to_json())


@pytest.mark.parametrize("value", [
    1.5,
    {"x": 0.5},
    [float("nan")],
    {1, 2},
    {"x": {3}},
    Fraction(1, 2),
    {"x": Fraction(1, 2)},
    {1: "one"},
    {"x": {(1, 2): True}},
    b"bytes",
    object(),
], ids=["float", "float-in-dict", "nan-in-list", "set", "set-in-dict", "fraction",
        "fraction-in-dict", "int-key", "tuple-key", "bytes", "object"])
def test_refused_values_raise_input_error(value):
    with pytest.raises(InputError):
        _json_text(value)
    if not isinstance(value, Fraction):  # a Fraction result renders as its string
        with pytest.raises(InputError):
            render(value, json_mode=True)
    if isinstance(value, dict):
        with pytest.raises(InputError):
            render(value)
