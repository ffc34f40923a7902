import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import oracle_atoms
from puiseux import (
    FactorizationSet,
    FgMonoid,
    InputError,
    LengthSet,
    NeedsBoundError,
    ParseError,
    parse,
    print_program,
    render,
)
from puiseux.dsl import Cyclic, Evaluator, Family, FgLiteral, Ident, Let, Query, Sum, tokenize
from puiseux.families import FamilyMonoid

F = Fraction


def test_parse_basic_program():
    stmts = parse("let M = pm(1/2, 3/4); Z(M, 3/2)")
    assert stmts == [
        Let("M", FgLiteral((F(1, 2), F(3, 4)))),
        Query("Z", Ident("M"), (F(3, 2),)),
    ]


def test_parse_sum_and_family():
    stmts = parse("let S = pm(2,3) + cyclic(3/4); atoms(S)")
    assert stmts[0] == Let("S", Sum(FgLiteral((F(2),)) if False else FgLiteral((F(2), F(3))), Cyclic(F(3, 4))))
    assert stmts[1] == Query("atoms", Ident("S"))

    (stmt,) = parse("Zl(family(exAexB, window=10), 2, 2)")
    assert stmt == Query("Zl", Family("exAexB", (("window", 10),)), (F(2), 2))


def test_sum_is_left_associated():
    (stmt,) = parse("atoms(pm(2) + pm(3) + pm(5))")
    expr = stmt.expr
    assert isinstance(expr, Sum) and isinstance(expr.left, Sum)
    assert expr.right == FgLiteral((F(5),))


def test_comments_and_whitespace():
    stmts = parse(
        """
        # define the double/triple monoid
        let M = pm(2, 3)   # inline comment
        ; member(M, 7)
        """
    )
    assert len(stmts) == 2


@pytest.mark.parametrize(
    "bad",
    [
        "pm()",                     # missing rational
        "let = pm(2)",              # missing name
        "let Z = pm(2)",            # keyword as name
        "let M pm(2)",              # missing '='
        "cyclic()",                 # missing argument
        "family()",                 # missing name
        "family(grams, 3)",         # parameter without key
        "Z(pm(2))",                 # missing query argument
        "Zl(pm(2), 4)",             # missing length
        "mcd(pm(2), 4)",            # missing second rational
        "atoms(pm(2)",              # unbalanced paren
        "Z(pm(2), 1/0)",            # zero denominator
        "atoms(pm(2) +)",           # dangling sum
        "Z(M, 3) extra",            # trailing garbage
        "pm(2,3)",                  # bare monoid expression
        "@",                        # unknown character
    ],
)
def test_parse_rejections(bad):
    with pytest.raises(ParseError):
        parse(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("let M =\n  pm(2,,3)")
    assert err.value.line == 2
    assert err.value.col == 8


_LONG = "7" * 5000   # past CPython's default int-string digit limit of 4300


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-string digit limit")
@pytest.mark.parametrize("text, col", [
    (f"member(pm(2,3), {_LONG})", 17),
    (f"member(pm(2,3), 1/{_LONG})", 19),
    (f"Zl(pm(2,3), 6, {_LONG})", 16),
    (f"atoms(family(grams, K={_LONG}))", 23),
], ids=["target", "denominator", "length", "parameter"])
def test_integer_literal_past_the_digit_limit_is_a_parse_error(text, col):
    with pytest.raises(ParseError, match="5000 digits is too long") as err:
        parse(text)
    assert (err.value.line, err.value.col) == (1, col)


def test_tokens_carry_line_and_column():
    text = "let M\t= pm(2, 3/4)  # gens\r\n\tZ(M, 6);\r\n# whole line\nmember(M,\t7) # end"
    assert [tuple(t) for t in tokenize(text)] == [
        ("IDENT", "let", 1, 1), ("IDENT", "M", 1, 5), ("=", "=", 1, 7),
        ("IDENT", "pm", 1, 9), ("(", "(", 1, 11), ("INT", "2", 1, 12), (",", ",", 1, 13),
        ("INT", "3", 1, 15), ("/", "/", 1, 16), ("INT", "4", 1, 17), (")", ")", 1, 18),
        ("IDENT", "Z", 2, 2), ("(", "(", 2, 3), ("IDENT", "M", 2, 4), (",", ",", 2, 5),
        ("INT", "6", 2, 7), (")", ")", 2, 8), (";", ";", 2, 9),
        ("IDENT", "member", 4, 1), ("(", "(", 4, 7), ("IDENT", "M", 4, 8), (",", ",", 4, 9),
        ("INT", "7", 4, 11), (")", ")", 4, 12),
        ("EOF", "", 4, 19),  # after the trailing comment
    ]


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("member(pm(2,3), ²)", 1, 17),   # a digit, but not an ASCII one
        ("atoms(pm(٣))", 1, 10),
        ("let M = pm(2)\nlet é = M", 2, 5),
        ("atoms(M\x0c)", 1, 8),
    ],
)
def test_characters_outside_the_alphabet_are_rejected_where_they_stand(text, line, col):
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse(text)
    assert (err.value.line, err.value.col) == (line, col)


ROUND_TRIP_CORPUS = [
    "let M = pm(2, 3)",
    "let M = pm(2, 3); Z(M, 6)",
    "let M = pm(1/2, 3/4); Z(M, 3/2)",
    "let M = pm(2, 3); let S = M + cyclic(3/4); atoms(S)",
    "atoms(pm(2, 3))",
    "props(pm(2, 3))",
    "L(pm(2, 3), 12)",
    "member(pm(2, 3), 7)",
    "Zl(pm(2, 3), 12, 5)",
    "mcd(pm(2, 3), 4, 6)",
    "divides(pm(2, 3), 2, 6)",
    "Z(family(sqden), 9/8)",
    "Zl(family(exAexB, window=10), 2, 2)",
    "Z(family(interval1) + family(sqden), 9/8)",
    "member(family(interval1), 7/2)",
    "props(family(grams, K=4))",
    "atoms(family(grams, K=3))",
    "let A = family(exA); let B = family(exB); Zl(A + B, 2, 2)",
    "Zl(family(interval1, den_bound=12), 3, 2)",
    "let M = pm(5)",
    "let M = pm(2); let N = pm(3); atoms(M + N)",
    "Z(pm(4, 6, 9), 12)",
    "L(pm(1/2), 3)",
    "member(pm(2, 3), 0)",
    "divides(family(sqden), 3/4, 3/2)",
    "props(family(interval1))",
    "props(family(exAexB, window=5))",
    "Z(cyclic(3/4), 3)",
    "mcd(pm(2, 3) + cyclic(3/4), 2, 4)",
    "member(family(sqden), 3/2)",
    "let M = pm(29/336, 25/168); atoms(M)",
    "Zl(pm(2, 3), 12, 7)",
]


@pytest.mark.parametrize("program", ROUND_TRIP_CORPUS)
def test_print_parse_round_trip(program):
    stmts = parse(program)
    assert parse(print_program(stmts)) == stmts


_FRAGMENTS = st.sampled_from([
    "let ", "M", " = ", "pm(", "family(", "K=", "Zl(", "1/2", "3", "0", "/", ",", ")", "+", ";",
    "#", " ", "\t", "\r", "\n", "_x1",
])
_ODD = st.sampled_from(["²", "٣", "é", "\t", "\r", "\n", "#"])
_PIECES = _FRAGMENTS | _ODD | st.characters()


@st.composite
def _spliced_programs(draw):
    """A corpus program with one slice replaced by a few fragments or characters."""
    base = draw(st.sampled_from(ROUND_TRIP_CORPUS))
    i = draw(st.integers(0, len(base)))
    j = draw(st.integers(i, min(i + 3, len(base))))
    return base[:i] + "".join(draw(st.lists(_PIECES, max_size=4))) + base[j:]


@given(text=_spliced_programs() | st.lists(_PIECES, max_size=30).map("".join))
@example(text="member(pm(2, 3), ²)")
@settings(max_examples=1000, deadline=None)
def test_parse_returns_statements_or_raises_parse_error(text):
    try:
        stmts = parse(text)
    except ParseError:
        return
    assert all(isinstance(s, (Let, Query)) for s in stmts)
    assert parse(print_program(stmts)) == stmts


def test_eval_fg_queries():
    ev = Evaluator()
    results = ev.run_text("let M = pm(1/2, 3/4); Z(M, 3/2)")
    assert len(results) == 1
    zs = results[0][1]
    assert isinstance(zs, FactorizationSet)
    assert len(zs) == 2

    (_, atoms), = ev.run_text("atoms(M)")
    assert atoms == (F(1, 2), F(3, 4))

    (_, mcd), = ev.run_text("mcd(pm(2,3), 4, 6)")
    assert mcd == 4

    (_, ok), = ev.run_text("divides(pm(2,3), 2, 6)")
    assert ok is True

    (_, lengths), = ev.run_text("L(pm(2,3), 12)")
    assert isinstance(lengths, LengthSet) and lengths.lengths == (4, 5, 6)

    (_, atoms), = ev.run_text("atoms(pm(2,3) + cyclic(3/4))")
    # scaled by 4 the generators are 8, 12, 3, and 12 = 4·3
    assert atoms == tuple(F(a, 4) for a in oracle_atoms([3, 8, 12])) == (F(3, 4), F(2))


def test_eval_family_queries():
    ev = Evaluator()
    (_, zs), = ev.run_text("Zl(family(exAexB, window=10), 2, 2)")
    assert len(zs) == 10

    (_, zs), = ev.run_text("Z(family(sqden), 9/8)")
    assert len(zs) == 0

    (_, zs), = ev.run_text("Z(family(interval1) + family(sqden), 9/8)")
    assert len(zs) == 0

    (_, ok), = ev.run_text("member(family(interval1) + family(sqden), 9/8)")
    assert ok is True

    (_, zs), = ev.run_text("Zl(family(interval1, den_bound=4), 3, 2)")
    assert len(zs) == 3

    (_, lengths), = ev.run_text("L(family(interval1), 7/2)")
    # ell parts from [1, 2) sum to q exactly when ell <= q < 2 ell
    q = F(7, 2)
    assert lengths.lengths == tuple(ell for ell in range(1, 8) if ell <= q < 2 * ell) == (2, 3)


def test_eval_family_truncation_yields_fg():
    ev = Evaluator()
    ev.run_text("let G = family(grams, K=3)")
    assert isinstance(ev.env["G"], FgMonoid)
    (_, atoms), = ev.run_text("atoms(G)")
    assert atoms == (F(1, 56), F(1, 20), F(1, 6))

    ev.run_text("let A = family(exA)")
    assert isinstance(ev.env["A"], FamilyMonoid)


def test_eval_loud_failures():
    ev = Evaluator()
    with pytest.raises(NeedsBoundError):
        ev.run_text("Z(family(grams), 1/6)")
    with pytest.raises(NeedsBoundError):
        ev.run_text("Zl(family(exAexB), 2, 2)")
    with pytest.raises(NeedsBoundError):
        ev.run_text("atoms(family(exA))")
    with pytest.raises(NeedsBoundError):
        ev.run_text("Zl(family(interval1), 3, 2)")
    with pytest.raises(NeedsBoundError):
        ev.run_text("atoms(family(grams) + pm(2))")
    with pytest.raises(NeedsBoundError):
        ev.run_text("atoms(family(grams) + family(sqden))")
    with pytest.raises(InputError):
        ev.run_text("Z(M_undefined, 2)")


@pytest.mark.parametrize("program", [
    "Zl(family(sqden), 0, 0)",
    "Zl(family(sqden), 9/8, 0)",
    "Zl(family(interval1_sqden), 0, 0)",
    "Zl(family(exAexB, window=3), 0, 0)",
    "Zl(family(exAexB, window=3), 2, 0)",
])
def test_family_zl_refuses_length_zero_as_fg_does(program):
    with pytest.raises(InputError, match="length must be a positive integer"):
        Evaluator().run_text(program)


def test_unknown_family_parameters_fail_loudly():
    ev = Evaluator()
    (_, atoms), = ev.run_text("atoms(family(companion, K=2))")
    assert atoms
    for program in ("atoms(family(companion, depth=3, K=2))", "atoms(family(grams, size=3))"):
        with pytest.raises(InputError, match="unknown family parameter"):
            ev.run_text(program)


def test_bound_defaults_come_from_explicit_flags_only():
    loud = Evaluator()
    with pytest.raises(NeedsBoundError):
        loud.run_text("Zl(family(exAexB), 2, 2)")
    flagged = Evaluator(bound_defaults={"window": 4})
    (_, zs), = flagged.run_text("Zl(family(exAexB), 2, 2)")
    assert len(zs) == 4
    # a summand's own window still beats the flag once the sum merges them
    (_, zs), = flagged.run_text("Zl(family(exA, window=3) + family(exB), 2, 2)")
    assert len(zs) == 3


def test_render_text():
    ev = Evaluator()
    (_, zs), = ev.run_text("Z(pm(2,3), 6)")
    assert render(zs) == "6 = 3·2 [len 3]\n6 = 2·3 [len 2]"

    (_, empty), = ev.run_text("Z(family(sqden), 9/8)")
    assert render(empty) == "(no factorizations)"

    (_, atoms), = ev.run_text("atoms(pm(2,3))")
    assert render(atoms) == "atoms: 2, 3"
    assert render(atoms, json_mode=True) == '{\n  "atoms": [\n    "2",\n    "3"\n  ]\n}'

    (_, ok), = ev.run_text("member(pm(2,3), 7)")
    assert render(ok) == "true"

    (_, lengths), = ev.run_text("L(pm(2,3), 6)")
    assert render(lengths) == "L(6) = {2, 3}"


def test_render_json_schema():
    ev = Evaluator()
    (_, zs), = ev.run_text("Z(pm(2,3), 6)")
    import json

    data = json.loads(render(zs, json_mode=True))
    assert data == {
        "target": "6",
        "items": [
            {"parts": [["2", 3]], "length": 3},
            {"parts": [["3", 2]], "length": 2},
        ],
    }
