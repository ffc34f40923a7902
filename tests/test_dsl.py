import ast
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import line_col, oracle_atoms
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
    assert stmts[0] == Let("S", Sum((FgLiteral((F(2), F(3))), Cyclic(F(3, 4)))))
    assert stmts[1] == Query("atoms", Ident("S"))

    (stmt,) = parse("Zl(family(exAexB, window=10), 2, 2)")
    assert stmt == Query("Zl", Family("exAexB", (("window", 10),)), (F(2), 2))


def test_sum_holds_its_terms_in_order():
    (stmt,) = parse("atoms(pm(2) + pm(3) + pm(5))")
    assert stmt.expr == Sum((FgLiteral((F(2),)), FgLiteral((F(3),)), FgLiteral((F(5),))))
    # a lone term is no sum
    assert parse("atoms(pm(2))") == [Query("atoms", FgLiteral((F(2),)))]


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
    kinds, texts = tokenize(text)
    offsets, at = [], 0
    for token in texts[:-1]:   # no token text occurs in a blank or comment before it
        at = text.index(token, at)
        offsets.append(at)
        at += len(token)
    rows = [(kind, token, *line_col(text, offset))
            for kind, token, offset in zip(kinds, texts, offsets + [len(text)])]
    assert rows == [
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


# a string literal as `!r` writes it: the token a message quotes
_QUOTED = re.compile(r"'(?:[^'\\]|\\.)*'" r'|"(?:[^"\\]|\\.)*"')


@given(text=_spliced_programs())
@example(text="let M = pm(2)\r\nZ(M,\r\n  )")
@example(text="atoms(pm(2) # no close")
@settings(max_examples=1000, deadline=None)
def test_parse_errors_point_at_the_token_they_quote(text):
    try:
        parse(text)
    except ParseError as err:
        quoted = _QUOTED.search(str(err))
        if quoted is None:   # the messages that name no token
            return
        token = ast.literal_eval(quoted[0])
        offset = [line_col(text, o) for o in range(len(text) + 1)].index((err.line, err.col))
        if token == "end of input":
            assert offset == len(text)
        else:
            assert text.startswith(token, offset)


_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                  reason="no int-string digit limit")


@pytest.mark.parametrize("text, message", [
    ("let let = pm(2)", "line 1, col 5: 'let' is a keyword"),
    ("let Z = pm(2)", "line 1, col 5: 'Z' is a keyword"),
    pytest.param(f"member(pm(2, 3), {_LONG})",
                 "line 1, col 18: integer literal of 5000 digits is too long", marks=_DIGIT_LIMIT),
    pytest.param(f"let M = pm(2)\nZ(M, 1/{_LONG})",
                 "line 2, col 8: integer literal of 5000 digits is too long", marks=_DIGIT_LIMIT),
    ("Z(pm(2), 1/0)", "line 1, col 12: zero denominator in rational literal"),
    ("Z(pm(2), 3/\n  00)", "line 2, col 3: zero denominator in rational literal"),
    ("pm(2, 3)", "line 1, col 1: a monoid expression is not a statement;"
                 " bind it with let or wrap it in a query"),
    ("let M = pm(2); cyclic(1/2) + M", "line 1, col 16: a monoid expression is not a statement;"
                                       " bind it with let or wrap it in a query"),
    ("member(pm(2, 3), ²)", "line 1, col 18: unexpected character '²'"),
    ("atoms(pm(٣))", "line 1, col 10: unexpected character '٣'"),
    ("atoms(M\x0c)", "line 1, col 8: unexpected character '\\x0c'"),
    ("atoms(')", "line 1, col 7: unexpected character \"'\""),
    ("let M = pm(2)\r\nZ(M,\r\n  )", "line 3, col 3: expected a rational at ')' (expected rational)"),
    ("let M = pm(2)\r\nlet é = M", "line 2, col 5: unexpected character 'é'"),
    ("atoms(pm(2) # no close", "line 1, col 23: unexpected token at 'end of input' (expected ))"),
    ("atoms(pm(2)) # done\nZ(", "line 2, col 3: expected a monoid expression at 'end of input'"
                                " (expected pm, cyclic, family, IDENT)"),
    ("atoms(pm(2) +)", "line 1, col 14: expected a monoid expression at ')'"
                       " (expected pm, cyclic, family, IDENT)"),
    ("atoms(family(grams, 3))", "line 1, col 21: unexpected token at '3' (expected IDENT)"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, bare", [
    ("atoms(pm(1)) # x 1", "atoms(pm(1))"),
    ("Z(pm(2), 4)\n# let M = pm(1)", "Z(pm(2), 4)"),
    ("atoms(pm(1))   ", "atoms(pm(1))"),
])
def test_scan_skips_comments_and_blanks_whole(text, bare):
    assert parse(text) == parse(bare)


def test_scan_never_reads_tokens_inside_a_comment():
    with pytest.raises(ParseError) as err:
        parse("1 # c")
    assert str(err.value) == "line 1, col 1: expected a statement at '1' (expected let, a query)"


def test_long_sum_prints_in_canonical_form():
    (stmt,) = parse("atoms(" + "+".join(["pm(1)"] * 5000) + ")")
    assert print_program([stmt]) == "atoms(" + " + ".join(["pm(1)"] * 5000) + ")"


def test_long_sum_compares_hashes_and_prints():
    # a sum holds its terms in one flat tuple, so the generated __eq__,
    # __hash__ and __repr__ do not recurse once per term
    text = "atoms(" + "+".join(["pm(1)"] * 5000) + ")"
    (a,), (b,) = parse(text), parse(text)
    assert a == b and hash(a) == hash(b) and len({a.expr, b.expr}) == 1
    assert a.expr != parse(text.replace("pm(1))", "pm(2))"))[0].expr
    assert a.expr != parse("atoms(" + "+".join(["pm(1)"] * 4999) + ")")[0].expr
    one = "FgLiteral(gens=(Fraction(1, 1),))"
    assert repr(a.expr) == "Sum(terms=(" + ", ".join([one] * 5000) + "))"


def test_short_sum_repr_is_the_dataclass_repr():
    (stmt,) = parse("atoms(pm(2) + pm(3) + cyclic(5))")
    assert repr(stmt.expr) == ("Sum(terms=(FgLiteral(gens=(Fraction(2, 1),)), "
                               "FgLiteral(gens=(Fraction(3, 1),)), Cyclic(r=Fraction(5, 1))))")
    # the same terms in another order make a different sum
    two, three, five = FgLiteral((F(2),)), FgLiteral((F(3),)), Cyclic(F(5))
    assert stmt.expr == Sum((two, three, five)) and stmt.expr != Sum((three, two, five))


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
