"""Surface language for monoid definitions and queries.

Grammar (whitespace insignificant, "#" starts a comment to end of line):

    program := stmt (";" stmt)*
    stmt    := "let" IDENT "=" mexpr  |  query
    mexpr   := "pm" "(" rat {"," rat} ")"
             | "cyclic" "(" rat ")"
             | "family" "(" NAME {"," IDENT "=" INT} ")"
             | mexpr "+" mexpr
             | IDENT
    query   := ("atoms" | "props") "(" mexpr ")"
             | ("Z" | "L" | "member") "(" mexpr "," rat ")"
             | "Zl" "(" mexpr "," rat "," INT ")"
             | ("mcd" | "divides") "(" mexpr "," rat "," rat ")"
    rat     := INT ["/" INT]

INT is ASCII digits and IDENT (NAME too) an ASCII identifier; any character
outside the grammar's alphabet is a ParseError at its line and column.

"+" between monoid expressions is the internal sum (and only that: there is
no element-level arithmetic in the language).  Literals are rationals; the
language has no decimals.  Family queries that would need a truncation fail
loudly rather than defaulting to one.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction

from . import families
from .errors import InputError, PuiseuxError
from .monoid import FactorizationSet, FgMonoid, LengthSet, _json_text

# each query head: the literals that follow its monoid expression, and the
# call that answers it on a monoid value, FgMonoid and FamilyMonoid alike
_QUERY_FORMS = {
    "atoms": ((), lambda m, budget: m.atoms),
    "props": ((), lambda m, budget: m.classify(budget=budget)),
    "Z": (("rat",), lambda m, q, budget: m.factorizations(q, budget)),
    "L": (("rat",), lambda m, q, budget: m.lengths(q, budget)),
    "member": (("rat",), lambda m, q, budget: m.contains(q, budget)),
    "Zl": (("rat", "INT"), lambda m, q, ell, budget: m.factorizations_of_length(q, ell, budget)),
    "mcd": (("rat", "rat"), lambda m, x, y, budget: m.mcd_set(x, y, budget)[-1]),
    "divides": (("rat", "rat"), lambda m, c, b, budget: m.divides(c, b, budget)),
}
QUERY_HEADS = tuple(_QUERY_FORMS)
KEYWORDS = ("let", "pm", "cyclic", "family") + QUERY_HEADS


class ParseError(PuiseuxError):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        suffix = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"line {line}, col {col}: {message}{suffix}")


# one anchored scan: a token (INT, IDENT, punctuation, or a character outside
# the alphabet, which is an error) and the blanks and comments after it.  The
# first match is always the empty \A one, with the blanks before the first
# token.  After the greedy skip the next character always starts a token, so
# findall never resumes past a failed match, and so never skips a character.
_TOKEN = re.compile(r"(?:\A|([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([()=,+/;])|(.))(?:[ \t\r\n]+|#[^\n]*)*")


def tokenize(text: str) -> tuple[list[str], list[str]]:
    """Token kinds (IDENT, INT, one of "()=,+/;", then EOF) and texts, as two
    parallel lists from one scan.  No token records its position: `_position`
    computes one only for an error."""
    toks = _TOKEN.findall(text)[1:]
    kinds = [p or ("INT" if i else "IDENT" if n else "bad") for i, n, p, _ in toks]
    if "bad" in kinds:
        at = kinds.index("bad")
        raise ParseError(f"unexpected character {toks[at][3]!r}", *_position(text, at))
    return kinds + ["EOF"], [i or n or p for i, n, p, _ in toks] + [""]


def _position(text: str, index: int) -> tuple[int, int]:
    """Line and column of token `index` (EOF: one past the end), from a second
    scan up to it."""
    m = next(itertools.islice(_TOKEN.finditer(text), index + 1, None), None)
    offset = m.start(m.lastindex) if m else len(text)
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


# -- abstract syntax -----------------------------------------------------------


@dataclass(frozen=True)
class FgLiteral:
    gens: tuple[Fraction, ...]


@dataclass(frozen=True)
class Cyclic:
    r: Fraction


@dataclass(frozen=True)
class Family:
    name: str
    params: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class Sum:
    """left + right.  Equality, hash and repr walk the left spine in a loop
    (_summands), as the evaluator does: the generated ones recurse down it."""

    left: "MonoidExpr"
    right: "MonoidExpr"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sum):
            return NotImplemented
        return _summands(self) == _summands(other)

    def __hash__(self) -> int:
        return hash(tuple(_summands(self)))

    def __repr__(self) -> str:
        first, *rest = _summands(self)
        return "Sum(left=" * len(rest) + repr(first) + "".join(f", right={t!r})" for t in rest)


@dataclass(frozen=True)
class Ident:
    name: str


MonoidExpr = FgLiteral | Cyclic | Family | Sum | Ident


def _summands(expr: Sum) -> list[MonoidExpr]:
    """The terms of a left-nested sum, left to right, walked in a loop: a long
    "+" chain would overflow the interpreter's stack in a recursion."""
    terms = []
    while isinstance(expr, Sum):
        terms.append(expr.right)
        expr = expr.left
    terms.append(expr)
    return terms[::-1]


@dataclass(frozen=True)
class Query:
    head: str
    expr: MonoidExpr
    args: tuple = ()


@dataclass(frozen=True)
class Let:
    name: str
    expr: MonoidExpr


Stmt = Let | Query


class _Parser:
    """Recursive descent over `tokenize`'s kinds and texts, read at `pos`
    directly; a ParseError alone computes the position of its token."""

    def __init__(self, text: str):
        self.text = text
        self.kinds, self.texts = tokenize(text)
        self.pos = 0

    def error(self, message: str, index: int, expected: tuple[str, ...] = ()) -> "ParseError":
        return ParseError(message, *_position(self.text, index), expected)

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> "ParseError":
        shown = self.texts[self.pos] or "end of input"
        return self.error(f"{message} at {shown!r}", self.pos, expected)

    def expect(self, kind: str) -> str:
        pos = self.pos
        if self.kinds[pos] != kind:
            raise self.fail("unexpected token", (kind,))
        self.pos = pos + 1
        return self.texts[pos]

    def program(self) -> list[Stmt]:
        kinds, stmts = self.kinds, []
        while True:
            while kinds[self.pos] == ";":
                self.pos += 1
            if kinds[self.pos] == "EOF":
                return stmts
            stmts.append(self.stmt())

    def stmt(self) -> Stmt:
        # only an IDENT's text can be a word, so the texts alone tell the forms apart
        pos = self.pos
        text = self.texts[pos]
        if text == "let":
            self.pos += 1
            name = self.expect("IDENT")
            if name in KEYWORDS:
                raise self.error(f"{name!r} is a keyword", pos + 1)
            self.expect("=")
            return Let(name, self.mexpr())
        if text in QUERY_HEADS:
            return self.query()
        if text in ("pm", "cyclic", "family"):
            # parse it anyway so inner syntax errors surface with positions,
            # then reject the well-formed bare expression
            self.mexpr()
            raise self.error("a monoid expression is not a statement; bind it with"
                             " let or wrap it in a query", pos)
        raise self.fail("expected a statement", ("let", "a query"))

    def query(self) -> Query:
        head = self.texts[self.pos]
        self.pos += 1
        self.expect("(")
        expr = self.mexpr()
        args = []
        for literal in _QUERY_FORMS[head][0]:
            self.expect(",")
            args.append(self.rat() if literal == "rat" else self.int_literal())
        self.expect(")")
        return Query(head, expr, tuple(args))

    def mexpr(self) -> MonoidExpr:
        node = self.primary()
        while self.kinds[self.pos] == "+":
            self.pos += 1
            node = Sum(node, self.primary())
        return node

    def primary(self) -> MonoidExpr:
        pos = self.pos
        text = self.texts[pos]
        if self.kinds[pos] != "IDENT" or text == "let" or text in QUERY_HEADS:
            raise self.fail("expected a monoid expression", ("pm", "cyclic", "family", "IDENT"))
        self.pos = pos + 1
        if text == "pm":
            self.expect("(")
            gens = [self.rat()]
            while self.kinds[self.pos] == ",":
                self.pos += 1
                gens.append(self.rat())
            self.expect(")")
            return FgLiteral(tuple(gens))
        if text == "cyclic":
            self.expect("(")
            r = self.rat()
            self.expect(")")
            return Cyclic(r)
        if text == "family":
            self.expect("(")
            name = self.expect("IDENT")
            params = []
            while self.kinds[self.pos] == ",":
                self.pos += 1
                key = self.expect("IDENT")
                self.expect("=")
                params.append((key, self.int_literal()))
            self.expect(")")
            return Family(name, tuple(sorted(params)))
        return Ident(text)

    def int_literal(self) -> int:
        pos = self.pos
        text = self.expect("INT")
        try:
            return int(text)
        except ValueError:  # longer than the interpreter's int-string digit limit
            raise self.error(f"integer literal of {len(text)} digits is too long", pos) from None

    def rat(self) -> Fraction:
        if self.kinds[self.pos] != "INT":
            raise self.fail("expected a rational", ("rational",))
        num = self.int_literal()
        if self.kinds[self.pos] == "/":
            self.pos += 1
            den_pos = self.pos
            den = self.int_literal()
            if den == 0:
                raise self.error("zero denominator in rational literal", den_pos)
            return Fraction(num, den)
        return Fraction(num)


def parse(text: str) -> list[Stmt]:
    """Parse a program into statements; raises ParseError with line/column."""
    return _Parser(text).program()


# -- canonical printer ---------------------------------------------------------


def print_mexpr(expr: MonoidExpr) -> str:
    if isinstance(expr, FgLiteral):
        return f"pm({', '.join(str(g) for g in expr.gens)})"
    if isinstance(expr, Cyclic):
        return f"cyclic({expr.r})"
    if isinstance(expr, Family):
        inner = ", ".join([expr.name] + [f"{k}={v}" for k, v in expr.params])
        return f"family({inner})"
    if isinstance(expr, Sum):
        return " + ".join(map(print_mexpr, _summands(expr)))
    if isinstance(expr, Ident):
        return expr.name
    raise InputError(f"not a monoid expression: {expr!r}")


def print_stmt(stmt: Stmt) -> str:
    if isinstance(stmt, Let):
        return f"let {stmt.name} = {print_mexpr(stmt.expr)}"
    args = "".join(f", {a}" for a in stmt.args)
    return f"{stmt.head}({print_mexpr(stmt.expr)}{args})"


def print_program(stmts: list[Stmt]) -> str:
    """Canonical text whose parse equals the given statements."""
    return "; ".join(print_stmt(s) for s in stmts)


# -- evaluation ------------------------------------------------------------------

MonoidValue = FgMonoid | families.FamilyMonoid


@dataclass
class Evaluator:
    """Single-session evaluation environment.

    `bound_defaults` supplies window/den_bound values for every family
    query whose expression leaves them unset; the CLI fills it only from
    flags the user passed explicitly, so nothing is ever defaulted silently.
    """

    env: dict[str, MonoidValue] = field(default_factory=dict)
    bound_defaults: dict[str, int] = field(default_factory=dict)
    budget: int | None = None

    def run(self, stmts: list[Stmt]) -> list[tuple[Stmt, object]]:
        """Evaluate statements; returns (statement, value) for each query."""
        results = []
        for stmt in stmts:
            if isinstance(stmt, Let):
                self.env[stmt.name] = self.eval_mexpr(stmt.expr)
            else:
                results.append((stmt, self.eval_query(stmt)))
        return results

    def run_text(self, text: str) -> list[tuple[Stmt, object]]:
        return self.run(parse(text))

    # -- monoid expressions

    def eval_mexpr(self, expr: MonoidExpr) -> MonoidValue:
        if isinstance(expr, FgLiteral):
            return FgMonoid(expr.gens, self.budget)
        if isinstance(expr, Cyclic):
            return FgMonoid([expr.r], self.budget)
        if isinstance(expr, Ident):
            if expr.name not in self.env:
                raise InputError(f"unbound identifier {expr.name!r}")
            return self.env[expr.name]
        if isinstance(expr, Family):
            fam = families.FamilyMonoid(expr.name, expr.params)
            k = fam.param("K")
            if k is not None:
                return families.truncate(fam, k, budget=self.budget)
            return fam
        if isinstance(expr, Sum):
            first, *rest = _summands(expr)
            value = self.eval_mexpr(first)
            for term in rest:
                value = value.internal_sum(self.eval_mexpr(term), self.budget)
            return value
        raise InputError(f"not a monoid expression: {expr!r}")

    # -- queries

    def eval_query(self, q: Query):
        value = self.eval_mexpr(q.expr)
        if q.head not in _QUERY_FORMS:
            raise InputError(f"unknown query {q.head!r}")
        if isinstance(value, families.FamilyMonoid):
            # folded at the query, not per family term, so a summand's explicit
            # bound still beats a flag after a sum merges the terms' params
            value = families.family(value.kind, **{**self.bound_defaults, **dict(value.params)})
        return _QUERY_FORMS[q.head][1](value, *q.args, self.budget)


# -- result rendering ------------------------------------------------------------


def render(value: object, json_mode: bool = False) -> str:
    """Deterministic text or JSON for every query result type; JSON from
    `monoid._json_text` (two-space indent, ASCII-escaped, keys in the order
    built) is byte for byte what `json.dumps(..., indent=2)` gives.  A
    result holding an integer past the interpreter's int-string digit limit
    is an InputError."""
    try:
        return _json_text(_jsonable(value)) if json_mode else _text(value)
    except ValueError:  # the only ValueError here: int-to-str past the digit limit
        raise InputError("the result holds an integer too long to print "
                         "(past the interpreter's int-string digit limit)") from None


def _jsonable(value: object):
    if isinstance(value, (FactorizationSet, dict)):
        return value  # the writer takes both as they are
    if isinstance(value, LengthSet):
        return value.to_json()
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return {"atoms": [str(a) for a in value]}
    raise InputError(f"cannot serialize {value!r}")


def _text(value: object) -> str:
    if isinstance(value, FactorizationSet):
        if not value.items:
            return "(no factorizations)"
        return "\n".join(
            f"{value.target} = {z} [len {z.length}]" for z in value.items
        )
    if isinstance(value, LengthSet):
        inner = ", ".join(str(n) for n in value.lengths)
        return f"L({value.target}) = {{{inner}}}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return "atoms: " + ", ".join(str(a) for a in value)
    if isinstance(value, dict):
        return _json_text(value)
    raise InputError(f"cannot render {value!r}")
