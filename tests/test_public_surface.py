"""The package's exports and the README's library quick start."""

import ast
from fractions import Fraction
from pathlib import Path

import puiseux

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_is_listed_once_and_resolves():
    names = puiseux.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(puiseux, name)] == []


def _run_quick_start(marker="## Library quick start"):
    """Run the README's first python block after marker; its namespace and
    the value of each bare expression in it, in order."""
    text = README.read_text(encoding="utf-8")
    block = text.split(marker, 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    return namespace, values


def test_readme_quick_start_gives_what_its_comments_state():
    namespace, (zs, lengths, mcds, offsets_match) = _run_quick_start()
    assert namespace["M"].atoms == (2, 3)
    assert [str(z) for z in zs] == ["6·2", "3·2 + 2·3", "4·3"]
    assert lengths == (4, 5, 6)
    assert mcds == (4,)
    assert namespace["S"].atoms == (Fraction(3, 4), 2)
    assert offsets_match is True


def test_readme_family_example_gives_what_its_comments_state():
    namespace, (member, count, lengths, zs) = _run_quick_start("An infinite family answers")
    assert repr(namespace["T"]) == "family(interval1_sqden)"
    assert (member, count, lengths) == (True, 0, (2, 3))
    assert [str(z) for z in zs] == ["2·3/2", "1·5/4 + 1·7/4", "1·7/6 + 1·11/6"]
