"""A snapshot of what every family kind answers: for each kind, each DSL query
head and two parameter sets, the `--json` text or the error class and
message, and the budget units spent; and `family_properties` at small
bounds for every kind.

Regenerate with `PYTHONPATH=src python tests/test_family_surface.py --write`
only when an answer, message or unit count changes on purpose, and say in
the change which entries moved and why.
"""

import json
import sys
from pathlib import Path

import pytest

from puiseux import PuiseuxError, family_properties, render
from puiseux.dsl import QUERY_HEADS, Evaluator
from puiseux.families import KINDS
from puiseux.monoid import Budget

SNAPSHOT = Path(__file__).parent / "family_surface.json"
LIMIT = 10**5

_ARGS = {"atoms": "", "props": "", "Z": ", 12/5", "L": ", 12/5", "member": ", 12/5",
         "Zl": ", 12/5, 2", "mcd": ", 2, 3", "divides": ", 1, 2"}
_PARAMS = ("", ", window=3, den_bound=4")


def _outcome(run) -> dict:
    meter = Budget(LIMIT)
    try:
        text = run(meter)
    except PuiseuxError as err:
        text = f"{type(err).__name__}: {err}"
    return {"outcome": text, "units": LIMIT - meter.left}


def _query(program: str) -> dict:
    def run(meter):
        (_, value), = Evaluator(budget=meter).run_text(program)
        return render(value, json_mode=True)
    return {"program": program, **_outcome(run)}


def _props(kind: str) -> dict:
    def run(meter):
        return json.dumps(family_properties(kind, K=3, window=4, den_bound=4, budget=meter),
                          indent=2)
    return {"props": kind, **_outcome(run)}


def _programs() -> list[str]:
    return [f"{head}(family({kind}{params}){_ARGS[head]})"
            for kind in KINDS for params in _PARAMS for head in QUERY_HEADS]


def surface() -> list[dict]:
    return [_query(p) for p in _programs()] + [_props(kind) for kind in KINDS]


def _pinned() -> dict[str, dict]:
    return {e.get("program", e.get("props")): e for e in json.loads(SNAPSHOT.read_text())}


def test_the_snapshot_covers_every_kind_and_head():
    assert set(_ARGS) == set(QUERY_HEADS)
    assert set(_pinned()) == set(_programs()) | set(KINDS)


@pytest.mark.parametrize("program", _programs())
def test_each_query_answers_as_pinned(program):
    assert _query(program) == _pinned()[program]


@pytest.mark.parametrize("kind", KINDS)
def test_each_property_report_is_as_pinned(kind):
    assert _props(kind) == _pinned()[kind]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    SNAPSHOT.write_text(json.dumps(surface(), indent=1, ensure_ascii=False) + "\n")
