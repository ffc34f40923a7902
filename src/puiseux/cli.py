"""Command-line entry point: batch evaluation, a line-oriented REPL, and a
catalog of scripted verification scenarios.

Exit codes: 0 success, 1 failed claim in a scenario report, 2 usage,
parse or I/O error, 3 search budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .dsl import Evaluator, parse, render
from .errors import BudgetExceededError, InputError, PuiseuxError
from .reports import EXAMPLE_IDS, run_paper_example

DEFAULT_BUDGET = 10**7


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub.add_argument("--window", type=int, default=None, metavar="K",
                     help="window size for windowed family searches")
    sub.add_argument("--den-bound", type=int, default=None, metavar="D",
                     help="denominator bound for interval-monoid samples")
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET, metavar="N",
                     help=f"search-node budget (default {DEFAULT_BUDGET})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser main reads, built on its first call: parsing leaves no
    state in it, and building one costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="puiseux",
        description="Exact factorization computations in Puiseux monoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a program (inline text or a file path)")
    p_eval.add_argument("program", help="program text, or the path of a program file")
    _add_common_flags(p_eval)

    p_repl = sub.add_parser("repl", help="interactive session (:quit to leave, :env to inspect)")
    _add_common_flags(p_repl)

    p_paper = sub.add_parser("paper", help="run a scripted verification scenario")
    p_paper.add_argument("example", help=f"scenario id, one of: {', '.join(EXAMPLE_IDS)}")
    _add_common_flags(p_paper)
    p_paper.add_argument("--box", type=int, default=None, metavar="B",
                         help="box half-width for lattice searches")

    return parser


class _OutputError(Exception):
    """stdout refused a write, other than by its reader closing it."""


def _drop_stdout(err: OSError) -> None:
    """Send stdout to the null device after a failed write, so its buffered rest
    cannot fail again at exit; a closed reader (EPIPE) only ends the output."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, sys.stdout.fileno())
    os.close(null)
    if not isinstance(err, BrokenPipeError):
        raise _OutputError(f"cannot write to stdout: {err.strerror}") from None


def _emit(text: str = "") -> None:
    try:
        print(text, flush=True)
    except OSError as err:
        _drop_stdout(err)


def _bound_defaults(args: argparse.Namespace) -> dict[str, int]:
    # only bounds the user passed explicitly (only paper has --box): nothing
    # defaults silently
    return {name: getattr(args, name) for name in ("window", "den_bound", "box")
            if getattr(args, name, None) is not None}


def _run_eval(args: argparse.Namespace) -> int:
    text = args.program
    if os.path.exists(text):
        try:
            with open(text, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            raise InputError(f"cannot read program file: {err}") from None
    evaluator = Evaluator(bound_defaults=_bound_defaults(args), budget=args.budget)
    results = evaluator.run(parse(text))
    for _, value in results:
        _emit(render(value, json_mode=args.json))
    return 0


def _run_repl(args: argparse.Namespace) -> int:
    evaluator = Evaluator(bound_defaults=_bound_defaults(args), budget=args.budget)
    _emit("puiseux repl; :quit to leave, :env to list bindings")
    while True:
        try:
            line = input("> ")
        except EOFError:
            _emit()
            return 0
        except OSError as err:   # writing the prompt; no line was read
            _drop_stdout(err)
            continue
        stripped = line.strip()
        if not stripped:
            continue
        if stripped == ":quit":
            return 0
        if stripped == ":env":
            for name, value in sorted(evaluator.env.items()):
                _emit(f"{name} = {value!r}")
            continue
        try:
            for _, value in evaluator.run(parse(line)):
                _emit(render(value, json_mode=args.json))
        except PuiseuxError as err:
            _emit(f"error: {err}")


def _run_paper(args: argparse.Namespace) -> int:
    # the scenarios' own defaults fill the bounds the user left out
    report = run_paper_example(args.example, budget=args.budget, **_bound_defaults(args))
    _emit(report.render_json() if args.json else report.render_text())
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.command == "eval":
            return _run_eval(args)
        if args.command == "repl":
            return _run_repl(args)
        return _run_paper(args)
    except BudgetExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (PuiseuxError, _OutputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
