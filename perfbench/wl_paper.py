"""paper: one `puiseux paper --json <id>` call through the CLI entry point,
in-process, at the default bounds.

The plan is CYCLES seeded permutations of the six scenario ids, so three
passes fit in a run and each op's latency is a median of three.  The ten
slowest ops are then the six runs of scenario 4.4 and four of 3.2, and the
tail percentile lands inside scenario 3.2 (the second slowest) instead of
on the boundary between two scenarios.
Every answer must equal tests/golden/paper_<id>.json byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

EXAMPLE_IDS = ("3.2", "3.3", "4.2", "4.3", "4.4", "5")
CYCLES = 6
SMOKE_CYCLES = 2
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"


def generate(rng: random.Random, smoke: bool) -> list[str]:
    plan = []
    for _ in range(SMOKE_CYCLES if smoke else CYCLES):
        cycle = list(EXAMPLE_IDS)
        rng.shuffle(cycle)
        plan += cycle
    return plan


def warmup(rng: random.Random) -> list[str]:
    return list(EXAMPLE_IDS)


class CliError(Exception):
    """The CLI returned a nonzero exit code."""


def run(lib, example: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        code = lib.cli.main(["paper", "--json", example])
    if code not in (0, 1):  # 1 is a failed claim: a wrong answer, caught by check()
        raise CliError(f"paper {example} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def check(example: str, output: str) -> str | None:
    golden = (GOLDEN_DIR / f"paper_{example.replace('.', '_')}.json").read_text(encoding="utf-8")
    if output != golden:
        return f"paper {example}: output differs from {GOLDEN_DIR.name}/paper_{example}.json"
    return None
