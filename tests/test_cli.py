import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from puiseux import qarith
from puiseux.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_inline_program(capsys):
    code, out, _ = run(capsys, "eval", "let M = pm(2,3); Z(M, 6); mcd(M, 4, 6)")
    assert code == 0
    assert out.splitlines() == ["6 = 3·2 [len 3]", "6 = 2·3 [len 2]", "4"]


def test_eval_long_sum_runs_without_recursion(capsys):
    # the sum's terms are walked in a loop: at 1,000 terms a recursion ran out of stack
    code, out, _ = run(capsys, "eval", "atoms(" + " + ".join(["pm(1)"] * 5000) + ")")
    assert code == 0
    assert out == "atoms: 1\n"


def test_eval_program_file(capsys, tmp_path):
    path = tmp_path / "program.pm"
    path.write_text("# membership probe\nmember(pm(2,3), 7)\n")
    code, out, _ = run(capsys, "eval", str(path))
    assert code == 0
    assert out.strip() == "true"


def test_eval_json_output(capsys):
    code, out, _ = run(capsys, "eval", "--json", "Z(pm(2,3), 6)")
    assert code == 0
    assert json.loads(out)["target"] == "6"


def test_eval_parse_error_is_usage_error(capsys):
    code, _, err = run(capsys, "eval", "pm()")
    assert code == 2
    assert "expected a rational" in err


def test_eval_character_outside_the_alphabet_is_usage_error(capsys):
    code, _, err = run(capsys, "eval", "member(pm(2, 3), ²)")
    assert code == 2
    assert "unexpected character '²'" in err


@pytest.mark.parametrize("argv", [["eval", "--box", "5", "atoms(pm(2,3))"], ["repl", "--box", "5"]])
def test_box_is_a_paper_flag_only(capsys, argv):
    assert main(argv) == 2
    assert "--box" in capsys.readouterr().err


def test_eval_semantic_error_is_usage_error(capsys):
    code, _, err = run(capsys, "eval", "Z(family(grams), 1/6)")
    assert code == 2
    assert "K=" in err


def test_eval_budget_exhaustion_exit_code(capsys):
    code, _, err = run(capsys, "eval", "--budget", "5", "Z(pm(2,3), 600)")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("query", ["Z", "L"])
def test_two_atom_closed_form_past_sys_maxsize_is_charged(capsys, query):
    # the last two atoms solve 2·m0 + 3·m1 = 10^20 in about 1.7·10^19 ways,
    # more than len() of a range can count: the count is charged instead
    code, _, err = run(capsys, "eval", f"{query}(pm(2,3), {10**20})")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("flags", [[], ["--json"]])
@pytest.mark.parametrize("program, reference", [
    ("Z(family(sqden), 0)", "Z(pm(2,3), 0)"),
    ("Z(family(interval1_sqden), 0)", "Z(pm(2,3), 0)"),
    ("Z(family(exAexB, window=3), 0)", "Z(pm(2,3), 0)"),
    ("L(family(sqden), 0)", "L(pm(2,3), 0)"),
])
def test_zero_has_the_empty_factorization_in_every_family(capsys, flags, program, reference):
    want = run(capsys, "eval", *flags, reference)
    assert want[0] == 0 and want[1]
    assert run(capsys, "eval", *flags, program) == want


def test_negative_family_target_is_a_usage_error(capsys):
    code, _, err = run(capsys, "eval", "Z(family(sqden), -1)")
    assert code == 2
    assert "error" in err


def test_eval_window_flag_supplies_bound(capsys):
    code, out, _ = run(capsys, "eval", "--window", "6", "Zl(family(exAexB), 2, 2)")
    assert code == 0
    assert len(out.splitlines()) == 6


@pytest.mark.parametrize("flags, program, explicit, provenance", [
    (["--window", "4"], "props(family(exAexB))", "props(family(exAexB, window=4))", "window=4"),
    (["--den-bound", "6"], "props(family(interval1))", "props(family(interval1, den_bound=6))",
     "den_bound=6"),
    (["--window", "4"], "props(family(exAexB, window=3))", "props(family(exAexB, window=3))",
     "window=3"),
], ids=["window", "den_bound", "explicit_window_wins"])
def test_bound_flags_fill_only_the_bounds_a_family_leaves_unset(capsys, flags, program, explicit,
                                                                provenance):
    code, flagged, _ = run(capsys, "eval", *flags, program)
    assert code == 0
    code, written, _ = run(capsys, "eval", explicit)
    assert code == 0
    assert flagged == written
    assert f'"provenance": "evidence({provenance})"' in flagged


def test_nonpositive_budget_is_usage_error(capsys):
    code, _, err = run(capsys, "eval", "--budget", "0", "atoms(pm(2))")
    assert code == 2
    assert "budget must be positive" in err


def _puiseux(argv, stdout=subprocess.PIPE, stdin=""):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "puiseux", *argv], env=env, cwd=ROOT, input=stdin,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)


def test_module_entry_point_writes_the_golden():
    result = _puiseux(["paper", "4.3", "--json"])
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN_DIR / "paper_4_3.json").read_text()


def _into_closed_pipe(argv, stdin=""):
    """Run puiseux writing to a pipe whose read end is closed before it starts."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _puiseux(argv, stdout=write_end, stdin=stdin)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv, stdin", [
    (["paper", "4.3", "--json"], ""),
    (["eval", "Z(pm(2,3), 12); L(pm(2,3), 12)"], ""),
    (["repl"], "Z(pm(2,3), 12)\n:env\nZ(pm(2,3), 6)\n"),
])
def test_a_closed_reader_ends_the_output_quietly(argv, stdin):
    result = _into_closed_pipe(argv, stdin)
    assert (result.returncode, result.stderr) == (0, "")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-string digit limit")
def test_a_closed_reader_still_gets_the_commands_exit_code():
    # the first result goes to the closed pipe; the second is too long to print
    n = "9" * sys.get_int_max_str_digits()
    result = _into_closed_pipe(["eval", f"Z(pm(2,3), 6); Z(pm(1/2), {n})"])
    assert result.returncode == 2
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: the result holds an integer too long to print")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["eval", "Z(pm(2,3), 12)"], ["paper", "4.3"]])
def test_any_other_stdout_write_error_exits_2(argv):
    with open("/dev/full", "w") as full:
        result = _puiseux(argv, stdout=full)
    assert result.returncode == 2
    assert result.stderr.splitlines() == ["error: cannot write to stdout: No space left on device"]


@pytest.mark.parametrize("make", [Path.mkdir, lambda path: path.write_bytes(b"\xff member(pm(2,3), 7)")],
                         ids=["directory", "not-utf-8"])
def test_an_unreadable_program_file_is_an_input_error(tmp_path, make):
    path = tmp_path / "program.pm"
    make(path)
    result = _puiseux(["eval", str(path)])
    assert (result.returncode, result.stdout) == (2, "")
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: cannot read program file: ")


def test_deep_interval_sample_is_not_limited_by_recursion(capsys):
    # at den_bound=60 the sample has ~1,100 atoms, one search level each
    pairs = []
    for den_bound in (45, 60):
        code, out, _ = run(capsys, "eval", f"Zl(family(interval1, den_bound={den_bound}), 3, 2)")
        assert code == 0
        pairs.append(len(out.splitlines()))
    assert pairs[0] < pairs[1]
    code, out, _ = run(capsys, "paper", "5", "--den-bound", "60")
    assert code == 0
    assert out.strip().endswith("PASS")


def test_wide_interval_sample_ends_within_the_budget(capsys):
    # the largest rung has 45,150 atoms, charged before the grid is built
    start = time.perf_counter()
    code, _, _ = run(capsys, "paper", "5", "--den-bound", "300")
    assert time.perf_counter() - start < 10
    assert code in (0, 3)


def test_interval_grid_too_wide_for_the_budget_is_never_built(capsys):
    # the first rung, den_bound 1000, is charged per 64-bit word of its
    # 1,438-bit scale and exceeds the default budget before its grid exists
    start = time.perf_counter()
    code, _, err = run(capsys, "paper", "5", "--den-bound", "3000")
    assert time.perf_counter() - start < 2
    assert code == 3
    assert "budget" in err


def test_interval_grid_at_den_bound_1000_ends_in_time(capsys):
    start = time.perf_counter()
    code, _, _ = run(capsys, "paper", "5", "--den-bound", "1000")
    assert time.perf_counter() - start < 10
    assert code in (0, 3)


def test_interval_ladder_charges_its_largest_rung_first(capsys):
    # the 1000 rung's grid exceeds the default budget, so the 333 and 666
    # rungs are never searched
    start = time.perf_counter()
    code, _, err = run(capsys, "paper", "5", "--den-bound", "1000")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert "budget" in err


def test_deep_sqden_search_is_not_limited_by_recursion(capsys):
    # the first branch fixes a multiplicity for each of ~5,000 candidate
    # primes, one search level each; the budget runs out past 1,000 levels
    code, _, err = run(capsys, "eval", "--budget", "1200", "Z(family(interval1_sqden), 99999/2)")
    assert code in (0, 3)
    assert "budget" in err


def test_deep_sqden_search_ends_within_its_budget(capsys):
    # each node finds its one index without listing every prime below q
    start = time.perf_counter()
    code, _, err = run(capsys, "eval", "--budget", "100000", "Z(family(interval1_sqden), 99999/2)")
    assert time.perf_counter() - start < 10
    assert code == 3
    assert "budget" in err


def test_sqden_member_with_a_huge_denominator_prime_ends_at_once(capsys):
    # the multiplicity class of 1000000007 already overshoots the target,
    # so the node is a leaf before the prime's index is looked up
    start = time.perf_counter()
    code, out, _ = run(capsys, "eval", "--budget", "100", "member(family(sqden), 1/1000000007)")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert out.strip() == "false"


def test_sqden_member_needing_a_large_prime_index_answers_quickly(capsys, monkeypatch):
    # the generator for p = 1000003 needs p's index; from a fresh table the
    # sieve grows the table past 10^6
    monkeypatch.setattr(qarith, "_primes", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29])
    start = time.perf_counter()
    code, out, _ = run(capsys, "eval", "member(family(sqden), 1000004/1000006000009)")
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert out.strip() == "true"


def test_sqden_denominator_factoring_is_charged(capsys):
    # 1000000007 * 1000000009: trial division to its square root would run
    # for minutes, so the root's factoring runs out of budget first
    start = time.perf_counter()
    code, _, err = run(capsys, "eval", "--budget", "100", "member(family(sqden), 1/1000000016000000063)")
    assert time.perf_counter() - start < 5
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("warm", [False, True])
def test_sqden_prime_index_is_charged_whatever_the_table_holds(capsys, monkeypatch, warm):
    # p = 100003 costs 50,001 units for its index, from a fresh table and
    # from one an unbudgeted scan already grew past it
    monkeypatch.setattr(qarith, "_primes", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29])
    if warm:
        qarith.prime_index(100003)
    code, _, err = run(capsys, "eval", "--budget", "100", "member(family(sqden), 100004/100003)")
    assert code == 3
    assert "budget" in err
    code, out, _ = run(capsys, "eval", "member(family(sqden), 100004/100003)")
    assert code == 0
    assert out.strip() == "true"


def test_sqden_prime_index_past_the_budget_never_grows_the_table(capsys, monkeypatch):
    monkeypatch.setattr(qarith, "_primes", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29])
    code, _, _ = run(capsys, "eval", "--budget", "100", "member(family(sqden), 10000020/10000019)")
    assert code == 3
    assert qarith._primes[-1] < 10**6


def test_large_truncation_is_charged_before_it_is_built(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "eval", "--budget", "100", "atoms(family(sqden, K=20000))")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert "budget" in err


def test_props_with_a_huge_smallest_atom_ends_at_once(capsys):
    # the sample is the smallest sums of atoms: a reach string up to 10 times
    # the smallest scaled atom would be 7 * 10^8 bits
    start = time.perf_counter()
    code, out, _ = run(capsys, "eval", "--budget", "100000", "props(pm(70000001/7, 70000003/7))")
    assert time.perf_counter() - start < 5
    assert code == 0
    evidence = json.loads(out)["evidence"]
    assert evidence["sampled_members"][-3:] == ["30000001", "210000009/7", "280000004/7"]
    assert evidence["factorization_counts"] == [1] * 10


def test_companion_prime_scan_is_charged_before_it_runs(capsys):
    # the staircase under a_30 needs the odd primes up to 2^30 * p_30
    start = time.perf_counter()
    code, _, err = run(capsys, "eval", "atoms(family(companion, K=3, n=30))")
    assert time.perf_counter() - start < 10
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("program, hint", [
    ("Z(family(interval1), 3)", "Zl(..., den_bound=...)"),
    ("atoms(family(interval1))", "Zl(..., den_bound=...)"),
    ("mcd(family(interval1), 2, 3)", "Zl(..., den_bound=...)"),
    ("Z(pm(2) + family(interval1), 3)", "Zl(..., den_bound=...)"),
    ("Z(family(interval1) + family(exA), 3)", "Zl(..., den_bound=...)"),
    ("atoms(family(interval1_sqden))", "no bound replaces a truncation"),
    ("mcd(family(interval1_sqden), 2, 3)", "no bound replaces a truncation"),
    ("Z(family(interval1_sqden) + pm(2), 3)", "no bound replaces a truncation"),
])
def test_untruncatable_families_are_not_told_to_truncate(capsys, program, hint):
    # truncate() rejects interval1 and interval1_sqden, so K=... cannot help
    code, _, err = run(capsys, "eval", program)
    assert code == 2
    assert hint in err
    assert "K=" not in err


@pytest.mark.parametrize("example, box, want", [("3.2", "200", 3), ("4.4", "40", 0)])
def test_large_lattice_boxes_end_within_the_budget(capsys, example, box, want):
    # 3.2 at box 200 asks for ~5e7 sumset units, past the default budget,
    # and fails before building its masks; 4.4 at box 40 fits in it
    start = time.perf_counter()
    code, _, err = run(capsys, "paper", example, "--box", box)
    assert time.perf_counter() - start < 10
    assert code == want
    assert ("budget" in err) == (want == 3)


def test_largest_upperhalf_box_the_default_budget_admits_ends_in_time(capsys):
    # box 175 is the largest 4.4 runs within the default budget; its upper
    # half-plane sample searches over 351 atoms of height 1, where the integer
    # kernel charges every node it visits, so the units it spends bound its time
    start = time.perf_counter()
    code, out, _ = run(capsys, "paper", "4.4", "--box", "175")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert out.strip().endswith("PASS")
    code, _, err = run(capsys, "paper", "4.4", "--box", "176")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("example", ["3.2", "4.4"])
def test_huge_lattice_box_is_refused_before_its_members_are_listed(capsys, example):
    # at box 1000 the quadrant atom search of 4.4 would pair ~10^6 members in
    # a 16-million-bit mask, and the sum check of 3.2 would list two boxes of
    # ~4 and ~8 million points; each sumset is charged from the closed-form
    # member counts before any box is listed
    start = time.perf_counter()
    code, _, err = run(capsys, "paper", example, "--box", "1000")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert "budget" in err


def test_unknown_subcommand_and_example(capsys):
    assert main(["bogus"]) == 2
    capsys.readouterr()
    code, _, err = run(capsys, "paper", "9.9")
    assert code == 2
    assert "unknown example id" in err


@pytest.mark.parametrize("example, flag, minimum", [("4.2", "--window", "window >= 2"),
                                                    ("5", "--den-bound", "den_bound >= 2")])
def test_a_bound_too_small_for_a_growth_claim_is_refused(capsys, example, flag, minimum):
    # one rung or none cannot show growth; the smallest accepted bound passes
    for value in ("1", "0", "-1"):
        code, out, err = run(capsys, "paper", example, flag, value)
        assert (code, out) == (2, "")
        assert minimum in err
    code, out, _ = run(capsys, "paper", example, flag, "2")
    assert code == 0
    assert out.strip().endswith("PASS")


def test_paper_4_4_refuses_a_box_too_small_for_its_sample(capsys):
    # the length sample factors (-2,1), an atom of the box only from 2 up
    code, out, err = run(capsys, "paper", "4.4", "--box", "1")
    assert (code, out) == (2, "")
    assert "box >= 2" in err and "(-2,1)" in err
    code, out, _ = run(capsys, "paper", "4.4", "--box", "2")
    assert code == 0
    assert out.strip().endswith("PASS")


def test_a_query_ends_alike_whatever_ran_before_it(capsys):
    # the member query builds a mask past the divides targets; the divides
    # query must not read it
    codes = [run(capsys, "eval", "--budget", "20000",
                 f"let M = pm(100000, 100001); {before}divides(M, 3000000, 9000000)")[0]
             for before in ("", "member(M, 9000000); ")]
    assert codes[0] == codes[1] in (0, 3)


def test_family_divides_spends_one_allowance(capsys):
    # its three membership checks cost 2,122 units together
    code, out, err = run(capsys, "eval", "--budget", "1900", "divides(family(sqden), 20, 40)")
    assert (code, out) == (3, "")
    assert "budget" in err
    code, out, _ = run(capsys, "eval", "--budget", "2122", "divides(family(sqden), 20, 40)")
    assert (code, out) == (0, "true\n")


@pytest.mark.parametrize("example", ["3.2", "3.3", "4.2", "4.3", "4.4", "5"])
def test_paper_examples_pass_with_defaults(capsys, example):
    code, out, _ = run(capsys, "paper", example)
    assert code == 0
    assert out.strip().endswith("PASS")


@pytest.mark.parametrize("example", ["3.2", "3.3", "4.2", "4.3", "4.4", "5"])
def test_paper_json_is_stable_and_matches_golden(capsys, example):
    code, first, _ = run(capsys, "paper", "--json", example)
    assert code == 0
    code, second, _ = run(capsys, "paper", "--json", example)
    assert code == 0
    assert first == second
    golden = (GOLDEN_DIR / f"paper_{example.replace('.', '_')}.json").read_text()
    assert first == golden


def test_repl_session(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO("let M = pm(2,3)\natoms(M)\n:env\nbad syntax here\n:quit\n")
    )
    monkeypatch.setattr("builtins.input", lambda prompt="": input_from_stdin(prompt))
    code = main(["repl"])
    out = capsys.readouterr().out
    assert code == 0
    assert "atoms: 2, 3" in out
    assert "M = FgMonoid(2, 3)" in out
    assert "error:" in out


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-string digit limit")
def test_repl_keeps_running_after_a_literal_past_the_digit_limit(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(f"member(pm(2,3), {'7' * 5000})\nmember(pm(2,3), 7)\n"))
    monkeypatch.setattr("builtins.input", lambda prompt="": input_from_stdin(prompt))
    assert main(["repl"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["error: line 1, col 17: integer literal of 5000 digits is too long", "true", ""]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-string digit limit")
def test_eval_literal_past_the_digit_limit_is_a_usage_error(capsys):
    code, _, err = run(capsys, "eval", f"member(pm(2,3), {'7' * 5000})")
    assert code == 2
    assert "digits is too long" in err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-string digit limit")
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_result_past_the_digit_limit_is_a_usage_error(capsys, flags):
    # the literal is as long as the limit allows; 2n copies of 1/2 make a
    # multiplicity (and a length) one digit longer
    n = "9" * sys.get_int_max_str_digits()
    code, out, err = run(capsys, "eval", *flags, f"Z(pm(1/2), {n})")
    assert (code, out) == (2, "")
    assert "too long to print" in err


def test_interval_length_set_is_charged_before_it_is_built(capsys):
    # 500,000 lengths in (q/2, q], one unit each, against a budget of 100
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--budget", "100", "L(family(interval1), 1000000)")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert "budget" in err


def test_exaexb_window_is_charged_before_it_is_built(capsys):
    # 200,000 atoms, one unit each, against a budget of 100: no generator,
    # prime or scale is built
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--budget", "100", "Z(family(exAexB, window=100000), 2)")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert "budget" in err


def test_kernel_on_a_multi_word_target_runs_out_of_budget_in_time(capsys):
    # a 6,644-bit target: each kernel node is charged per 64-bit word, so
    # the default budget ends the search in about a second; at one unit a
    # node the same search ran past 10 s.  The 3 atoms keep membership
    # cheap, and the length leaves one in a million two-atom nodes a
    # solution, so the search visits nodes without listing answers
    big = 10**2000 - 1
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", f"Zl(pm(3,1000003,1000034), {big}, {big // 1000003 + 1})")
    assert time.perf_counter() - start < 10
    assert (code, out) == (3, "")
    assert "budget" in err


def test_exaexb_window_lists_one_balanced_pair_per_prime(capsys):
    # Z(2) is one pair (p-1)/p + (p+1)/p per window prime, found by
    # valuation in time that follows the output, largest prime first
    start = time.perf_counter()
    code, out, _ = run(capsys, "eval", "Z(family(exAexB, window=3000), 2)")
    assert time.perf_counter() - start < 1
    lines = out.splitlines()
    assert code == 0 and len(lines) == 3000
    assert lines[0] == "2 = 1·27478/27479 + 1·27480/27479 [len 2]" and lines[-1] == "2 = 1·4/5 + 1·6/5 [len 2]"
    code, out, _ = run(capsys, "eval", "Z(family(exAexB, window=300), 2)")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 300
    assert lines[0] == "2 = 1·1996/1997 + 1·1998/1997 [len 2]" and lines[-1] == "2 = 1·4/5 + 1·6/5 [len 2]"


@pytest.mark.parametrize("program, answer", [
    ("member(family(exAexB), 12/11)", "true"),
    ("member(family(exAexB, window=1), 12/11)", "true"),
    ("member(family(exAexB), 3)", "false"),
    ("member(family(exAexB), 100)", "true"),
    ("L(family(exAexB), 4)", "L(4) = {4, 5}"),
    ("L(family(exAexB, window=1), 24/7)", "L(24/7) = {3, 4}"),
    ("divides(family(exAexB), 2, 4)", "true"),
])
def test_exaexb_member_and_lengths_need_no_window(capsys, program, answer):
    # exA + exB is a BFM: its length sets are finite, so window= bounds
    # only Z and Zl, the infinite factorization sets
    assert run(capsys, "eval", program) == (0, answer + "\n", "")


@pytest.mark.parametrize("program", ["Z(family(exAexB), 2)", "Zl(family(exAexB), 2, 2)"])
def test_exaexb_factorizations_still_need_a_window(capsys, program):
    code, out, err = run(capsys, "eval", program)
    assert (code, out) == (2, "")
    assert "window=" in err


def test_mcd_of_large_targets_reads_bitmasks(capsys):
    # ten million candidate divisors, each tested by integer masks, not one
    # by one
    start = time.perf_counter()
    code, out, _ = run(capsys, "eval", "mcd(pm(2,3), 10000000, 10000001)")
    assert time.perf_counter() - start < 5
    assert (code, out) == (0, "9999998\n")


def test_repeated_in_process_calls_match_fresh_processes(capsys, monkeypatch):
    # main builds its parser once per process; a bad argv or --help must not
    # leave anything in it that a later call sees
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80", "PYTHONIOENCODING": "utf-8"}
    calls = [["paper"], ["--help"], ["eval", "--bogus", "Z(pm(2,3), 6)"], ["paper", "--help"],
             ["eval", "Z(pm(2,3), 6)"], ["paper", "4.3", "--json"]]
    fresh = []
    for argv in calls:
        result = subprocess.run([sys.executable, "-m", "puiseux", *argv], env=env, cwd=ROOT,
                                capture_output=True, timeout=120)
        fresh.append((result.returncode, result.stdout.decode(), result.stderr.decode()))
    assert [code for code, _, _ in fresh] == [2, 0, 2, 0, 0, 0]
    assert [run(capsys, *argv) for argv in calls + calls] == fresh + fresh


def input_from_stdin(prompt=""):
    import sys

    line = sys.stdin.readline()
    if not line:
        raise EOFError
    return line.rstrip("\n")
