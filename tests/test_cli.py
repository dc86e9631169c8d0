"""Command line behaviour: golden outputs, exit codes, json stability."""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import dp3ring.picard as picard
from dp3ring.cli import main
from dp3ring.ncpoly import MAX_SCALAR_EXPONENT, MAX_WORD_LENGTH

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nf_kills_the_first_relation(capsys):
    code, out, _ = run_cli(capsys, "nf", "x^5 - y*x*y")
    assert code == 0
    assert out == "0\n"


def test_nf_of_one(capsys):
    code, out, _ = run_cli(capsys, "nf", "1")
    assert code == 0
    assert out == "1\n"


def test_nf_in_the_ordered_alphabet(capsys):
    code, out, _ = run_cli(capsys, "nf", "--alphabet", "wzx", "x*w")
    assert code == 0
    assert out == "(1 - zeta)*w*x + z\n"


def test_nf_parse_error_exits_2(capsys):
    for argv in (
        ["nf", "x +"],
        ["nf", "1/0"],
        ["mul", "--ring", "B", "1/0", "x"],
        ["nf", "--", "(" * 260 + "x" + ")" * 260],
        ["nf", "--", "9" * 4301],
        ["nf", "--", "x^" + "9" * 4301],
        # a number is ASCII digits only: "٣" used to read as 3
        ["nf", "--", "٣*x"],
        ["mul", "--ring", "B", "x", "x^²"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "position" in err


def test_nf_words_past_the_length_limit_exit_2(capsys):
    # multiplying these out would build words longer than MAX_WORD_LENGTH;
    # "x^99999999999" used to run until it was killed
    for argv, pos in (
        (["nf", "--", "x^99999999999"], 2),
        (["nf", "--", "(x^100)^100"], 8),
        (["nf", "--", "x^500*x^501"], 5),
        (["nf", "--alphabet", "wzx", "--", "(w*x)^501"], 6),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"limit of {MAX_WORD_LENGTH} (position {pos})" in err
    code, out, _ = run_cli(capsys, "nf", "--", "x^500*x^500")
    assert code == 0
    assert out == f"x^{MAX_WORD_LENGTH}\n"


def run_cli_process(*argv, timeout=20):
    """(exit code, stdout, stderr) of `dp3ring` in a child process, which a
    hang cannot outlast."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dp3ring.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_nf_huge_scalar_powers_finish():
    # these powers of letterless bases each used to multiply 99999999999
    # times; a sixth root of unity or 0 cycles, any other scalar is too long
    # to print and is refused before it is computed
    for expression, code, out in (
        ("1^99999999999", 0, "1\n"),
        ("(x-x)^99999999999", 0, "0\n"),
        ("zeta^99999999999", 0, "-1\n"),
        ("(zeta - 1)^99999999999", 0, "1\n"),
        ("2^99999999999", 2, ""),
        ("(1/2 + zeta)^100001", 2, ""),
    ):
        result = run_cli_process("nf", "--", expression)
        assert result[:2] == (code, out), expression
        if code == 2:
            assert result[2].startswith("error: ") and result[2].count("\n") == 1
            assert f"past exponent {MAX_SCALAR_EXPONENT}" in result[2]


def test_nf_of_a_heavy_word_finishes():
    # rewriting every path of a word separately took about 40 minutes on it
    expected = "-w^2*x^12 - zeta*w*x^14 + z*x^13 + x^16\n"
    assert run_cli_process("nf", "--", "x^14*y") == (0, expected, "")


def test_oversized_result_integer_exits_2(capsys):
    # each result holds an integer of more than 4,300 digits, Python's limit
    # on converting an int to a string, in text and in json
    for argv in (
        ["nf", "--", "2^100000"],
        ["mul", "--ring", "R", "--", "2^20000", "x"],
        ["h0", "1" + "0" * 2200, "0", "0", "0"],
        ["nf", "--format", "json", "--", "2^100000"],
        ["mul", "--ring", "R", "--format", "json", "--", "2^20000", "x"],
        ["h0", "--format", "json", "1" + "0" * 2200, "0", "0", "0"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "4300 digits" in err
        assert "set_int_max_str_digits" not in err


def test_nf_unknown_variable_exits_2(capsys):
    code, _, err = run_cli(capsys, "nf", "x * w")
    assert code == 2
    assert "w" in err


def test_divisor_six(capsys):
    code, out, _ = run_cli(capsys, "divisor", "6")
    assert code == 0
    assert out == "(3,1,1,1) chi=7 h0=7 ample(D-K)=true\n"


def test_divisor_zero(capsys):
    code, out, _ = run_cli(capsys, "divisor", "0")
    assert code == 0
    assert out.startswith("(0,0,0,0) chi=1 h0=1")


def test_divisor_seven(capsys):
    code, out, _ = run_cli(capsys, "divisor", "7")
    assert code == 0
    assert out == "(4,2,1,2) chi=8 h0=8 ample(D-K)=true\n"


def test_divisor_one_is_not_ample_shifted(capsys):
    code, out, _ = run_cli(capsys, "divisor", "1")
    assert code == 0
    assert out == "(1,1,0,1) chi=1 h0=1 ample(D-K)=false\n"


def test_divisor_rejects_negative(capsys):
    with pytest.raises(SystemExit) as info:
        main(["divisor", "-3"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv, error",
    [
        # int() alone read all six of these as numbers
        (["h0", "٣", "1", "1", "1"], "h0: error: argument a: invalid int value: '٣'"),
        (["divisor", "٣"], "divisor: error: argument n: invalid int value: '٣'"),
        (["divisor", "1_0"], "divisor: error: argument n: invalid int value: '1_0'"),
        (["divisor", "+3"], "divisor: error: argument n: invalid int value: '+3'"),
        (
            ["hilbert", "--max-degree", "٣"],
            "hilbert: error: argument --max-degree: invalid int value: '٣'",
        ),
        (
            ["verify", "--max-degree", "٦"],
            "verify: error: argument --max-degree: invalid int value: '٦'",
        ),
        # the texts of inputs refused before
        (["h0", "abc", "1", "1", "1"], "h0: error: argument a: invalid int value: 'abc'"),
        (["divisor", "abc"], "divisor: error: argument n: invalid int value: 'abc'"),
        (["divisor", "--", "-3"], "divisor: error: argument n: must be non-negative"),
        (["basis", "--ring", "B", "abc"], "basis: error: argument n: invalid int value: 'abc'"),
        (
            ["hilbert", "--max-degree", "abc"],
            "hilbert: error: argument --max-degree: invalid int value: 'abc'",
        ),
    ],
)
def test_integer_arguments_are_ascii_digits(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [f"dp3ring {error}"]


def test_h0_of_arbitrary_class(capsys):
    code, out, _ = run_cli(capsys, "h0", "4", "2", "1", "2")
    assert code == 0
    assert out == "8\n"


def test_h0_accepts_negative_coordinates(capsys):
    code, out, _ = run_cli(capsys, "h0", "--", "-1", "0", "0", "0")
    assert code == 0
    assert out == "0\n"


def test_h0_of_a_huge_class_is_counted_not_enumerated(capsys):
    # (a+1)(a+2)/2 sections for (a, 0, 0, 0): far too many monomials to
    # enumerate, but the count is a closed form
    code, out, _ = run_cli(capsys, "h0", "1000000", "0", "0", "0")
    assert code == 0
    assert out == "500001500001\n"


def test_h0_of_a_ten_million_class_is_closed_form(capsys):
    code, out, _ = run_cli(capsys, "h0", "10000000", "0", "0", "0")
    assert code == 0
    assert out == "50000015000001\n"


def test_basis_of_the_quadratic_piece(capsys):
    code, out, _ = run_cli(capsys, "basis", "--ring", "B", "2")
    assert code == 0
    assert out == "X*u, Z*t\n"


def test_basis_of_degree_zero(capsys):
    code, out, _ = run_cli(capsys, "basis", "--ring", "R", "0")
    assert code == 0
    assert out == "1\n"


def test_basis_of_degree_six_ordered_monomials(capsys):
    code, out, _ = run_cli(capsys, "basis", "--ring", "R", "6")
    assert code == 0
    assert out == "x^6, z*x^3, z^2, w*x^4, w*z*x, w^2*x^2, w^3\n"


def test_basis_requires_a_ring(capsys):
    with pytest.raises(SystemExit) as info:
        main(["basis", "2"])
    assert info.value.code == 2


def test_mul_in_the_rewriting_ring(capsys):
    code, out, _ = run_cli(capsys, "mul", "y", "x")
    assert code == 0
    # yx = (w + x^2)x in the ordered basis
    assert out == "w*x + x^3\n"


def test_mul_in_the_twisted_ring(capsys):
    code, out, _ = run_cli(capsys, "mul", "--ring", "B", "x", "x")
    assert code == 0
    assert out == "X*u\n"


def test_mul_twisted_squares_of_y(capsys):
    code, out, _ = run_cli(capsys, "mul", "--ring", "B", "y", "y")
    assert code == 0
    assert out == "X*Z*s*t\n"


def test_mul_twisted_rejects_inhomogeneous_input(capsys):
    code, _, err = run_cli(capsys, "mul", "--ring", "B", "x + y", "x")
    assert code == 2
    assert "homogeneous" in err


def test_hilbert_low_degrees(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--max-degree", "6")
    assert code == 0
    assert out == "1, 1, 2, 3, 4, 5, 7\n"


def test_hilbert_at_a_large_cap(capsys):
    # the basis is never built: degree 2000 alone has 334334 monomials
    code, out, _ = run_cli(capsys, "hilbert", "--max-degree", "2000")
    assert code == 0
    coeffs = [int(c) for c in out.split(", ")]
    # oracle: Taylor expansion of 1/((1-t)(1-t^2)(1-t^3)) by iterated
    # prefix sums, one per factor
    series = [1] + [0] * 2000
    for step in (1, 2, 3):
        for n in range(step, 2001):
            series[n] += series[n - step]
    assert coeffs == series
    assert coeffs[-1] == 334334


def test_hilbert_at_a_huge_cap():
    # a sum over the basis in every degree is quadratic in the cap and took
    # minutes at this size
    code, out, err = run_cli_process("hilbert", "--max-degree", "100000")
    assert (code, err) == (0, "")
    coeffs = out.split(", ")
    assert len(coeffs) == 100001
    assert coeffs[-1] == "833383334\n"


def test_verify_small_cap_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-degree", "6")
    assert code == 0
    assert "result: 17/17 checks passed" in out
    assert "not machine-checkable" in out


def test_verify_timings_give_every_check_an_elapsed_time(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-degree", "6", "--timings", "--format", "json")
    assert code == 0
    checks = json.loads(out)["result"]["checks"]
    assert len(checks) == 17
    assert all(entry["elapsed"] >= 0 for entry in checks)
    code, out, _ = run_cli(capsys, "verify", "--max-degree", "6", "--timings")
    assert code == 0
    timed = [line for line in out.splitlines() if line.startswith("  PASS")]
    assert len(timed) == 17
    assert all(re.search(r" \(\d+\.\d ms\)$", line) for line in timed)


def test_mul_ring_b_rejects_the_wzx_alphabet(capsys):
    # the twisted ring reads x,y expressions only; --alphabet used to be ignored
    code, out, err = run_cli(capsys, "mul", "--ring", "B", "--alphabet", "wzx", "x", "x")
    assert code == 2
    assert out == ""
    assert err == "error: --alphabet wzx applies to --ring R only\n"


def test_verify_rejects_small_max_degree(capsys):
    code, _, err = run_cli(capsys, "verify", "--max-degree", "3")
    assert code == 2
    assert "at least 6" in err


def test_verify_json_is_stable(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--max-degree", "6", "--format", "json")
    code2, out2, _ = run_cli(capsys, "verify", "--max-degree", "6", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["command"] == "verify"
    assert payload["inputs"] == {"max_degree": 6}
    assert payload["result"]["all_passed"] is True


def test_verify_exit_code_on_corrupted_build(capsys, monkeypatch):
    corrupted = ((2, -1, -1, -1), (1, -1, -1, 0), (1, 0, -1, -1), (1, -1, 0, 0))
    monkeypatch.setattr(picard, "ROTATION", corrupted)
    code, out, _ = run_cli(capsys, "verify", "--max-degree", "6")
    assert code == 1
    assert "FAIL" in out
    assert "witness" in out


def test_json_output_has_sorted_keys_everywhere(capsys):
    for argv in (
        ["nf", "x^5 - y*x*y", "--format", "json"],
        ["divisor", "6", "--format", "json"],
        ["h0", "3", "1", "1", "1", "--format", "json"],
        ["basis", "--ring", "B", "2", "--format", "json"],
        ["mul", "--ring", "B", "x", "x", "--format", "json"],
        ["hilbert", "--max-degree", "6", "--format", "json"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["command", "inputs", "result"]
        assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out


def test_json_results_match_text_results(capsys):
    _, text_out, _ = run_cli(capsys, "basis", "--ring", "B", "2")
    _, json_out, _ = run_cli(capsys, "basis", "--ring", "B", "2", "--format", "json")
    assert json.loads(json_out)["result"] == text_out.strip().split(", ")


def test_identical_invocations_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "divisor", "12")
    _, second, _ = run_cli(capsys, "divisor", "12")
    assert first == second


def test_verify_report_matches_golden_files(capsys):
    # the files hold the cap-12 and default cap-24 reports, text and json,
    # byte for byte
    for cap in ("12", "24"):
        for fmt in ("text", "json"):
            code, out, _ = run_cli(capsys, "verify", "--max-degree", cap, "--format", fmt)
            assert code == 0
            assert out == (DATA / f"verify_{cap}.{fmt}").read_text(), (cap, fmt)


def test_verify_reaches_cap_forty(capsys):
    # the word images are counted degree by degree, not word by word, so
    # cap 40 (Fib(40) = 165580141 words) finishes in about a second
    code, out, _ = run_cli(capsys, "verify", "--max-degree", "40")
    assert code == 0
    assert out.endswith("result: 17/17 checks passed\n")


# argv of every call pinned in data/cli.txt, the whole CLI apart from
# argparse's usage errors; the B side comes first, then each of
# _TEXT_AND_JSON_CASES as text and as json
_MUL_B_CASES = (
    ("x", "x"),
    ("y", "y"),
    ("1/2*x", "2/3*y"),
    ("-x", "x"),
    ("-3/4*y + x^2", "5*x"),
    ("x^5 - y*x*y", "x"),
    ("x^2 - y", "y*x"),
    ("zeta*x", "x"),
    ("x + y", "x"),
    ("0", "x"),
    ("x", "w"),
)
_TEXT_AND_JSON_CASES = (
    ["nf", "--", "x^5 - y*x*y"],
    ["nf", "--", "y^2 - x*y*x"],
    ["nf", "--", "1"],
    ["nf", "--", "0"],
    ["nf", "--", "y*x"],
    ["nf", "--", "(x + y)^3"],
    ["nf", "--", "1/2*x*y - zeta*y*x + 3"],
    ["nf", "--", "x^14*y"],
    ["nf", "--alphabet", "wzx", "--", "x*w"],
    ["nf", "--alphabet", "wzx", "--", "x*z"],
    ["nf", "--alphabet", "wzx", "--", "z*w"],
    ["nf", "--alphabet", "wzx", "--", "x*z*w"],
    ["nf", "--alphabet", "wzx", "--", "(w + x)^3 - 2/3*zeta*z"],
    ["mul", "--", "y", "x"],
    ["mul", "--ring", "R", "--", "x^2 - y", "y*x"],
    ["mul", "--ring", "R", "--", "zeta*x", "-1/2*y + x^3"],
    ["mul", "--ring", "R", "--", "x^5", "0"],
    ["mul", "--ring", "R", "--alphabet", "wzx", "--", "x", "w"],
    ["mul", "--ring", "R", "--alphabet", "wzx", "--", "z + w", "x*z - 1/3"],
    *(["basis", "--ring", "R", str(n)] for n in range(21)),
    ["hilbert"],
    *(["hilbert", "--max-degree", str(n)] for n in (0, 1, 6, 40)),
    ["h0", "4", "2", "1", "2"],
    ["h0", "--", "-1", "0", "0", "0"],
    ["h0", "--", "3", "-1", "0", "2"],
    ["h0", "--", "-5", "-2", "-2", "-2"],
    ["h0", "1" + "0" * 2200, "0", "0", "0"],
    ["h0", "--", "-1" + "0" * 2200, "0", "0", "0"],
    ["h0", "--", "1" + "0" * 2200, "1" + "0" * 2200, "1" + "0" * 2200, "1" + "0" * 2200],
    # parse errors
    ["nf", "--", "x +"],
    ["nf", "--", "1/0"],
    ["nf", "--", "x * w"],
    ["nf", "--", "٣*x"],
    ["nf", "--", "(" * 260 + "x" + ")" * 260],
    ["nf", "--", "x^500*x^501"],
    ["nf", "--", "2^100001"],
    ["nf", "--alphabet", "wzx", "--", "x*y"],
    ["mul", "--ring", "B", "--", "1/0", "x"],
    ["mul", "--ring", "B", "--", "x + y", "x"],
    ["mul", "--ring", "R", "--", "x", "x^²"],
    ["verify", "--max-degree", "3"],
    # results with an integer past 4,300 digits
    ["nf", "--", "2^100000"],
    ["mul", "--ring", "R", "--", "2^20000", "x"],
    ["mul", "--ring", "R", "--alphabet", "wzx", "--", "w", "3^10000"],
    # the twisted ring reads x,y expressions only
    ["mul", "--ring", "B", "--alphabet", "wzx", "--", "x", "x"],
)
CLI_ARGVS = (
    [["basis", "--ring", "B", str(n)] for n in range(31)]
    + [["basis", "--ring", "B", str(n), "--format", "json"] for n in range(31)]
    + [["divisor", str(n)] for n in range(61)]
    + [["mul", "--ring", "B", "--", lhs, rhs] for lhs, rhs in _MUL_B_CASES]
    + [["mul", "--ring", "B", "--format", "json", "--", lhs, rhs] for lhs, rhs in _MUL_B_CASES]
    + [["divisor", "--format", "json", str(n)] for n in range(13)]
    + [argv for case in _TEXT_AND_JSON_CASES for argv in (case, [case[0], "--format", "json", *case[1:]])]
)


def cli_transcript() -> str:
    """Exit code, stdout and stderr of every call in CLI_ARGVS."""
    blocks = []
    for argv in CLI_ARGVS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        blocks.append(
            f"$ dp3ring {shlex.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
        )
    return "".join(blocks)


def test_cli_output_matches_golden_file():
    # regenerate with `PYTHONPATH=src python tests/test_cli.py > tests/data/cli.txt`
    assert cli_transcript() == (DATA / "cli.txt").read_text()


def test_closed_stdout_gives_no_traceback():
    # like `dp3ring verify | true`: the reader is gone before the report is
    # written; exit code 1 would claim a failed verification
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dp3ring.cli", "verify", "--max-degree", "6"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr.decode()
    assert proc.returncode != 1


def test_readme_examples_match_cli_output(capsys):
    examples = re.findall(r"^dp3ring (.*?)#\s*-> (.*)$", (ROOT / "README.md").read_text(), re.M)
    assert len(examples) == 8
    for command, expected in examples:
        # a run of two or more spaces separates the output from a note
        expected = re.split(r"\s{2,}", expected.strip())[0]
        code, out, _ = run_cli(capsys, *shlex.split(command))
        assert code == 0, command
        assert out == expected + "\n", command


if __name__ == "__main__":
    sys.stdout.write(cli_transcript())
