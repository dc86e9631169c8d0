"""Command line behaviour: the golden transcript, exit codes, input limits."""

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

import dp3ring.cox as cox
import dp3ring.ore as ore
import dp3ring.picard as picard
import dp3ring.thcr as thcr
import dp3ring.verify as verify
from dp3ring.cli import build_parser, main
from dp3ring.ncpoly import MAX_SCALAR_EXPONENT, MAX_WORD_LENGTH, WZX, NcPoly

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        # past MAX_TERMS: all but the last would build 2^32 or more terms
        ["nf", "--", "(x+y)^40"],
        ["mul", "--ring", "B", "--", "(x+y)^40", "x"],
        ["nf", "--", "(x+y)^16*(x+y)^16"],
        ["mul", "--ring", "R", "--", "(x+y)^16", "(x+y)^16"],
        ["mul", "--ring", "R", "--", "(x+y)^7", "(x+y)^8"],
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
        # the product `mul --ring R` forms starts where its right operand does
        (["mul", "--ring", "R", "--", "x^1000", "x^1000"], 0),
        (["mul", "--ring", "R", "--alphabet", "wzx", "--", "x^1000", "x^1000"], 0),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"limit of {MAX_WORD_LENGTH} (position {pos})" in err


def test_out_of_memory_exits_2(capsys, monkeypatch):
    # exit 1 would claim a failed verification
    def exhausted(poly):
        raise MemoryError

    monkeypatch.setattr(ore, "xy_to_pbw", exhausted)
    assert run_cli(capsys, "nf", "x") == (2, "", "error: out of memory\n")


def child_env() -> dict:
    """The environment of a child `python -m dp3ring.cli`: this checkout's
    src/ first on its import path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_cli_process(*argv, timeout=20):
    """(exit code, stdout, stderr) of `dp3ring` in a child process, which a
    hang cannot outlast."""
    proc = subprocess.run(
        [sys.executable, "-m", "dp3ring.cli", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
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
    # rewriting every path of a word separately took about 40 minutes on
    # x^14*y, rewriting in rounds about 30 s on y^12, and rewriting each
    # reachable word once never finished y^500 or x^998*y, words that pass
    # every parser bound; multiplied out in the ordered basis, each takes
    # well under a second
    for expression, expected in (
        ("x^14*y", "-w^2*x^12 - zeta*w*x^14 + z*x^13 + x^16\n"),
        ("y^12", "x^24\n"),
        ("y^500", "(1 - zeta)*w*x^998 + z*x^997 + x^1000\n"),
        ("x^998*y", "-w^2*x^996 - zeta*w*x^998 + z*x^997 + x^1000\n"),
    ):
        assert run_cli_process("nf", "--", expression) == (0, expected, ""), expression


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
        # a degree-n element is a sum of words of up to n letters, and the
        # parser refuses words of more than MAX_WORD_LENGTH = 1000
        (["divisor", "1001"], "divisor: error: argument n: must be at most 1000"),
        (["basis", "--ring", "R", "1001"], "basis: error: argument n: must be at most 1000"),
        (["basis", "--ring", "B", "1001"], "basis: error: argument n: must be at most 1000"),
        # caps past the measured bounds of run time and memory
        (
            ["verify", "--max-degree", "1001"],
            "verify: error: argument --max-degree: must be at most 1000",
        ),
        (
            ["hilbert", "--max-degree", "1000001"],
            "hilbert: error: argument --max-degree: must be at most 1000000",
        ),
    ],
)
def test_integer_arguments_are_ascii_digits(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [f"dp3ring {error}"]


def test_caps_at_their_bounds_parse():
    # parsing only, which allocates nothing: a run at these caps takes
    # seconds and tens of MB
    parser = build_parser()
    assert parser.parse_args(["verify", "--max-degree", "1000"]).max_degree == 1000
    assert parser.parse_args(["hilbert", "--max-degree", "1000000"]).max_degree == 1000000
    # a negative cap reaches run_all, whose error says what the floor is
    assert parser.parse_args(["verify", "--max-degree", "-3"]).max_degree == -3


def test_basis_requires_a_ring(capsys):
    with pytest.raises(SystemExit) as info:
        main(["basis", "2"])
    assert info.value.code == 2


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
    _rotation(monkeypatch)
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
    ["nf", "--", "x^500*x^500"],
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
    # counted in closed form: far too many monomials to enumerate
    ["h0", "1000000", "0", "0", "0"],
    ["h0", "10000000", "0", "0", "0"],
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
    ["mul", "--ring", "R", "--", "x^1000", "x^1000"],
    ["mul", "--ring", "R", "--alphabet", "wzx", "--", "x^1000", "x^1000"],
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
    # the passing reports
    *(["verify", "--max-degree", str(cap)] for cap in (6, 12, 24, 40, 120)),
)


def _rotation(mp):
    # the last row of the hexagon rotation with its final entry off by one
    mp.setattr(picard, "ROTATION", ((2, -1, -1, -1), (1, -1, -1, 0), (1, 0, -1, -1), (1, -1, 0, 0)))


def _dictionary_and_first_twist(mp):
    bad_entry = (("yxxy", "Y^2*Z*t*u"),)
    mp.setattr(thcr, "LOW_DEGREE_TABLE", thcr.LOW_DEGREE_TABLE[:-1] + bad_entry)
    mp.setattr(picard, "FIRST_TWIST", picard.DivisorClass(1, 0, 1, 1))


def _counts(mp):
    hilbert, sections = ore.hilbert_coeffs, cox.section_count
    mp.setattr(ore, "hilbert_coeffs", lambda cap: [c + (n >= 10) for n, c in enumerate(hilbert(cap))])
    mp.setattr(cox, "section_count", lambda div: sections(div) + (div.a >= 6))


def _normal_form(mp):
    real = ore.xy_to_pbw
    mp.setattr(ore, "xy_to_pbw", lambda p: real(p) + NcPoly(WZX, {"xw": 1}))


def _vanishing_criterion(mp):
    real = verify.vanishing_criterion
    mp.setattr(verify, "vanishing_criterion", lambda div: real(div) and div[0] < 4)


# faults injected into `verify`; every check fails under at least one
FAULTS = (
    _rotation,
    _dictionary_and_first_twist,
    _counts,
    _normal_form,
    _vanishing_criterion,
)

# (argv, fault) of every call pinned in data/cli.txt: the whole CLI apart
# from argparse's usage errors, the B side first, then each of
# _TEXT_AND_JSON_CASES as text and as json, then `verify` under each fault
CLI_CASES = [
    (argv, None)
    for argv in (
        [["basis", "--ring", "B", str(n)] for n in range(31)]
        + [["basis", "--ring", "B", str(n), "--format", "json"] for n in range(31)]
        + [["divisor", str(n)] for n in (*range(61), 1000)]
        + [["mul", "--ring", "B", "--", lhs, rhs] for lhs, rhs in _MUL_B_CASES]
        + [["mul", "--ring", "B", "--format", "json", "--", lhs, rhs] for lhs, rhs in _MUL_B_CASES]
        + [["divisor", "--format", "json", str(n)] for n in range(13)]
        + [argv for case in _TEXT_AND_JSON_CASES for argv in (case, [case[0], "--format", "json", *case[1:]])]
    )
] + [
    (["verify", "--max-degree", "12", "--format", fmt], fault)
    for fault in FAULTS
    for fmt in ("text", "json")
]


def cli_transcript() -> str:
    """Exit code, stdout and stderr of every call in CLI_CASES, run under
    its fault if it has one."""
    blocks = []
    for argv, fault in CLI_CASES:
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            if fault:
                fault(mp)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        note = f"  # fault: {fault.__name__[1:]}" if fault else ""
        blocks.append(
            f"$ dp3ring {shlex.join(argv)}{note}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
        )
    return "".join(blocks)


def test_cli_output_matches_golden_file():
    # regenerate with `PYTHONPATH=src python tests/test_cli.py > tests/data/cli.txt`
    transcript = cli_transcript()
    assert transcript == (DATA / "cli.txt").read_text()
    # each check that passes in the reports fails under some fault
    passed, failed = set(), set()
    for block in re.split(r"^(?=\$ dp3ring )", transcript, flags=re.M):
        if "  # fault: " in block.partition("\n")[0]:
            failed.update(re.findall(r"^  FAIL (\w+):", block, re.M))
        else:
            passed.update(re.findall(r"^  PASS (\w+):", block, re.M))
    assert failed == passed
    assert len(passed) == 17


def test_closed_stdout_gives_no_traceback():
    # like `dp3ring verify | true`: the reader is gone before the report is
    # written; exit code 1 would claim a failed verification
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dp3ring.cli", "verify", "--max-degree", "6"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=child_env(),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr.decode()
    assert proc.returncode != 1


def test_cold_start_imports_only_the_rewriting_layers():
    # every command-line call pays for what `dp3ring.cli` imports; the B-side
    # commands and `verify` import their layers when they run
    script = (
        "import sys; base = set(sys.modules); import dp3ring.cli; "
        "print(*sorted(set(sys.modules) - base)); import dp3ring.verify; "
        "print(*sorted(set(sys.modules) - base))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
        check=True,
    )
    cli_adds, verify_adds = (set(line.split()) for line in proc.stdout.splitlines())
    assert {name for name in cli_adds if name.startswith("dp3ring")} == {
        "dp3ring",
        "dp3ring.cli",
        "dp3ring.cyclotomic",
        "dp3ring.ncpoly",
        "dp3ring.ore",
    }
    assert not cli_adds & {"dataclasses", "inspect", "json"}
    assert "dp3ring.verify" in verify_adds and "dataclasses" not in verify_adds


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
