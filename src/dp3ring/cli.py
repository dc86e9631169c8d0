"""Command line interface: every computation as a scriptable subcommand.

Exit codes: 0 on success, 1 when verification finds a failing check, 2 on
usage or expression parse errors and when memory runs out.  Output is
deterministic; json output has sorted keys and canonical monomial order.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys

from . import cox, ore, thcr, verify
from .ncpoly import ALPHABETS, MAX_WORD_LENGTH, bound_product, parse, render_word
from .picard import DivisorClass, K, chi, h0_formula, is_ample, twist_divisor


def _int(text: str) -> int:
    """An integer argument: ASCII digits, "-" first where negatives are
    allowed (int() alone also takes "٣", "1_0", "+3" and spaces)."""
    try:
        if re.fullmatch("-?[0-9]+", text):
            return int(text)
    except ValueError:  # past Python's 4,300-digit limit
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _nonneg(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _at_most(bound: int, parse=_nonneg):
    """An argument type: `parse`, refusing values past `bound`.  A degree of
    `basis` or `divisor` is at most MAX_WORD_LENGTH: a degree-n element is a
    sum of words of up to n letters, and the parser refuses longer words."""

    def bounded(text: str) -> int:
        if (value := parse(text)) > bound:
            raise argparse.ArgumentTypeError(f"must be at most {bound}")
        return value

    return bounded


def _reduce(poly, alphabet: str):
    """Normal form of a polynomial over the named alphabet."""
    return ore.xy_to_pbw(poly) if alphabet == "xy" else ore.normal_form(poly)


# what a subcommand returns to `main`: (inputs, result, text, exit code)
_Answer = tuple[dict, object, str, int]


def _cmd_nf(args) -> _Answer:
    poly = parse(args.expression, ALPHABETS[args.alphabet])
    rendered = _reduce(poly, args.alphabet).render()
    return {"expression": args.expression, "alphabet": args.alphabet}, rendered, rendered, 0


def _cmd_divisor(args) -> _Answer:
    div = twist_divisor(args.n)
    euler = chi(div)
    closed = h0_formula(args.n)
    # the basis itself, so the closed form is checked against real monomials
    counted = cox.enumerate_sections(div).dimension
    ample = is_ample(div - K)
    h0_text = str(closed) if closed == counted else f"closed={closed} count={counted}"
    result = {
        "class": str(div),
        "chi": euler,
        "h0_closed": closed,
        "h0_count": counted,
        "ample_minus_k": ample,
    }
    text = f"{div} chi={euler} h0={h0_text} ample(D-K)={'true' if ample else 'false'}"
    return {"n": args.n}, result, text, 0


def _cmd_h0(args) -> _Answer:
    count = cox.section_count(DivisorClass(args.a, args.b, args.c, args.d))
    return {"a": args.a, "b": args.b, "c": args.c, "d": args.d}, count, str(count), 0


def _cmd_basis(args) -> _Answer:
    if args.ring == "R":
        rendered = [render_word(word) for word in ore.pbw_basis(args.n)]
    else:
        rendered = [cox.render_monomial(m) for m in thcr.twist_basis(args.n).basis]
    return {"ring": args.ring, "n": args.n}, rendered, ", ".join(rendered), 0


def _cmd_mul(args) -> _Answer:
    inputs = {"ring": args.ring, "lhs": args.lhs, "rhs": args.rhs}
    if args.ring == "R":
        alphabet = ALPHABETS[args.alphabet]
        inputs["alphabet"] = args.alphabet
        left, right = parse(args.lhs, alphabet), parse(args.rhs, alphabet)
        # the product starts where the right operand does
        bound_product(left, right, 0)
        rendered = _reduce(left * right, args.alphabet).render()
    elif args.alphabet != "xy":
        raise ValueError("--alphabet wzx applies to --ring R only")
    else:
        left = thcr.section_from_xy(parse(args.lhs, ALPHABETS["xy"]))
        right = thcr.section_from_xy(parse(args.rhs, ALPHABETS["xy"]))
        rendered = thcr.twisted_mul(left, right).render()
    return inputs, rendered, rendered, 0


def _cmd_hilbert(args) -> _Answer:
    coeffs = ore.hilbert_coeffs(args.max_degree)
    return {"max_degree": args.max_degree}, coeffs, ", ".join(str(c) for c in coeffs), 0


def _cmd_verify(args) -> _Answer:
    report = verify.run_all(args.max_degree)
    return (
        {"max_degree": args.max_degree},
        report.to_dict(include_timing=args.timings),
        report.to_text(include_timing=args.timings),
        0 if report.all_passed else 1,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dp3ring",
        description=(
            "exact computations in the graded ring with x^5 = yxy, y^2 = xyx "
            "and in the twisted section ring of the degree-six del Pezzo surface"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("nf", help="normal form of an expression")
    p.add_argument("expression")
    p.add_argument("--alphabet", choices=("xy", "wzx"), default="xy")
    add_format(p)
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("divisor", help="summary of the n-th twist divisor")
    p.add_argument("n", type=_at_most(MAX_WORD_LENGTH))
    add_format(p)
    p.set_defaults(func=_cmd_divisor)

    p = sub.add_parser("h0", help="section count of an arbitrary class (a b c d)")
    for name in ("a", "b", "c", "d"):
        p.add_argument(name, type=_int)
    add_format(p)
    p.set_defaults(func=_cmd_h0)

    p = sub.add_parser("basis", help="monomial basis of a graded piece")
    p.add_argument("--ring", choices=("R", "B"), required=True)
    p.add_argument("n", type=_at_most(MAX_WORD_LENGTH))
    add_format(p)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("mul", help="product of two expressions in a chosen ring")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--ring", choices=("R", "B"), default="R")
    p.add_argument("--alphabet", choices=("xy", "wzx"), default="xy")
    add_format(p)
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("hilbert", help="graded dimensions up to a degree cap")
    # measured cold at the bound: 0.5 s and 136 MB
    p.add_argument("--max-degree", type=_at_most(1_000_000), default=24)
    add_format(p)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("verify", help="run the full verification suite")
    # measured cold at the bound: about 20 s and 71 MB, mostly for `dims`
    p.add_argument("--max-degree", type=_at_most(1000, _int), default=24)
    p.add_argument(
        "--timings", action="store_true", help="add each check's elapsed time"
    )
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and print its answer once: the text, or with
    `--format json` one object {command, inputs, result} with sorted keys.
    A ValueError, a ParseError among them, is a usage error: bad input, or a
    result integer past Python's 4,300-digit limit on int-to-string
    conversion.  A MemoryError is one error line and exit 2 too, not a
    traceback and the exit 1 of a failed verification."""
    args = build_parser().parse_args(argv)
    try:
        inputs, result, text, code = args.func(args)
        if args.format == "json":
            payload = {"command": args.command, "inputs": inputs, "result": result}
            text = json.dumps(payload, sort_keys=True, indent=2)
        print(text)
        return code
    except ValueError as exc:
        message = str(exc)
        if "integer string conversion" in message:
            # Python's own text advises a call that no command line can make
            limit = sys.get_int_max_str_digits()
            message = f"a result integer has over {limit} digits, too many to print"
        print(f"error: {message}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def run() -> None:
    """Console entry point.  A reader that closes stdout early ends the
    process by SIGPIPE, as with other filters, not with a traceback and the
    exit code of a failed verification.  `main` leaves signals alone."""
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    run()
