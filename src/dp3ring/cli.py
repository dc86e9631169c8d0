"""Command line interface: every computation as a scriptable subcommand.

Exit codes: 0 on success, 1 when verification finds a failing check, 2 on
usage or expression parse errors.  Output is deterministic; json output has
sorted keys and canonical monomial order.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from . import cox, ore, thcr, verify
from .ncpoly import ALPHABETS, ParseError, parse, render_word
from .picard import DivisorClass, K, chi, h0_formula, is_ample, twist_divisor


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _emit(args, command: str, inputs: dict, result, text: str) -> None:
    if args.format == "json":
        payload = {"command": command, "inputs": inputs, "result": result}
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def _reduce(poly, alphabet: str):
    """Normal form of a polynomial over the named alphabet."""
    return ore.xy_to_pbw(poly) if alphabet == "xy" else ore.normal_form(poly)


def _cmd_nf(args) -> int:
    poly = parse(args.expression, ALPHABETS[args.alphabet])
    rendered = _reduce(poly, args.alphabet).render()
    _emit(
        args,
        "nf",
        {"expression": args.expression, "alphabet": args.alphabet},
        rendered,
        rendered,
    )
    return 0


def _cmd_divisor(args) -> int:
    div = twist_divisor(args.n)
    euler = chi(div)
    closed = h0_formula(args.n)
    # the basis itself, so the closed form is checked against real monomials
    counted = cox.enumerate_sections(div).dimension
    ample = is_ample(div - K)
    h0_text = str(closed) if closed == counted else f"closed={closed} count={counted}"
    text = f"{div} chi={euler} h0={h0_text} ample(D-K)={'true' if ample else 'false'}"
    _emit(
        args,
        "divisor",
        {"n": args.n},
        {
            "class": str(div),
            "chi": euler,
            "h0_closed": closed,
            "h0_count": counted,
            "ample_minus_k": ample,
        },
        text,
    )
    return 0


def _cmd_h0(args) -> int:
    div = DivisorClass(args.a, args.b, args.c, args.d)
    count = cox.section_count(div)
    _emit(
        args,
        "h0",
        {"a": args.a, "b": args.b, "c": args.c, "d": args.d},
        count,
        str(count),
    )
    return 0


def _cmd_basis(args) -> int:
    if args.ring == "R":
        rendered = [render_word(word) for word in ore.pbw_basis(args.n)]
    else:
        rendered = [mono.render() for mono in thcr.twist_basis(args.n).basis]
    _emit(
        args,
        "basis",
        {"ring": args.ring, "n": args.n},
        rendered,
        ", ".join(rendered),
    )
    return 0


def _cmd_mul(args) -> int:
    inputs = {"ring": args.ring, "lhs": args.lhs, "rhs": args.rhs}
    if args.ring == "R":
        alphabet = ALPHABETS[args.alphabet]
        inputs["alphabet"] = args.alphabet
        product = parse(args.lhs, alphabet) * parse(args.rhs, alphabet)
        rendered = _reduce(product, args.alphabet).render()
    else:
        try:
            left = thcr.section_from_xy(parse(args.lhs, ALPHABETS["xy"]))
            right = thcr.section_from_xy(parse(args.rhs, ALPHABETS["xy"]))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        rendered = thcr.twisted_mul(left, right).render()
    _emit(args, "mul", inputs, rendered, rendered)
    return 0


def _cmd_hilbert(args) -> int:
    coeffs = ore.hilbert_coeffs(args.max_degree)
    _emit(
        args,
        "hilbert",
        {"max_degree": args.max_degree},
        coeffs,
        ", ".join(str(c) for c in coeffs),
    )
    return 0


def _cmd_verify(args) -> int:
    if args.max_degree < 6:
        print("error: --max-degree must be at least 6", file=sys.stderr)
        return 2
    report = verify.run_all(args.max_degree)
    if args.format == "json":
        _emit(
            args,
            "verify",
            {"max_degree": args.max_degree},
            report.to_dict(include_timing=args.timings),
            "",
        )
    else:
        print(report.to_text(include_timing=args.timings))
    return 0 if report.all_passed else 1


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
    p.add_argument("n", type=_nonneg)
    add_format(p)
    p.set_defaults(func=_cmd_divisor)

    p = sub.add_parser("h0", help="section count of an arbitrary class (a b c d)")
    for name in ("a", "b", "c", "d"):
        p.add_argument(name, type=int)
    add_format(p)
    p.set_defaults(func=_cmd_h0)

    p = sub.add_parser("basis", help="monomial basis of a graded piece")
    p.add_argument("--ring", choices=("R", "B"), required=True)
    p.add_argument("n", type=_nonneg)
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
    p.add_argument("--max-degree", type=_nonneg, default=24)
    add_format(p)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--max-degree", type=int, default=24)
    p.add_argument(
        "--timings", action="store_true", help="add each check's elapsed time"
    )
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
