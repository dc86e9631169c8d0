"""Seeded input streams for the dp3ring benchmark, with an exact check per operation.

A workload is an endless stream of `Op`s: the argv of one `dp3ring` call and a
check of its exit code and standard output.  Streams are made in cycles of fixed
composition (operation kinds, degrees, size bins).  The seed picks the order of
each cycle and the inputs inside each stratum, so every run sees the same mix
however long it lasts.  A whole cycle is made before any of its operations runs.

Rewriting cost varies by a factor of a hundred between words of one degree, so
the xy words of each degree are drawn from a seeded shuffle of all of them and
reshuffled only when used up.  A run then covers most words of a degree rather
than a random handful, which is what keeps throughput steady from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import groupby
from typing import Callable, Iterator

from dp3ring.cox import multidegree, parse_monomial
from dp3ring.ncpoly import WZX, XY, parse
from dp3ring.ore import is_pbw_word
from dp3ring.picard import DivisorClass, K, chi, h0_formula, is_ample, twist_divisor
from dp3ring.thcr import section_from_xy

VERIFY_CHECKS = 17

# rewrite: operations per cycle, by kind and weighted degree.  Degrees 9 and 10
# take about two thirds of the time, because that exponential cost is what a
# rewriting speed-up has to move.
TWO_TERM_PER_CYCLE = {4: 6, 5: 6, 6: 6, 7: 6, 8: 6, 9: 4, 10: 1}
IDEAL_PER_CYCLE = {5: 4, 6: 4, 7: 4, 8: 4, 9: 2}
WZX_DEGREES = range(4, 13)
RELATIONS = (("x^5", "y*x*y", 5), ("y^2", "x*y*x", 4))

# sections: one operation per size bin and cycle, so the cost mix is fixed;
# the cheap mul calls are over half of each cycle, so the median latency
# falls among them
N_BINS = [(lo, lo + 14) for lo in range(1, 150, 15)]     # basis and divisor n in 1..150
H0_BINS = [(lo, lo + 24) for lo in range(1, 200, 25)]    # a in 1..200
MUL_PER_CYCLE = 30
MUL_DEGREES = range(1, 7)
MUL_MAX_TERMS = 3


@dataclass(frozen=True)
class Op:
    """One CLI call and the exact check of its (exit code, stdout).

    Expressions may start with "-", so they follow "--", as the CLI asks.
    """

    argv: tuple[str, ...]
    check: Callable[[int | None, str], bool]


# -- input makers ----------------------------------------------------------------


def xy_words(degree: int) -> list[str]:
    """Every word in x (weight 1) and y (weight 2) of the given weighted degree."""
    table = [[""], ["x"]]
    for d in range(2, degree + 1):
        table.append([w + "x" for w in table[d - 1]] + [w + "y" for w in table[d - 2]])
    return table[degree]


def word_expr(word: str) -> str:
    """A word as the CLI grammar writes it, e.g. "xxyx" -> "x^2*y*x"."""
    runs = [(ch, len(list(group))) for ch, group in groupby(word)]
    return "*".join(ch if n == 1 else f"{ch}^{n}" for ch, n in runs)


def poly_expr(terms: list[tuple[Fraction, str]]) -> str:
    """Sum of coefficient*word terms; a negative coefficient after the first
    term is written as a subtraction, which is what the grammar accepts."""
    out = ""
    for coeff, word in terms:
        body = f"{abs(coeff)}*{word_expr(word)}"
        if not out:
            out = body if coeff > 0 else f"-{body}"
        else:
            out += f" + {body}" if coeff > 0 else f" - {body}"
    return out


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


class _Deck:
    """Draws a fixed population in seeded order, reshuffling when it is used up."""

    def __init__(self, items: list, rng: random.Random):
        self._items = list(items)
        self._rng = rng
        self._left: list = []

    def draw(self):
        if not self._left:
            self._left = list(self._items)
            self._rng.shuffle(self._left)
        return self._left.pop()


def _ideal_elements(degree: int) -> list[str]:
    """Every u*(lhs - rhs)*v of the given degree, u and v words."""
    out = []
    for lhs, rhs, rel_degree in RELATIONS:
        rest = degree - rel_degree
        for du in range(rest + 1):
            for u in xy_words(du):
                for v in xy_words(rest - du):
                    parts = [word_expr(u)] if u else []
                    parts.append(f"({lhs} - {rhs})")
                    if v:
                        parts.append(word_expr(v))
                    out.append("*".join(parts))
    return out


def _wzx_word(rng: random.Random, degree: int) -> str:
    weights = {"w": 2, "z": 3, "x": 1}
    word = ""
    while degree:
        letter = rng.choice([ch for ch, wt in weights.items() if wt <= degree])
        word += letter
        degree -= weights[letter]
    return word


# -- exact checks ------------------------------------------------------------------


def check_verify(code, out: str) -> bool:
    return code == 0 and out.rstrip().endswith(
        f"result: {VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed"
    )


def check_zero(code, out: str) -> bool:
    return code == 0 and out == "0\n"


def check_ordered(code, out: str) -> bool:
    """The output re-parses over w, z, x into ordered monomials only."""
    if code != 0:
        return False
    try:
        poly = parse(out.strip(), WZX)
    except ValueError:  # ParseError and the other input errors of parse
        return False
    return all(is_pbw_word(word) for word in poly.terms)


def check_basis(n: int, code, out: str) -> bool:
    """h0_formula(n) monomials of the n-th twist divisor, strictly in the
    canonical order, hence distinct: exactly the basis."""
    if code != 0:
        return False
    try:
        monos = [parse_monomial(entry) for entry in out.strip().split(", ")]
    except ValueError:
        return False
    div = twist_divisor(n)
    return (
        len(monos) == h0_formula(n)
        and all(multidegree(m) == div for m in monos)
        and all(a > b for a, b in zip(monos, monos[1:]))
    )


def check_h0(div: DivisorClass, code, out: str) -> bool:
    # the generator only makes classes that pass the vanishing criterion, where
    # h0 = chi by Riemann-Roch
    return code == 0 and out.strip() == str(chi(div))


def check_divisor(n: int, code, out: str) -> bool:
    div = twist_divisor(n)
    ample = "true" if is_ample(div - K) else "false"
    expected = f"{div} chi={chi(div)} h0={h0_formula(n)} ample(D-K)={ample}"
    return code == 0 and out.strip() == expected


def check_mul(lhs: str, rhs: str, code, out: str) -> bool:
    expected = section_from_xy(parse(lhs, XY) * parse(rhs, XY)).render()
    return code == 0 and out.strip() == expected


# -- workloads --------------------------------------------------------------------


def _verify_cycles(rng: random.Random) -> Iterator[list[Op]]:
    while True:
        yield [Op(("verify",), check_verify)]


def _rewrite_cycles(rng: random.Random) -> Iterator[list[Op]]:
    words = {d: _Deck(xy_words(d), rng) for d in TWO_TERM_PER_CYCLE}
    ideals = {d: _Deck(_ideal_elements(d), rng) for d in IDEAL_PER_CYCLE}
    while True:
        ops = []
        for degree, count in TWO_TERM_PER_CYCLE.items():
            for _ in range(count):
                first = second = words[degree].draw()
                while second == first:
                    second = words[degree].draw()
                expr = poly_expr([(_coeff(rng), first), (_coeff(rng), second)])
                ops.append(Op(("nf", "--", expr), check_ordered))
        for degree, count in IDEAL_PER_CYCLE.items():
            ops += [Op(("nf", "--", ideals[degree].draw()), check_zero) for _ in range(count)]
        for degree in WZX_DEGREES:
            expr = word_expr(_wzx_word(rng, degree))
            ops.append(Op(("nf", "--alphabet", "wzx", "--", expr), check_ordered))
        yield ops


def _section_expr(rng: random.Random) -> str:
    words = xy_words(rng.choice(MUL_DEGREES))
    chosen = rng.sample(words, rng.randint(1, min(MUL_MAX_TERMS, len(words))))
    return poly_expr([(_coeff(rng), word) for word in chosen])


def _sections_cycles(rng: random.Random) -> Iterator[list[Op]]:
    while True:
        ops = []
        for bounds in N_BINS:
            n = rng.randint(*bounds)
            ops.append(Op(("basis", "--ring", "B", str(n)), partial(check_basis, n)))
        for bounds in N_BINS:
            n = rng.randint(*bounds)
            ops.append(Op(("divisor", str(n)), partial(check_divisor, n)))
        for bounds in H0_BINS:
            a = rng.randint(*bounds)
            # a/5 <= b, c, d <= a/3 keeps every class inside the vanishing
            # criterion and its section count, hence the cost, between about
            # a^2/3 and a^2/2
            div = DivisorClass(a, *(rng.randint(a // 5, a // 3) for _ in range(3)))
            argv = ("h0", *(str(x) for x in div.coords))
            ops.append(Op(argv, partial(check_h0, div)))
        for _ in range(MUL_PER_CYCLE):
            lhs, rhs = _section_expr(rng), _section_expr(rng)
            argv = ("mul", "--ring", "B", "--", lhs, rhs)
            ops.append(Op(argv, partial(check_mul, lhs, rhs)))
        yield ops


CYCLES = {
    "verify": _verify_cycles,
    "rewrite": _rewrite_cycles,
    "sections": _sections_cycles,
}


def stream(workload: str, seed: int) -> Iterator[Op]:
    """Endless seeded stream of operations; the same seed gives the same stream."""
    rng = random.Random(seed)
    for ops in CYCLES[workload](rng):
        rng.shuffle(ops)
        yield from ops
