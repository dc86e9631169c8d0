"""The Z^4-graded total coordinate ring C[X, Y, Z, s, t, u] of the
degree-six del Pezzo surface.

Each variable cuts out one of the six -1-curves and its multidegree is that
curve's divisor class; the graded piece in degree D is spanned by the
monomials of multidegree D, which this module enumerates directly.  The
cyclic rotation X -> u -> Y -> t -> Z -> s -> X of the variables realizes
the hexagon symmetry on sections and matches the lattice rotation on
multidegrees; `_ROT_IMAGE` states one step, and one table of its six powers
rotates both a variable and an exponent vector.

A monomial is its exponent 6-tuple in the variable order X, Y, Z, s, t, u;
tuples compare lexicographically, which is the canonical display order.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, itemgetter

from .cyclotomic import render_powers
from .picard import DivisorClass

VARIABLES = ("X", "Y", "Z", "s", "t", "u")

WEIGHT_TABLE = (
    DivisorClass(1, 1, 0, 1),   # X
    DivisorClass(1, 0, 1, 1),   # Y
    DivisorClass(1, 1, 1, 0),   # Z
    DivisorClass(0, -1, 0, 0),  # s
    DivisorClass(0, 0, -1, 0),  # t
    DivisorClass(0, 0, 0, -1),  # u
)

# one rotation step sends variable i to variable _ROT_IMAGE[i]
_ROT_IMAGE = (5, 4, 3, 0, 2, 1)

# _ROT_POWERS[m][i] = the image of variable i after m steps, m = 0..5
_ROT_POWERS = ((0, 1, 2, 3, 4, 5),)
while len(_ROT_POWERS) < 6:
    _ROT_POWERS += (tuple(_ROT_IMAGE[i] for i in _ROT_POWERS[-1]),)

# after m steps variable j holds the exponent of the variable sent to j
_ROT_GATHER = tuple(itemgetter(*sorted(range(6), key=p.__getitem__)) for p in _ROT_POWERS)

# the nine codimension-two coordinate subspaces removed before taking the
# torus quotient, as unordered variable pairs
IRRELEVANT_PAIRS = tuple(
    frozenset(pair)
    for pair in (
        ("X", "t"), ("Y", "s"), ("Z", "u"),
        ("X", "Y"), ("Y", "Z"), ("Z", "X"),
        ("s", "t"), ("u", "t"), ("s", "u"),
    )
)


def rotate_variable(name: str, times: int = 1) -> str:
    """Image of a variable under the cyclic rotation."""
    return VARIABLES[_ROT_POWERS[times % 6][VARIABLES.index(name)]]


def rotate_exponents(exps: tuple[int, ...], times: int = 1) -> tuple[int, ...]:
    """Image of a section monomial under `times` steps of the rotation."""
    return _ROT_GATHER[times % 6](exps)


def monomial_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two section monomials: the sum of their exponent vectors."""
    return tuple(map(add, a, b))


UNIT = (0, 0, 0, 0, 0, 0)


def multidegree(exps: tuple[int, ...]) -> DivisorClass:
    """Integer combination of the variable weights by the exponents."""
    a = b = c = d = 0
    for exp, (wa, wb, wc, wd) in zip(exps, WEIGHT_TABLE):
        if exp:
            a += exp * wa
            b += exp * wb
            c += exp * wc
            d += exp * wd
    return DivisorClass(a, b, c, d)


def render_monomial(exps: tuple[int, ...]) -> str:
    """Canonical rendering, e.g. "X^2*Y*s*u^2", or "1" for the unit."""
    return render_powers(zip(VARIABLES, exps))


def parse_monomial(text: str) -> tuple[int, ...]:
    """Parse the canonical rendering, e.g. "X^2*Y*s*u^2" or "1".

    An exponent is one or more ASCII digits; anything else after "^" is an
    error.  So is any text that `render_monomial` would not print for the
    parsed monomial (variables out of order or repeated, "^0", "^1",
    leading zeros), so exactly the canonical renderings parse.
    """
    if text == "1":
        return UNIT
    exps = [0] * 6
    for piece in text.split("*"):
        name, caret, power = piece.partition("^")
        if name not in VARIABLES:
            raise ValueError(f"unknown variable {name!r}")
        if caret and not (power.isascii() and power.isdigit()):
            raise ValueError(f"bad exponent {power!r} of {name}")
        exps[VARIABLES.index(name)] += int(power) if caret else 1
    mono = tuple(exps)
    canonical = render_monomial(mono)
    if canonical != text:
        raise ValueError(f"{text!r} is not the canonical rendering {canonical!r}")
    return mono


@dataclass(frozen=True)
class SectionSpace:
    """A divisor class together with the sorted monomial basis of its piece.

    The basis is strictly sorted in the canonical display order (lex on
    exponent vectors, largest first), so there are no duplicates.
    """

    degree: DivisorClass
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for prev, cur in zip(self.basis, self.basis[1:]):
            if not prev > cur:
                raise ValueError("basis must be strictly sorted")
        for mono in self.basis:
            if multidegree(mono) != self.degree:
                raise ValueError(
                    f"{render_monomial(mono)} does not have multidegree {self.degree}"
                )

    @property
    def dimension(self) -> int:
        return len(self.basis)


def enumerate_sections(div: DivisorClass) -> SectionSpace:
    """All monomials of multidegree (a, b, c, d), sorted lexicographically.

    The first coordinate forces i + j + k = a on the X, Y, Z exponents and
    the s, t, u exponents are then the slacks i+k-b, j+k-c, i+j-d, so the
    search space is the O(a^2) triangle; a monomial exists iff all three
    slacks are non-negative.
    """
    a, b, c, d = div.coords
    found = []
    for i in range(a + 1):
        for j in range(a - i + 1):
            k = a - i - j
            es = i + k - b
            et = j + k - c
            eu = i + j - d
            if es >= 0 and et >= 0 and eu >= 0:
                found.append((i, j, k, es, et, eu))
    found.sort(reverse=True)
    return SectionSpace(div, tuple(found))


def _clipped_series(lo: int, hi: int, alpha: int, slope: int) -> int:
    """Sum of max(0, alpha + slope*i) over the integers lo <= i <= hi, for
    slope -1, 0 or 1: an arithmetic series over the i where it is positive."""
    if slope > 0:
        lo = max(lo, 1 - alpha)
    elif slope < 0:
        hi = min(hi, alpha - 1)
    elif alpha <= 0:
        return 0
    if lo > hi:
        return 0
    return (hi - lo + 1) * (2 * alpha + slope * (lo + hi)) // 2


def section_count(div: DivisorClass) -> int:
    """Dimension of the graded piece in degree D, in closed form.

    With the slacks of `enumerate_sections`, t's exponent a-i-c is free of j,
    s's exponent a-j-b bounds j above and u's exponent i+j-d bounds it below,
    so for each admissible i the valid j form the interval
    max(0, d-i) <= j <= min(j_max, a-i).  Its length is linear in i between
    the breaks i = a - j_max and i = d, so the count is a sum of at most
    three clipped arithmetic series.
    """
    a, b, c, d = div
    j_max = min(a, a - b)
    i_max = min(a, a - c)
    if i_max < 0:
        return 0
    breaks = (a - j_max + 1, d + 1)
    cuts = sorted({0, i_max + 1} | {x for x in breaks if 0 < x <= i_max})
    count = 0
    for left, right in zip(cuts, cuts[1:]):
        # the upper end is j_max, then a - i; the lower end d - i, then 0
        top, top_slope = (j_max, 0) if left <= a - j_max else (a, -1)
        bottom, bottom_slope = (d, -1) if left <= d else (0, 0)
        count += _clipped_series(
            left, right - 1, top - bottom + 1, top_slope - bottom_slope
        )
    return count
