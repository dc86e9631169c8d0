"""The Z^4-graded total coordinate ring C[X, Y, Z, s, t, u] of the
degree-six del Pezzo surface.

Each variable cuts out one of the six -1-curves and its multidegree is that
curve's divisor class; the graded piece in degree D is spanned by the
monomials of multidegree D.  For D = (a, b, c, d) a monomial is fixed by its
X and Y exponents i, j: those of Z, s, t, u are then a - i - j, a - j - b,
a - i - c and i + j - d.  So the monomials are the lattice points of one
polygon, the box 0 <= i <= a - c, 0 <= j <= a - b cut by the strip
d <= i + j <= a (Cox-Little-Schenck, Toric Varieties, Prop. 4.3.3), whose
rows `polygon_rows` states and `section_count` counts.  The cyclic rotation
X -> u -> Y -> t -> Z -> s -> X of the variables realizes the hexagon
symmetry on sections and matches the lattice rotation on multidegrees;
`_ROT_IMAGE` states one step, and one table of its six powers rotates a
variable, an exponent vector and, through `rotated_class`, a class.

A monomial is its exponent 6-tuple in the variable order X, Y, Z, s, t, u;
tuples compare lexicographically, which is the canonical display order.
"""

from __future__ import annotations

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


def rotated_class(div: DivisorClass, times: int = 1) -> DivisorClass:
    """The class into which `times` rotation steps carry the monomials of
    `div`, read off the first one (off the chart point i = j = 0 if there is
    none; multidegree is linear).  This assumes the rotation carries a whole
    class into one class, which `check_hexagon` checks variable by variable."""
    a, b, c, d = div
    i, _, j = next(polygon_rows(div), (0, 0, 0))
    return multidegree(rotate_exponents((i, j, a - i - j, a - j - b, a - i - c, i + j - d), times))


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


class SectionSpace:
    """The monomial basis of one graded piece, in canonical display order
    (lex on exponent vectors, largest first) as `enumerate_sections`
    builds it."""

    __slots__ = ("basis",)

    def __init__(self, basis: tuple[tuple[int, ...], ...]):
        self.basis = basis

    @property
    def dimension(self) -> int:
        return len(self.basis)


def polygon_rows(div: DivisorClass):
    """The nonempty rows (i, low, high) of the polygon of `div`, i descending:
    its points with X exponent i have Y exponents low..high."""
    a, b, c, d = div
    for i in range(min(a, a - c), -1, -1):
        low = d - i if i < d else 0
        high = a - i if i > b else a - b
        if low <= high:
            yield i, low, high


def enumerate_sections(div: DivisorClass) -> SectionSpace:
    """All monomials of multidegree `div`, one per lattice point (i, j) of its
    polygon; i, then j, descending gives canonical order, strictly descending."""
    a, b, c, d = div
    found = []
    for i, low, high in polygon_rows(div):
        for j in range(high, low - 1, -1):
            found.append((i, j, a - i - j, a - j - b, a - i - c, i + j - d))
    return SectionSpace(tuple(found))


def _triangle(n: int) -> int:
    """Number of lattice points i, j >= 0 with i + j <= n."""
    return (n + 1) * (n + 2) // 2 if n >= 0 else 0


def section_count(div: DivisorClass) -> int:
    """Dimension of the graded piece in degree `div`: the lattice points of
    its polygon, by inclusion-exclusion over triangles."""
    a, b, c, d = div
    i_max, j_max = a - c, a - b
    if i_max < 0 or j_max < 0:
        return 0

    def below(s: int) -> int:
        # points of the box with i + j <= s
        return (
            _triangle(s)
            - _triangle(s - i_max - 1)
            - _triangle(s - j_max - 1)
            + _triangle(s - i_max - j_max - 2)
        )

    return max(0, below(a) - below(d - 1))
