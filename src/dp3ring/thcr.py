"""Sections of the twisting line bundles with the rotation-twisted product.

The n-th graded piece is the space of Cox monomials of multidegree equal to
the n-th twist divisor.  Multiplication of a degree-m section a by a
degree-n section b is the ordinary Cox product of a with the m-fold
variable rotation of b.  Words in x (degree 1, image X) and y (degree 2,
image Z*t) evaluate into the ring left to right, and that evaluation
reproduces the whole low-degree dictionary below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cox import (
    UNIT,
    SectionSpace,
    enumerate_sections,
    monomial_product,
    multidegree,
    polygon_rows,
    render_monomial,
    rotate_exponents,
    rotated_class,
)
from .cyclotomic import render_sum
from .ncpoly import NcPoly, XY
from .picard import ZERO_CLASS, DivisorClass, twist_divisor

# generator images: x -> X, y -> Z*t
_X_EXPS = (1, 0, 0, 0, 0, 0)
_Y_EXPS = (0, 0, 1, 0, 1, 0)
_LETTER_EXPS = {"x": _X_EXPS, "y": _Y_EXPS}

# word = section-monomial dictionary in degrees 1..6; every entry is
# reproduced by word_image (tested) and pins the rotation direction
LOW_DEGREE_TABLE = (
    ("x", "X"),
    ("xx", "X*u"),
    ("y", "Z*t"),
    ("xxx", "X*Y*u"),
    ("yx", "Y*Z*t"),
    ("xy", "X*Z*s"),
    ("xxxx", "X*Y*t*u"),
    ("yxx", "Y*Z*t^2"),
    ("yy", "X*Z*s*t"),
    ("xxy", "X^2*s*u"),
    ("xxxxx", "X*Y*Z*t*u"),
    ("yxxx", "Y*Z^2*t^2"),
    ("yyx", "X*Z^2*s*t"),
    ("xyy", "X^2*Z*s*u"),
    ("xxxy", "X^2*Y*u^2"),
    ("xxxxxx", "X*Y*Z*s*t*u"),
    ("yxxxx", "Y*Z^2*s*t^2"),
    ("yyxx", "X*Z^2*s^2*t"),
    ("xyyx", "X^2*Z*s^2*u"),
    ("xxyy", "X^2*Y*s*u^2"),
    ("xxxxy", "X*Y^2*t*u^2"),
    ("yxxy", "Y^2*Z*t^2*u"),
)


@dataclass(frozen=True)
class GradedSection:
    """A degree-n element: nonzero rational coefficients on section
    monomials of multidegree twist_divisor(n).

    The constructor checks nothing.  Its two builders establish the
    invariant: `section_from_xy` takes only homogeneous rational input, and
    `twisted_mul` of homogeneous sections is homogeneous since
    D(m+n) = D(m) + rot^m D(n); each drops the zero coefficients it makes.
    """

    n: int
    terms: dict[tuple[int, ...], int | Fraction]

    def render(self) -> str:
        # canonical display order: lex on exponent vectors, largest first
        return render_sum(
            (self.terms[mono], render_monomial(mono))
            for mono in sorted(self.terms, reverse=True)
        )

    __str__ = render


def twisted_mul(a: GradedSection, b: GradedSection) -> GradedSection:
    """Product of a degree-m and a degree-n section: a times rot^m(b)."""
    right = [(rotate_exponents(mono, a.n), coeff) for mono, coeff in b.terms.items()]
    out: dict[tuple[int, ...], Fraction] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in right:
            prod = monomial_product(m1, m2)
            out[prod] = out.get(prod, 0) + c1 * c2
    return GradedSection(a.n + b.n, {m: c for m, c in out.items() if c})


def twist_basis(n: int) -> SectionSpace:
    """Monomial basis of the degree-n piece of the twisted ring."""
    return enumerate_sections(twist_divisor(n))


def word_image(word: str) -> tuple[int, ...]:
    """Evaluate an x,y-word left to right into a section monomial's
    exponent vector.

    The accumulated weighted degree m twists the next letter's image by
    rot^m; the result always has coefficient one since rotation introduces
    no scalars.
    """
    exps = UNIT
    m = 0
    for ch in word:
        try:
            gen = _LETTER_EXPS[ch]
        except KeyError:
            raise ValueError(f"words use only 'x' and 'y', got {ch!r}") from None
        exps = monomial_product(exps, rotate_exponents(gen, m))
        m += XY.weight(ch)
    return exps


def word_image_exponents(n: int) -> tuple[int, set[tuple[int, ...]]]:
    """(word count, set of image exponent vectors) over all degree-n words,
    each evaluated by `word_image`: a reference, exponential in n."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    below, words = [], [""]  # the words of degrees d - 1 and d
    for _ in range(n):
        below, words = words, [w + "x" for w in words] + [w + "y" for w in below]
    return len(words), {word_image(w) for w in words}


def section_from_xy(p: NcPoly) -> GradedSection:
    """Image of a homogeneous rational x,y-polynomial in the twisted ring."""
    if p.alphabet != XY:
        raise ValueError("expected a polynomial over the x,y alphabet")
    if p.is_zero:
        raise ValueError("cannot infer the degree of the zero polynomial")
    degree = p.homogeneous_degree()
    if degree is None:
        raise ValueError("polynomial is not homogeneous")
    terms = {}
    for word, coeff in p.terms.items():
        if not coeff.is_rational:
            raise ValueError("twisted-ring sections carry rational coefficients")
        image = word_image(word)
        terms[image] = terms.get(image, 0) + coeff.p
    return GradedSection(degree, {m: c for m, c in terms.items() if c})


def covers(target: DivisorClass, pieces) -> bool:
    """True iff the monomials of class `target` are exactly the products m*v,
    for each (class D, monomial v) in `pieces` and each monomial m of D: each
    D + deg v is `target`, and D's polygon rows, shifted by v's X and Y
    exponents, cover the target's rows."""
    shifted = []
    for div, v in pieces:
        if div + multidegree(v) != target:
            return False
        shifted += [(i + v[0], lo + v[1], hi + v[1]) for i, lo, hi in polygon_rows(div)]
    rows = list(polygon_rows(target))
    low = {i: lo for i, lo, _ in rows}  # each row's first j not yet covered
    for i, lo, hi in sorted(shifted):
        if i not in low or lo > low[i]:
            return False
        low[i] = max(low[i], hi + 1)
    return all(low[i] > hi for i, _, hi in rows)


def word_image_pieces(n: int, twists) -> list:
    """Pieces for `covers` whose products are the degree-n word images, if
    those of degrees n-1 and n-2 are the monomials of their twists: a word
    ends in x or y, rotated by the prefix's degree; the empty word's image
    is the unit, the monomial of class zero."""
    if n == 0:
        return [(ZERO_CLASS, UNIT)]
    letters = ((_X_EXPS, 1), (_Y_EXPS, 2))
    return [(twists[n - k], rotate_exponents(v, n - k)) for v, k in letters if k <= n]


def _twisted(left: DivisorClass, right: DivisorClass, k: int) -> list:
    """Pieces for `covers`: the products a*rot^k(b), a and b the monomials of
    classes `left` and `right`."""
    rotated = rotated_class(right, k)
    return [(rotated, a) for a in enumerate_sections(left).basis]


def degree_two_covers(quadratic, lower, target) -> bool:
    """True iff the twisted products of the monomials of class `quadratic`,
    D(2), with those of `lower`, D(n), are those of `target`, D(n+2)."""
    return covers(target, _twisted(quadratic, lower, 2))


def check_generation(linear, quadratic, lower, middle, target) -> bool:
    """True iff the monomials of class `target`, D(n+2), are the twisted
    products of those of `quadratic`, D(2), with those of `lower`, D(n), or
    of `linear`, D(1), with those of `middle`, D(n+1).

    The quadratic products alone suffice except in degree three, where the
    linear generator is also needed (x*y is not a product of degree-2 by
    degree-1 elements).
    """
    return covers(target, _twisted(quadratic, lower, 2) + _twisted(linear, middle, 1))
