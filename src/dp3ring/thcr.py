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
    render_monomial,
    rotate_exponents,
)
from .ncpoly import NcPoly, XY
from .picard import twist_divisor

# generator images: x -> X, y -> Z*t
_X_EXPS = (1, 0, 0, 0, 0, 0)
_Y_EXPS = (0, 0, 1, 0, 1, 0)
_LETTER_EXPS = {"x": _X_EXPS, "y": _Y_EXPS}
_LETTER_DEGREE = {"x": 1, "y": 2}

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
    """A degree-n element: rational coefficients on section monomials of
    one multidegree, a map from exponent vectors to nonzero Fractions."""

    n: int
    terms: dict[tuple[int, ...], Fraction]

    def __post_init__(self):
        clean = {mono: Fraction(coeff) for mono, coeff in self.terms.items() if coeff}
        object.__setattr__(self, "terms", clean)
        if self.n < 0:
            raise ValueError("section degree must be non-negative")
        target = twist_divisor(self.n)
        for mono in clean:
            if multidegree(mono) != target:
                raise ValueError(
                    f"monomial {render_monomial(mono)} breaks homogeneity: multidegree "
                    f"{multidegree(mono)} != {target}"
                )

    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        # canonical display order: lex on exponent vectors, largest first
        for mono in sorted(self.terms, reverse=True):
            coeff = self.terms[mono]
            body = render_monomial(mono)
            if coeff == 1:
                pieces.append(body)
            elif coeff == -1:
                pieces.append(f"-{body}")
            else:
                pieces.append(f"{coeff}*{body}")
        out = pieces[0]
        for piece in pieces[1:]:
            out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
        return out

    def __str__(self):
        return self.render()


def twisted_mul(a: GradedSection, b: GradedSection) -> GradedSection:
    """Product of a degree-m and a degree-n section: a times rot^m(b)."""
    right = [(rotate_exponents(mono, a.n), coeff) for mono, coeff in b.terms.items()]
    out: dict[tuple[int, ...], Fraction] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in right:
            prod = monomial_product(m1, m2)
            out[prod] = out.get(prod, 0) + c1 * c2
    return GradedSection(a.n + b.n, out)


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
        m += _LETTER_DEGREE[ch]
    return exps


def word_image_levels(max_degree: int):
    """Yield (word count, set of image exponent vectors) for every degree
    0..max_degree, in one pass.

    A degree-d word is a degree-(d-1) word followed by x, or a degree-(d-2)
    word followed by y, and that last letter's image is rotated by the
    degree of the prefix.  So each degree's images, with the number of
    words reaching each one, follow from the two degrees below; the word
    count is the sum of those multiplicities.  The cost is polynomial in
    the degree although there are Fib(n) words of degree n.
    """
    if max_degree < 0:
        raise ValueError("degree must be non-negative")
    below: dict[tuple[int, ...], int] = {}
    level = {UNIT: 1}
    yield 1, set(level)
    for d in range(1, max_degree + 1):
        step: dict[tuple[int, ...], int] = {}
        for prefixes, m, gen in ((level, d - 1, _X_EXPS), (below, d - 2, _Y_EXPS)):
            shifted = rotate_exponents(gen, m)
            for exps, words in prefixes.items():
                image = monomial_product(exps, shifted)
                step[image] = step.get(image, 0) + words
        below, level = level, step
        yield sum(level.values()), set(level)


def word_image_exponents(n: int) -> tuple[int, set[tuple[int, ...]]]:
    """(word count, set of image exponent vectors) over all degree-n words:
    the last level of `word_image_levels(n)`."""
    for count, images in word_image_levels(n):
        pass
    return count, images


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
    return GradedSection(degree, terms)


def _cover(n: int, k: int) -> set[tuple[int, ...]]:
    """Twisted products of the degree-k basis with rot^k of the
    degree-(n+2-k) basis: the part of degree n+2 reached from degree k."""
    rest = twist_basis(n + 2 - k).basis
    return {
        monomial_product(a, rotate_exponents(b, k))
        for a in twist_basis(k).basis
        for b in rest
    }


def degree_two_covers(n: int) -> bool:
    """True iff products of degree-2 basis monomials with rot^2 of the
    degree-n basis already cover the whole degree-(n+2) basis."""
    return set(twist_basis(n + 2).basis) <= _cover(n, 2)


def check_generation(n: int) -> bool:
    """True iff the degree-(n+2) basis is covered by twisted products with a
    degree-1 or degree-2 monomial on the left.

    The quadratic products alone suffice except in degree three, where the
    linear generator is also needed (x*y is not a product of degree-2 by
    degree-1 elements).
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    return set(twist_basis(n + 2).basis) <= _cover(n, 2) | _cover(n, 1)
