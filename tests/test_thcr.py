"""The twisted product on sections and the word evaluation into it."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dp3ring.cox import (
    UNIT,
    enumerate_sections,
    monomial_product,
    multidegree,
    parse_monomial,
    polygon_rows,
    render_monomial,
    rotate_exponents,
)
from dp3ring.ncpoly import NcPoly, XY, parse
from dp3ring.picard import rotate_class_power, twist_divisor
from dp3ring.thcr import (
    GradedSection,
    check_generation,
    covers,
    degree_two_covers,
    section_from_xy,
    twist_basis,
    twisted_mul,
    word_image,
    word_image_exponents,
    word_image_pieces,
)


def section_of(word: str) -> GradedSection:
    return section_from_xy(parse(word, XY))


def test_degree_zero_constants_act_trivially():
    one = section_from_xy(parse("1", XY))
    b = section_of("x*y")
    assert twisted_mul(one, b) == b
    assert twisted_mul(b, one) == b


def test_twisted_product_depends_on_left_degree():
    xy_ = twisted_mul(section_of("x"), section_of("y"))
    yx = twisted_mul(section_of("y"), section_of("x"))
    assert xy_.terms != yx.terms
    assert xy_.terms == {parse_monomial("X*Z*s"): 1}
    assert yx.terms == {parse_monomial("Y*Z*t"): 1}


def test_word_image_of_powers_of_x():
    assert word_image("xxxxx") == parse_monomial("X*Y*Z*t*u")
    assert word_image("") == parse_monomial("1")
    assert word_image("x") == parse_monomial("X")


def test_word_image_equates_the_relations():
    assert word_image("xxxxx") == word_image("yxy")
    assert word_image("yy") == word_image("xyx")
    assert word_image("xxxxxx") == word_image("yyy")


def test_word_image_rejects_other_letters():
    with pytest.raises(ValueError):
        word_image("xz")


def words_of_degree(n: int) -> list[str]:
    """Every x,y-word of weighted degree n (x has degree 1, y degree 2)."""
    if n < 0:
        return []
    if n == 0:
        return [""]
    return [w + "x" for w in words_of_degree(n - 1)] + [
        w + "y" for w in words_of_degree(n - 2)
    ]


def test_word_image_exponents_rejects_negative_degree():
    with pytest.raises(ValueError):
        word_image_exponents(-1)


def _products(pieces):
    # oracle: every product m*v, m running over the listed basis of D
    return {
        monomial_product(m, v) for div, v in pieces for m in enumerate_sections(div).basis
    }


def test_covers_agrees_with_the_brute_force_images():
    twists = [twist_divisor(n) for n in range(19)]
    for n in range(19):
        target, pieces = twists[n], word_image_pieces(n, twists)
        basis = set(twist_basis(n).basis)
        assert _products(pieces) == word_image_exponents(n)[1] == basis, n
        assert covers(target, pieces), n
        # each last letter alone: covers says whether its words suffice
        for piece in pieces:
            assert covers(target, [piece]) == (_products([piece]) == basis), (n, piece)


def test_covers_checks_class_additivity():
    # the polygon of D + deg(Z) has the rows of D's, each one as long or
    # longer, so only the classes tell that its monomials are not D's
    target = twist_divisor(8)
    grown = target + multidegree(parse_monomial("Z"))
    rows = {i: (lo, hi) for i, lo, hi in polygon_rows(grown)}
    assert rows.keys() == {i for i, _, _ in polygon_rows(target)}
    assert all(rows[i][0] <= lo and hi <= rows[i][1] for i, lo, hi in polygon_rows(target))
    assert covers(target, [(target, UNIT)])
    assert not covers(target, [(grown, UNIT)])
    assert not covers(target, [])


def assert_builder_invariant(section: GradedSection):
    # GradedSection checks nothing; its builders must hand it nonzero
    # coefficients on monomials of multidegree twist_divisor(n)
    target = twist_divisor(section.n)
    for mono, coeff in section.terms.items():
        assert multidegree(mono) == target, render_monomial(mono)
        assert coeff != 0, render_monomial(mono)


# homogeneous rational x,y-polynomials of degree <= 6 with 1-3 terms, the
# shape of the benchmark's mul inputs
homogeneous_xy = st.integers(0, 6).flatmap(
    lambda n: st.dictionaries(
        st.sampled_from(words_of_degree(n)),
        # small values, so that terms with equal images can cancel
        st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 2)),
        min_size=1,
        max_size=3,
    )
).map(lambda terms: NcPoly(XY, terms))


# random coefficients seldom cancel: x^5 and y*x*y share an image, so this
# pins a cancellation in section_from_xy (the test below pins one in twisted_mul)
@example(p=parse("x^5 - y*x*y + x^3*y", XY), q=parse("x", XY))
@settings(max_examples=60, deadline=None)
@given(p=homogeneous_xy, q=homogeneous_xy)
def test_builders_keep_sections_homogeneous_and_nonzero(p, q):
    a, b = section_from_xy(p), section_from_xy(q)
    assert_builder_invariant(a)
    assert_builder_invariant(twisted_mul(a, b))


def test_twisted_mul_drops_cancelled_products():
    # two of the four products cancel; render_sum would hide their zeros
    product = twisted_mul(section_of("x^2 + y"), section_of("x^3 - x*y"))
    assert product.n == 5
    assert product.terms == {parse_monomial("X^2*Y*u^2"): -1, parse_monomial("Y*Z^2*t^2"): 1}
    assert_builder_invariant(product)


def test_section_from_xy_requires_homogeneous_input():
    with pytest.raises(ValueError, match="homogeneous"):
        section_from_xy(parse("x + y", XY))


def test_section_from_xy_requires_rational_coefficients():
    with pytest.raises(ValueError, match="rational"):
        section_from_xy(parse("zeta*x", XY))


def test_section_from_xy_rejects_zero():
    with pytest.raises(ValueError):
        section_from_xy(parse("0", XY))


def test_section_from_xy_collects_terms():
    section = section_from_xy(parse("x^5 - y*x*y", XY))
    assert section.n == 5
    assert section.terms == {}


def test_degree_additivity_of_twist_divisors():
    for m in range(8):
        for n in range(8):
            lhs = twist_divisor(m + n)
            rhs = twist_divisor(m) + rotate_class_power(twist_divisor(n), m)
            assert lhs == rhs


def _cover(left, right, k):
    # oracle: the twisted products of two listed bases, as a set of tuples
    return {monomial_product(a, rotate_exponents(b, k)) for a in left for b in right}


def test_generation_predicates_agree_with_the_tuple_set_oracle():
    twists = [twist_divisor(n) for n in range(41)]
    bases = [set(enumerate_sections(div).basis) for div in twists]
    for n in range(39):
        by_quadratic = _cover(bases[2], bases[n], 2)
        quadratic = bases[n + 2] <= by_quadratic
        both = bases[n + 2] <= by_quadratic | _cover(bases[1], bases[n + 1], 1)
        assert degree_two_covers(twists[2], twists[n], twists[n + 2]) == quadratic, n
        assert check_generation(twists[1], twists[2], *twists[n : n + 3]) == both, n
        # degree three is the one degree that needs the linear generator
        assert (quadratic, both) == (n != 1, True), n


def test_degree_two_sections_have_disjoint_zero_loci():
    # X*u and Z*t vanish on disjoint unions of -1-curves: all four cross
    # intersections of their variables' weights are zero, so the two
    # sections never vanish simultaneously
    from dp3ring.cox import VARIABLES, WEIGHT_TABLE
    from dp3ring.picard import intersect

    weight = {name: WEIGHT_TABLE[VARIABLES.index(name)] for name in VARIABLES}
    for left in ("X", "u"):
        for right in ("Z", "t"):
            assert intersect(weight[left], weight[right]) == 0


def sections(degree: int):
    basis = twist_basis(degree).basis
    coeffs = st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=len(basis),
        max_size=len(basis),
    )
    return coeffs.map(
        lambda cs: GradedSection(degree, {m: c for m, c in zip(basis, cs) if c})
    )


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(0, 3).flatmap(sections),
    b=st.integers(0, 3).flatmap(sections),
    c=st.integers(0, 3).flatmap(sections),
)
def test_twisted_product_is_associative(a, b, c):
    left = twisted_mul(twisted_mul(a, b), c)
    right = twisted_mul(a, twisted_mul(b, c))
    assert left.n == right.n
    assert left.terms == right.terms
