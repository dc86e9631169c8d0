"""The twisted product on sections and the word evaluation into it."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from dp3ring.cox import parse_monomial, render_monomial
from dp3ring.ncpoly import XY, parse
from dp3ring.picard import rotate_class_power, twist_divisor
from dp3ring.thcr import (
    GradedSection,
    LOW_DEGREE_TABLE,
    check_generation,
    degree_two_covers,
    section_from_xy,
    twist_basis,
    twisted_mul,
    word_image,
    word_image_exponents,
    word_image_levels,
)


def section_of(word: str) -> GradedSection:
    return section_from_xy(parse(word, XY))


def test_x_times_x():
    product = twisted_mul(section_of("x"), section_of("x"))
    assert product.n == 2
    assert product.terms == {parse_monomial("X*u"): 1}


def test_y_times_y():
    product = twisted_mul(section_of("y"), section_of("y"))
    assert product.n == 4
    assert product.terms == {parse_monomial("X*Z*s*t"): 1}


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


def test_basis_of_low_degrees():
    assert [render_monomial(m) for m in twist_basis(0).basis] == ["1"]
    assert [render_monomial(m) for m in twist_basis(1).basis] == ["X"]
    assert {render_monomial(m) for m in twist_basis(5).basis} == {
        "X*Y*Z*t*u",
        "Y*Z^2*t^2",
        "X*Z^2*s*t",
        "X^2*Z*s*u",
        "X^2*Y*u^2",
    }


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


def test_low_degree_dictionary_reproduces():
    assert len(LOW_DEGREE_TABLE) == 22
    for word, expected in LOW_DEGREE_TABLE:
        assert word_image(word) == parse_monomial(expected), word


def words_of_degree(n: int) -> list[str]:
    """Every x,y-word of weighted degree n (x has degree 1, y degree 2)."""
    if n < 0:
        return []
    if n == 0:
        return [""]
    return [w + "x" for w in words_of_degree(n - 1)] + [
        w + "y" for w in words_of_degree(n - 2)
    ]


def test_word_image_exponents_matches_the_word_walk():
    # brute-force oracle: evaluate every word of the degree one by one
    for n in range(19):
        words = words_of_degree(n)
        oracle = (len(words), {word_image(w) for w in words})
        assert word_image_exponents(n) == oracle, n


def test_word_image_exponents_rejects_negative_degree():
    with pytest.raises(ValueError):
        word_image_exponents(-1)
    with pytest.raises(ValueError):
        next(word_image_levels(-1))


def test_word_image_levels_match_each_degree():
    levels = list(word_image_levels(30))
    assert len(levels) == 31
    for n, level in enumerate(levels):
        assert level == word_image_exponents(n), n


def test_word_images_cover_each_basis():
    for n in range(11):
        count, images = word_image_exponents(n)
        assert images == set(twist_basis(n).basis)


def test_word_counts_follow_the_two_weight_recurrence():
    # degree 60 has Fib(60) = 2504730781961 words, far beyond a word walk
    counts = [word_image_exponents(n)[0] for n in range(61)]
    assert counts[0] == counts[1] == 1
    for n in range(2, 61):
        assert counts[n] == counts[n - 1] + counts[n - 2]
    assert counts[10] == 89
    assert counts[60] == 2504730781961


def test_homogeneity_is_enforced():
    # the message names the monomial as rendered, not as a raw tuple
    message = "monomial X*u breaks homogeneity: multidegree (1,1,0,0) != (2,1,1,1)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GradedSection(3, {parse_monomial("X*u"): 1})


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


def test_generation_of_low_and_mid_degrees():
    for n in range(23):
        assert check_generation(n), n


def test_quadratic_cover_fails_only_in_degree_three():
    missing = [n for n in range(23) if not degree_two_covers(n)]
    assert missing == [1]


def test_generation_rejects_negative():
    with pytest.raises(ValueError):
        check_generation(-1)


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
        lambda cs: GradedSection(degree, dict(zip(basis, cs)))
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
