"""The graded coordinate ring: weights, section enumeration, rotation."""

import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from dp3ring.cox import (
    IRRELEVANT_PAIRS,
    SectionSpace,
    UNIT,
    VARIABLES,
    WEIGHT_TABLE,
    enumerate_sections,
    monomial_product,
    multidegree,
    parse_monomial,
    render_monomial,
    rotate_exponents,
    rotate_variable,
    section_count,
)
from dp3ring.ncpoly import XY, parse
from dp3ring.picard import DivisorClass, MINUS_K, intersect, rotate_class, twist_divisor
from dp3ring.thcr import GradedSection, section_from_xy, twisted_mul


monomials = st.tuples(*[st.integers(0, 3) for _ in range(6)])


def test_variable_weights():
    assert multidegree(parse_monomial("X")) == DivisorClass(1, 1, 0, 1)
    assert multidegree(parse_monomial("Y")) == DivisorClass(1, 0, 1, 1)
    assert multidegree(parse_monomial("Z")) == DivisorClass(1, 1, 1, 0)
    assert multidegree(parse_monomial("s")) == DivisorClass(0, -1, 0, 0)
    assert multidegree(parse_monomial("t")) == DivisorClass(0, 0, -1, 0)
    assert multidegree(parse_monomial("u")) == DivisorClass(0, 0, 0, -1)


def test_multidegree_of_products():
    zt = parse_monomial("Z*t")
    assert multidegree(zt) == DivisorClass(1, 1, 0, 0)
    assert multidegree(zt) == twist_divisor(2)
    assert multidegree(UNIT) == DivisorClass(0, 0, 0, 0)


@pytest.mark.parametrize("text", ["X^", "X^+2", "X^ 2", "X^\u0663", "X^-1"])
def test_parse_monomial_takes_only_ascii_digit_exponents(text):
    with pytest.raises(ValueError, match="bad exponent"):
        parse_monomial(text)


@pytest.mark.parametrize("text", ["Y*X", "X^1", "X^0*Y", "X*X", "X^01"])
def test_parse_monomial_takes_only_canonical_renderings(text):
    with pytest.raises(ValueError, match="is not the canonical rendering"):
        parse_monomial(text)


def test_enumerate_degree_two_piece():
    space = enumerate_sections(DivisorClass(1, 1, 0, 0))
    assert [render_monomial(m) for m in space.basis] == ["X*u", "Z*t"]


def test_enumerate_anticanonical_piece():
    space = enumerate_sections(DivisorClass(3, 1, 1, 1))
    rendered = {render_monomial(m) for m in space.basis}
    assert len(space.basis) == 7
    assert "X*Y*Z*s*t*u" in rendered
    assert "Y^2*Z*t^2*u" in rendered


def test_enumerate_trivial_and_empty_pieces():
    assert enumerate_sections(DivisorClass(0, 0, 0, 0)).basis == (UNIT,)
    assert enumerate_sections(DivisorClass(-1, 0, 0, 0)).basis == ()
    assert enumerate_sections(DivisorClass(0, 1, 0, 0)).basis == ()


def test_enumerate_against_brute_force_oracle():
    # oracle: scan a bounding box of exponent vectors and keep the ones of
    # the right multidegree
    for target in (DivisorClass(3, 1, 1, 1), DivisorClass(4, 2, 1, 2)):
        found = set()
        for exps in product(range(5), range(5), range(5), range(9), range(9), range(9)):
            if multidegree(exps) == target:
                found.add(exps)
        assert set(enumerate_sections(target).basis) == found


def test_section_counts():
    assert section_count(DivisorClass(3, 1, 1, 1)) == 7
    assert section_count(DivisorClass(4, 2, 1, 2)) == 8
    assert section_count(DivisorClass(0, 0, 0, 0)) == 1


def test_section_count_matches_the_enumerated_basis():
    # oracle: the monomials themselves, over classes with negative entries too
    coords = range(-3, 8)
    for a in range(-2, 9):
        for b, c, d in product(coords, coords, coords):
            div = DivisorClass(a, b, c, d)
            assert section_count(div) == len(enumerate_sections(div).basis), div


def _section_count_by_rows(div):
    # oracle: one interval of j for each i, summed row by row in O(a)
    a, b, c, d = div
    j_max = min(a, a - b)
    count = 0
    for i in range(min(a, a - c) + 1):
        count += max(0, min(j_max, a - i) - max(0, d - i) + 1)
    return count


def test_section_count_closed_form_matches_the_row_sums():
    rng = random.Random(20261018)
    for _ in range(300):
        a = rng.randint(-20, 2000)
        b, c, d = (rng.randint(-a - 20, a + 20) for _ in range(3))
        div = DivisorClass(a, b, c, d)
        assert section_count(div) == _section_count_by_rows(div), div


def test_basis_is_strictly_sorted_descending():
    basis = enumerate_sections(MINUS_K).basis
    assert all(prev > cur for prev, cur in zip(basis, basis[1:]))


def test_section_space_invariant_enforced():
    # the message names the monomial as rendered, not as a raw tuple
    message = "1 does not have multidegree (1,1,0,0)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SectionSpace(DivisorClass(1, 1, 0, 0), (parse_monomial("1"),))
    ok = enumerate_sections(DivisorClass(1, 1, 0, 0))
    with pytest.raises(ValueError, match="^basis must be strictly sorted$"):
        SectionSpace(ok.degree, tuple(reversed(ok.basis)))


def test_rotation_of_variables():
    assert rotate_variable("X") == "u"
    assert rotate_variable("u") == "Y"
    assert rotate_variable("s") == "X"
    assert rotate_variable("X", 6) == "X"


def test_rotation_of_monomials():
    assert rotate_exponents(parse_monomial("X")) == parse_monomial("u")
    assert rotate_exponents(parse_monomial("Z*t")) == parse_monomial("Z*s")
    assert rotate_exponents(parse_monomial("X^2*Y"), 2) == parse_monomial("Y^2*Z")


def test_rotation_of_polynomials():
    # the twisted product rotates every term of its right factor by the left
    # degree: once after x, a full period (no change) after x^6
    right = GradedSection(2, {parse_monomial("X*u"): 1, parse_monomial("Z*t"): -2})
    x = section_from_xy(parse("x", XY))
    assert twisted_mul(x, right).terms == {
        monomial_product(parse_monomial("X"), parse_monomial("Y*u")): 1,
        monomial_product(parse_monomial("X"), parse_monomial("Z*s")): -2,
    }
    x6 = section_from_xy(parse("x^6", XY))
    (x6_mono,) = x6.terms
    assert twisted_mul(x6, right).terms == {
        monomial_product(x6_mono, mono): coeff for mono, coeff in right.terms.items()
    }


def test_rendering_and_parsing():
    mono = (2, 1, 0, 1, 0, 2)
    assert render_monomial(mono) == "X^2*Y*s*u^2"
    assert parse_monomial("X^2*Y*s*u^2") == mono
    assert parse_monomial("X^10") == (10, 0, 0, 0, 0, 0)
    assert parse_monomial("1") == UNIT
    assert render_monomial(UNIT) == "1"
    with pytest.raises(ValueError):
        parse_monomial("X*q")


def test_poly_rendering():
    both = GradedSection(2, {parse_monomial("X*u"): 1, parse_monomial("Z*t"): 1})
    assert both.render() == "X*u + Z*t"
    assert GradedSection(2, {}).render() == "0"
    neg = GradedSection(2, {parse_monomial("Z*t"): Fraction(-3, 2)})
    assert neg.render() == "-3/2*Z*t"


def test_hexagon_intersection_matrix():
    cycle = ("X", "u", "Y", "t", "Z", "s")
    weights = [WEIGHT_TABLE[VARIABLES.index(v)] for v in cycle]
    for i in range(6):
        for j in range(6):
            expected = -1 if i == j else (1 if (i - j) % 6 in (1, 5) else 0)
            assert intersect(weights[i], weights[j]) == expected


def test_irrelevant_pairs_are_permuted_by_rotation():
    pair_set = set(IRRELEVANT_PAIRS)
    images = set()
    for pair in IRRELEVANT_PAIRS:
        image = frozenset(rotate_variable(v) for v in pair)
        assert image in pair_set
        images.add(image)
    assert images == pair_set  # a genuine permutation of the nine pairs


def test_section_counts_match_euler_characteristic():
    from dp3ring.picard import chi, h0_formula

    for n in range(13):
        div = twist_divisor(n)
        assert section_count(div) == h0_formula(n) == chi(div)


@settings(max_examples=60)
@given(mono=monomials)
def test_rotation_order_six_on_monomials(mono):
    out = mono
    for _ in range(6):
        out = rotate_exponents(out)
    assert out == mono
    assert rotate_exponents(mono, 6) == mono


@settings(max_examples=60)
@given(mono=monomials)
def test_rotation_matches_lattice_action(mono):
    assert multidegree(rotate_exponents(mono)) == rotate_class(multidegree(mono))


@settings(max_examples=60)
@given(mono=monomials, other=monomials)
def test_multidegree_is_additive(mono, other):
    product = monomial_product(mono, other)
    assert multidegree(product) == multidegree(mono) + multidegree(other)
