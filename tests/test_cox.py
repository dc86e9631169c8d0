"""The graded coordinate ring: weights, section enumeration, rotation."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from dp3ring.cox import (
    UNIT,
    enumerate_sections,
    monomial_product,
    multidegree,
    parse_monomial,
    polygon_rows,
    render_monomial,
    rotate_exponents,
    rotate_variable,
    rotated_class,
    section_count,
)
from dp3ring.ncpoly import XY, parse
from dp3ring.picard import (
    DivisorClass,
    rotate_class,
    rotate_class_power,
    twist_divisor,
)
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


def test_section_count_matches_the_enumerated_basis():
    # oracle: the monomials themselves, over classes with negative entries
    # too; each basis is strictly descending, hence free of duplicates, and
    # every monomial in it has the class as its multidegree
    coords = range(-3, 8)
    for a in range(-2, 9):
        for b, c, d in product(coords, coords, coords):
            div = DivisorClass(a, b, c, d)
            basis = enumerate_sections(div).basis
            assert section_count(div) == len(basis), div
            assert all(prev > cur for prev, cur in zip(basis, basis[1:])), div
            assert all(multidegree(mono) == div for mono in basis), div
            # polygon_rows states the rows the basis walks, none of them empty
            rows = list(polygon_rows(div))
            walked = [(i, j) for i, lo, hi in rows for j in range(hi, lo - 1, -1)]
            assert walked == [mono[:2] for mono in basis], div
            assert all(lo <= hi for _, lo, hi in rows), div


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
@given(mono=monomials, times=st.integers(0, 5))
def test_rotated_class_matches_the_lattice_rotation(mono, times):
    div = multidegree(mono)
    assert rotated_class(div, times) == rotate_class_power(div, times)


def test_rotated_class_of_a_class_without_monomials():
    # read off the chart point, the class still rotates as in the lattice
    for div in (DivisorClass(-1, 0, 0, 0), DivisorClass(2, 5, -3, 1)):
        assert enumerate_sections(div).basis == ()
        for times in range(6):
            assert rotated_class(div, times) == rotate_class_power(div, times)


@settings(max_examples=60)
@given(mono=monomials, other=monomials)
def test_multidegree_is_additive(mono, other):
    product = monomial_product(mono, other)
    assert multidegree(product) == multidegree(mono) + multidegree(other)
