"""The rewriting engine: rules, termination, the diamond lemma, basis counts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dp3ring import ore
from dp3ring.cyclotomic import CycNum, ZETA
from dp3ring.ncpoly import (
    NcPoly,
    WZX,
    XY,
    AlphabetMismatchError,
    parse,
    render_word,
    word_degree,
)
from dp3ring.ore import (
    commutes_with_generators,
    hilbert_coeffs,
    is_pbw_word,
    normal_form,
    pbw_basis,
    termination_measure,
    xy_to_pbw,
)


def wzx(text):
    return parse(text, WZX)


def xy(text):
    return parse(text, XY)


def test_rule_zw():
    assert normal_form(wzx("z*w")) == ZETA * wzx("w*z")


def test_rule_xw():
    # -zeta^2 = 1 - zeta
    expected = CycNum(1, -1) * wzx("w*x") + wzx("z")
    assert normal_form(wzx("x*w")) == expected


def test_rule_xz():
    assert normal_form(wzx("x*z")) == ZETA * wzx("z*x") - wzx("w^2")


def test_normal_form_rejects_other_alphabets():
    with pytest.raises(AlphabetMismatchError):
        normal_form(xy("x"))


def test_relation_x5_reduces_to_zero():
    assert xy_to_pbw(xy("x^5 - y*x*y")).is_zero


def test_relation_y2_reduces_to_zero():
    assert xy_to_pbw(xy("y^2 - x*y*x")).is_zero


def test_x6_equals_y3():
    assert xy_to_pbw(xy("x^6 - y^3")).is_zero


def test_relations_via_explicit_generator_images():
    # the whole conversion chain without the converter: Y = w + x^2 and the
    # relations hold already inside the w,z,x presentation
    big_y = wzx("w + x^2")
    x = wzx("x")
    assert normal_form(big_y * x * big_y - x**5).is_zero
    assert normal_form(big_y * big_y - x * big_y * x).is_zero


def test_normal_form_linearity():
    p = wzx("x*w + 2*z*w")
    assert normal_form(p) == normal_form(wzx("x*w")) + 2 * normal_form(wzx("z*w"))


def test_termination_measure_values():
    assert termination_measure("") == (0, 0, 0)
    assert termination_measure("wzx") == (1, 1, 0)
    assert termination_measure("xw") == (1, 0, 1)
    assert termination_measure("xzw") == (1, 1, 3)
    assert termination_measure("zwxw") == (1, 1, 3)


def test_termination_measure_drops_across_rules():
    for pair, results in (
        ("zw", ("wz",)),
        ("xw", ("wx", "z")),
        ("xz", ("zx", "ww")),
    ):
        for context in ("", "w", "x", "wz"):
            before = termination_measure(context + pair + context)
            for replacement in results:
                after = termination_measure(context + replacement + context)
                assert after < before


# -- Bergman's diamond lemma (Adv. Math. 29, 1978) -----------------------------
#
# The ordered words are a basis of the ring once the rules lower a semigroup
# order with no infinite descending chain and every ambiguity of the rules
# resolves.  Both are finite checks on REWRITE_RULES.


def ambiguities(keys):
    """Each overlap and inclusion ambiguity of the leading words, as
    (word, (i, key), (j, other)): `key` reduces at i, `other` at j."""
    out = []
    for key in keys:
        for other in keys:
            # overlap: a proper suffix of key is a proper prefix of other
            for k in range(1, min(len(key), len(other))):
                if key[-k:] == other[:k]:
                    out.append((key + other[k:], (0, key), (len(key) - k, other)))
            # inclusion: other lies inside key
            if other != key:
                for j in range(len(key) - len(other) + 1):
                    if key[j : j + len(other)] == other:
                        out.append((key, (0, key), (j, other)))
    return out


def reduce_once(word, i, key):
    """The word with its leading word `key` at position i rewritten once."""
    out = NcPoly.zero(WZX)
    for pair, replacement in ore.REWRITE_RULES[key]:
        reduced = word[:i] + replacement + word[i + len(key) :]
        out = out + NcPoly.term(WZX, reduced, CycNum(*pair))
    return out


def unresolved_ambiguities():
    return [
        word
        for word, left, right in ambiguities(ore.REWRITE_RULES)
        if normal_form(reduce_once(word, *left)) != normal_form(reduce_once(word, *right))
    ]


def test_rules_lower_a_semigroup_order():
    # termination_measure (#x, #z, inversions) compares lexicographically on
    # N^3, so it has no infinite descending chain.  Within one degree, equal
    # #x and #z force equal #w; then the inversions of u*a*v and u*b*v differ
    # by those of a and b, so the order is compatible with multiplication on
    # both sides
    for key, replacements in ore.REWRITE_RULES.items():
        for _, replacement in replacements:
            assert word_degree(replacement, WZX) == word_degree(key, WZX)
            assert termination_measure(replacement) < termination_measure(key)


def test_every_ambiguity_resolves():
    assert [word for word, _, _ in ambiguities(ore.REWRITE_RULES)] == ["xzw"]
    assert unresolved_ambiguities() == []
    assert normal_form(wzx("x*z*w")) == wzx("-w^3 + zeta*w*z*x + zeta*z^2")


def test_diamond_lemma_catches_a_wrong_rule(monkeypatch):
    # zw -> wz without the zeta
    monkeypatch.setitem(ore.REWRITE_RULES, "zw", (((1, 0), "wz"),))
    assert unresolved_ambiguities() == ["xzw"]


def test_is_pbw_word():
    assert is_pbw_word("wwzxx")
    assert is_pbw_word("")
    assert not is_pbw_word("xw")
    assert not is_pbw_word("zw")
    assert not is_pbw_word("wxz")


def test_pbw_basis_degree_zero_and_six():
    assert pbw_basis(0) == [""]
    assert pbw_basis(6) == ["xxxxxx", "zxxx", "zz", "wxxxx", "wzx", "wwxx", "www"]
    assert all(is_pbw_word(word) for word in pbw_basis(6))
    assert all(word_degree(word, WZX) == 6 for word in pbw_basis(6))


def test_pbw_basis_degree_twelve():
    # oracle: brute-force triple loop over a safe bounding box
    expected = [
        (i, j, k)
        for i in range(13)
        for j in range(13)
        for k in range(13)
        if 2 * i + 3 * j + k == 12
    ]
    exponents = [(w.count("w"), w.count("z"), w.count("x")) for w in pbw_basis(12)]
    assert exponents == sorted(expected)
    assert len(pbw_basis(12)) == 19


def test_pbw_render():
    assert [render_word(word) for word in ("", "wzx", "wwxxx", "xxxxxx")] == [
        "1",
        "w*z*x",
        "w^2*x^3",
        "x^6",
    ]


def test_hilbert_low_coefficients():
    assert hilbert_coeffs(6) == [1, 1, 2, 3, 4, 5, 7]
    assert hilbert_coeffs(0) == [1]


def test_hilbert_against_series_oracle():
    # oracle: Taylor expansion of 1/((1-t)(1-t^2)(1-t^3)) by iterated
    # prefix sums, one per factor
    cap = 24
    series = [1] + [0] * cap
    for step in (1, 2, 3):
        for n in range(step, cap + 1):
            series[n] += series[n - step]
    assert hilbert_coeffs(cap) == series
    assert series[9] == 12


def test_hilbert_counts_the_pbw_basis():
    # oracle: the enumerated basis itself
    assert hilbert_coeffs(60) == [len(pbw_basis(n)) for n in range(61)]


def test_hilbert_recurrence():
    coeffs = hilbert_coeffs(30)
    for n in range(25):
        assert coeffs[n + 6] == coeffs[n] + n + 6


def test_x6_is_central():
    assert commutes_with_generators(xy("x^6"))


def test_scalars_are_central():
    assert commutes_with_generators(xy("1"))
    assert commutes_with_generators(xy("0"))


def test_generators_are_not_central():
    # oracle: direct normal form of the commutator with y
    assert not xy_to_pbw(xy("x*y - y*x")).is_zero
    assert not commutes_with_generators(xy("x"))
    assert not commutes_with_generators(xy("y"))


rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
coeffs = st.builds(CycNum, rationals, rationals)
words = st.text(alphabet=["w", "z", "x"], max_size=6)
wzx_polys = st.dictionaries(words, coeffs, max_size=3).map(
    lambda terms: NcPoly(WZX, terms)
)


@settings(max_examples=50, deadline=None)
@given(p=wzx_polys)
def test_normal_form_idempotent(p):
    once = normal_form(p)
    assert normal_form(once) == once


@settings(max_examples=40, deadline=None)
@given(p=wzx_polys, q=wzx_polys)
def test_normal_form_congruence(p, q):
    assert normal_form(p * q) == normal_form(normal_form(p) * normal_form(q))


@settings(max_examples=50, deadline=None)
@given(p=wzx_polys)
def test_normal_form_lands_on_basis_words(p):
    assert all(is_pbw_word(word) for word in normal_form(p).terms)
