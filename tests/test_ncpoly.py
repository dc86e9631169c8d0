"""Noncommutative polynomials, the expression grammar and rendering."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from dp3ring.cyclotomic import CycNum, ZETA
from dp3ring.ncpoly import (
    AlphabetMismatchError,
    MAX_NESTING,
    MAX_SCALAR_EXPONENT,
    MAX_TERMS,
    MAX_WORD_LENGTH,
    NcPoly,
    ParseError,
    WZX,
    XY,
    parse,
    word_degree,
)
from dp3ring.ore import normal_form
from dp3ring.thcr import GradedSection, section_from_xy, twisted_mul


def xy(text):
    return parse(text, XY)


def test_word_degree_weights():
    assert word_degree("x", XY) == 1
    assert word_degree("y", XY) == 2
    assert word_degree("yxy", XY) == 5
    assert word_degree("w", WZX) == 2
    assert word_degree("z", WZX) == 3
    assert word_degree("wzx", WZX) == 6
    assert word_degree("", XY) == 0


def test_product_of_variables_concatenates():
    x = NcPoly.variable(XY, "x")
    y = NcPoly.variable(XY, "y")
    assert (x * y).terms == {"xy": CycNum(1)}
    assert (y * x).terms == {"yx": CycNum(1)}


def test_left_distributivity_on_words():
    x = NcPoly.variable(XY, "x")
    y = NcPoly.variable(XY, "y")
    assert (x + y) * x == NcPoly(XY, {"xx": 1, "yx": 1})


def test_scalar_coefficients_multiply_in_the_field():
    zx = ZETA * NcPoly.variable(XY, "x")
    assert zx * zx == NcPoly(XY, {"xx": ZETA * ZETA})
    assert (zx * zx).terms["xx"] == CycNum(-1, 1)


def test_alphabet_mismatch_raises():
    with pytest.raises(AlphabetMismatchError):
        NcPoly.variable(XY, "x") * NcPoly.variable(WZX, "x")


def test_foreign_letter_is_named():
    with pytest.raises(ValueError, match="^letter 'w' not in alphabet 'xy'$"):
        NcPoly(XY, {"xy": 1, "xywx": 2})


def test_parse_defining_relation():
    poly = xy("x^5 - y*x*y")
    assert poly.terms == {"xxxxx": CycNum(1), "yxy": CycNum(-1)}


def test_parse_zero():
    assert xy("0").is_zero
    assert xy("0").terms == {}


def test_parse_zeta_coefficient_reduces():
    poly = parse("zeta^2*w*x", WZX)
    assert poly.terms == {"wx": CycNum(-1, 1)}


def test_parse_rationals_and_precedence():
    poly = xy("3/2*x + x*y^2 - 2*x^3")
    assert poly.terms == {
        "x": CycNum(Fraction(3, 2)),
        "xyy": CycNum(1),
        "xxx": CycNum(-2),
    }


def test_parse_parentheses_and_powers():
    assert xy("(x + y)^2") == xy("x^2 + x*y + y*x + y^2")
    assert xy("(2)*(x)") == xy("2*x")


def test_parse_leading_sign():
    assert xy("-x + y") == xy("y - x")
    assert xy("+x") == xy("x")


def test_parse_never_reorders():
    assert xy("x*y") != xy("y*x")


def test_parse_syntax_error_has_position():
    with pytest.raises(ParseError) as info:
        xy("x + * y")
    assert info.value.pos == 4
    assert "position 4" in str(info.value)


def test_parse_unknown_variable():
    with pytest.raises(ParseError) as info:
        xy("x * q")
    assert info.value.pos == 4


def test_parse_unknown_long_name():
    with pytest.raises(ParseError):
        xy("xy")  # juxtaposition is not multiplication


def test_parse_trailing_input():
    with pytest.raises(ParseError):
        xy("x )")


def test_parse_fractional_exponent_rejected():
    with pytest.raises(ParseError):
        xy("x^1/2")


def test_parse_limits_parenthesis_nesting():
    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse(deepest, XY) == NcPoly.variable(XY, "x")
    with pytest.raises(ParseError) as info:
        parse("(" + deepest + ")", XY)
    assert info.value.pos == MAX_NESTING


def test_parse_limits_word_length():
    longest = f"x^{MAX_WORD_LENGTH}"
    assert parse(longest, XY) == NcPoly(XY, {"x" * MAX_WORD_LENGTH: 1})
    assert parse(f"({longest})^1*1", XY) == parse(longest, XY)
    # a zero or scalar power has no letters to grow
    assert parse(f"(x - x)^{MAX_WORD_LENGTH + 1}", XY).is_zero
    for text, pos in (
        (f"x^{MAX_WORD_LENGTH + 1}", 2),
        (f"({longest})^2", len(longest) + 3),
        (f"{longest}*y", len(longest)),
        (f"(x + y^2)^{MAX_WORD_LENGTH // 2 + 1}", 10),
    ):
        with pytest.raises(ParseError) as info:
            parse(text, XY)
        assert info.value.pos == pos, text


def test_parse_limits_term_count():
    # (x + y)^k has 2^k words of only k letters
    assert len(parse("(x + y)^14", XY).terms) == MAX_TERMS == 2**14
    assert parse("(x + y)^7*(x + y)^7", XY) == parse("(x + y)^14", XY)
    for text, pos in (
        ("(x + y)^15", 8),
        ("(x + y)^40", 8),
        ("(x + y)^7*(x + y)^8", 9),
        # within the word bound, but 2^1001 - 1 words of up to 1,000 letters
        (f"(x + y^2)^{MAX_WORD_LENGTH // 2}", 10),
    ):
        with pytest.raises(ParseError, match=f"over {MAX_TERMS} terms") as info:
            parse(text, XY)
        assert info.value.pos == pos, text
    # one letter: the 2^999 term pairs collapse onto 1,000 words
    binomial = parse("(1 + x)^999", XY)
    assert len(binomial.terms) == 1000
    assert binomial.terms["x" * 499] == CycNum(comb(999, 499))


def test_scalar_powers_past_the_bound_are_refused():
    # 0 and the sixth roots of unity cycle; any other scalar power this long
    # has far more digits than can be printed
    past = MAX_SCALAR_EXPONENT + 1
    for base in ("0", "(-zeta)", "(1 - zeta)"):
        assert parse(f"{base}^{past}", XY) == parse(f"{base}^{past % 6}", XY)
    for text, pos in ((f"2^{past}", 2), (f"(1/2*zeta)^{past}", 11)):
        with pytest.raises(ParseError, match="too long to print") as info:
            parse(text, XY)
        assert info.value.pos == pos, text
    assert parse(f"(-1)^{MAX_SCALAR_EXPONENT}", XY) == parse("1", XY)


def test_parse_unexpected_character():
    with pytest.raises(ParseError):
        xy("x @ y")


def test_parse_numbers_are_ascii_digits():
    # str.isdigit takes these digits too; int() then refused "²" with a
    # message about a too long literal, and read "٣" as 3
    for text, pos, char in (
        ("x^²", 2, "²"),
        ("٣*x", 0, "٣"),
        ("x + 2*٣", 6, "٣"),
        ("3/²*x", 1, "/"),
    ):
        with pytest.raises(ParseError, match=f"unexpected character {char!r}") as info:
            xy(text)
        assert info.value.pos == pos, text
    assert xy("x^2 + 12/34*y") == xy("x*x + 6/17*y")


def test_substitute_expands_square():
    # oracle: (w + x^2)^2 expanded by hand keeping order:
    # w^2 + w x^2 + x^2 w + x^4
    target = {"x": NcPoly.variable(WZX, "x"), "y": NcPoly(WZX, {"w": 1, "xx": 1})}
    image = xy("y^2").substitute(target)
    assert image == NcPoly(WZX, {"ww": 1, "wxx": 1, "xxw": 1, "xxxx": 1})


def test_substitute_identity():
    target = {"x": NcPoly.variable(XY, "x"), "y": NcPoly.variable(XY, "y")}
    assert xy("x").substitute(target) == xy("x")


def test_substitute_single_expansion():
    target = {"x": NcPoly.variable(WZX, "x"), "y": NcPoly(WZX, {"w": 1, "xx": 1})}
    assert xy("x*y").substitute(target) == NcPoly(WZX, {"xw": 1, "xxx": 1})


def test_substitute_missing_image():
    with pytest.raises(ValueError, match="no image"):
        xy("x*y").substitute({"x": NcPoly.variable(WZX, "x")})


def test_defining_relations_are_homogeneous():
    assert xy("x^5 - y*x*y").homogeneous_degree() == 5
    assert xy("y^2 - x*y*x").homogeneous_degree() == 4
    assert xy("x + y").homogeneous_degree() is None


def test_render_canonical_order():
    assert xy("y + x").render() == "x + y"
    assert xy("x^5 - y*x*y").render() == "x^5 - y*x*y"
    assert parse("z + (1 - zeta)*w*x", WZX).render() == "(1 - zeta)*w*x + z"


def test_render_coefficient_styles():
    assert xy("0").render() == "0"
    assert xy("-x").render() == "-x"
    assert xy("3/2*x").render() == "3/2*x"
    assert xy("zeta*x").render() == "zeta*x"
    assert xy("x - zeta*y").render() == "x - zeta*y"
    assert parse("1 - zeta", XY).render() == "1 - zeta"
    assert xy("x + 1 - zeta").render() == "(1 - zeta) + x"


def _nf_wzx(text):
    return normal_form(parse(text, WZX)).render()


def _mul_b(lhs, rhs):
    return twisted_mul(section_from_xy(xy(lhs)), section_from_xy(xy(rhs))).render()


# one printer writes R's elements, B's sections and Q(zeta) scalars, so
# these pin its sign joins, parentheses and +-1 elisions across all three
@pytest.mark.parametrize(
    "render, args, expected",
    [
        (_nf_wzx, ("(zeta-1)*w + x",), "x + (-1 + zeta)*w"),
        (_nf_wzx, ("(zeta - 1) + x",), "(-1 + zeta) + x"),
        (_nf_wzx, ("1 - zeta",), "1 - zeta"),
        (_nf_wzx, ("-1/2*zeta*z",), "-1/2*zeta*z"),
        (_nf_wzx, ("-(1 - zeta)*x*w",), "zeta*w*x + (-1 + zeta)*z"),
        (_mul_b, ("3", "1"), "3*1"),
        (_mul_b, ("x*x", "1/2*x*x - y"), "-X^2*s*u + 1/2*X*Y*t*u"),
        (GradedSection.render, (GradedSection(2, {}),), "0"),
    ],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_render_pins_the_printer(render, args, expected):
    assert render(*args) == expected


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
coeffs = st.builds(CycNum, rationals, rationals)


def polys(alphabet):
    words = st.text(alphabet=list(alphabet.letters), max_size=5)
    return st.dictionaries(words, coeffs, max_size=4).map(
        lambda terms: NcPoly(alphabet, terms)
    )


@settings(max_examples=60)
@given(p=polys(XY), q=polys(XY), r=polys(XY))
def test_multiplication_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@settings(max_examples=60)
@given(p=polys(XY), q=polys(XY), r=polys(XY))
def test_multiplication_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


# a y-heavy input that once ran past hypothesis's deadline: y = w + x^2
# expands term by term, so y^5 * y^5 makes 2^10 words per coefficient.  The
# heaviest draw, p and q each four 5-letter y-heavy words, takes 0.2-0.5 s,
# so the test has no deadline
@example(
    p=NcPoly(XY, {"yyyyy": CycNum(0, -2), "xyxx": Fraction(1, 2), "yyy": ZETA}),
    q=NcPoly(XY, {"yyyyy": 1}),
)
@settings(max_examples=60, deadline=None)
@given(p=polys(XY), q=polys(XY))
def test_substitution_is_a_homomorphism(p, q):
    images = {"x": NcPoly.variable(WZX, "x"), "y": NcPoly(WZX, {"w": 1, "xx": 1})}
    assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)


@settings(max_examples=40)
@given(p=polys(XY), k=st.integers(0, 5))
def test_power_is_repeated_product(p, k):
    product = NcPoly.scalar(XY, 1)
    for _ in range(k):
        product = product * p
    assert p**k == product


@settings(max_examples=80)
@given(p=polys(XY))
def test_parse_render_round_trip_xy(p):
    assert parse(p.render(), XY) == p


@settings(max_examples=80)
@given(p=polys(WZX))
def test_parse_render_round_trip_wzx(p):
    assert parse(p.render(), WZX) == p
