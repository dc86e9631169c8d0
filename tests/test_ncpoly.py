"""Noncommutative polynomials, the expression grammar and rendering."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dp3ring.cyclotomic import CycNum, ZETA
from dp3ring.ncpoly import (
    AlphabetMismatchError,
    MAX_NESTING,
    NcPoly,
    ParseError,
    WZX,
    XY,
    parse,
    word_degree,
)


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


def test_parse_unexpected_character():
    with pytest.raises(ParseError):
        xy("x @ y")


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
# expands term by term, so y^5 * y^5 makes 2^10 words per coefficient
@example(
    p=NcPoly(XY, {"yyyyy": CycNum(0, -2), "xyxx": Fraction(1, 2), "yyy": ZETA}),
    q=NcPoly(XY, {"yyyyy": 1}),
)
@settings(max_examples=60)
@given(p=polys(XY), q=polys(XY))
def test_substitution_is_a_homomorphism(p, q):
    images = {"x": NcPoly.variable(WZX, "x"), "y": NcPoly(WZX, {"w": 1, "xx": 1})}
    assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)


@settings(max_examples=80)
@given(p=polys(XY))
def test_parse_render_round_trip_xy(p):
    assert parse(p.render(), XY) == p


@settings(max_examples=80)
@given(p=polys(WZX))
def test_parse_render_round_trip_wzx(p):
    assert parse(p.render(), WZX) == p
