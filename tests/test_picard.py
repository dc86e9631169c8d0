"""Lattice structure: intersection form, rotation, twist divisors,
Riemann-Roch and the ampleness tests."""

import copy
import itertools
import pickle

import pytest
from hypothesis import example, given, strategies as st

import dp3ring.picard as picard
from dp3ring.cyclotomic import CycNum, OMEGA
from dp3ring.picard import (
    DivisorClass,
    E1,
    E2,
    E3,
    EFFECTIVE_GENERATORS,
    H,
    K,
    L1,
    L2,
    L3,
    chi,
    intersect,
    is_ample,
    rotate_class,
    rotate_class_power,
    rotation_eigensystem,
    twist_divisor,
    twist_divisors,
    vanishing_criterion,
)


classes = st.builds(
    DivisorClass,
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.integers(-9, 9),
)


def test_intersection_form_basics():
    assert intersect(H, H) == 1
    assert intersect(H, E1) == 0
    assert intersect(E1, E1) == -1
    assert intersect(E1, E2) == 0


def test_rotation_permutes_the_hexagon():
    # X=0, u=0, Y=0, t=0, Z=0, s=0 in cyclic order
    hexagon = (L1, E3, L2, E1, L3, E2)
    for i, curve in enumerate(hexagon):
        assert rotate_class(curve) == hexagon[(i + 1) % 6]


def test_twist_divisor_orbit_sum():
    # D_n as the explicit orbit sum, independently of the recursion
    for n, div in zip(range(20), twist_divisors()):
        total = DivisorClass(0, 0, 0, 0)
        power = twist_divisor(1)
        for _ in range(n):
            total = total + power
            power = rotate_class(power)
        assert twist_divisor(n) == div == total


def test_twist_divisor_rejects_negative():
    with pytest.raises(ValueError):
        twist_divisor(-1)


def test_small_twist_intersections():
    for r in range(1, 6):
        d = twist_divisor(r)
        assert intersect(d, d) == r - 2
        assert intersect(d, K) == -r


def test_chi_parity_guard(monkeypatch):
    # corrupting the canonical class breaks the parity of D.(D - K)
    monkeypatch.setattr(picard, "K", DivisorClass(-3, -1, -1, 0))
    with pytest.raises(ArithmeticError):
        chi(DivisorClass(0, 0, 0, 1))


def nakai_moishezon(div):
    """The oracle: D.D > 0 and D.C > 0 for every effective-cone generator C."""
    return intersect(div, div) > 0 and all(
        intersect(div, curve) > 0 for curve in EFFECTIVE_GENERATORS
    )


def assert_predicates_match_nakai_moishezon(div):
    assert is_ample(div) == nakai_moishezon(div), div
    assert vanishing_criterion(div) == nakai_moishezon(div - K), div


def test_ampleness_predicates_match_nakai_moishezon_on_a_box():
    # the straight-line predicates name no generator; this ties them to the
    # six of EFFECTIVE_GENERATORS on [-8, 12]^4
    span = range(-8, 13)
    for coords in itertools.product(span, repeat=4):
        assert_predicates_match_nakai_moishezon(DivisorClass(*coords))


huge = st.integers(-(10**40), 10**40)
huge_classes = st.one_of(
    st.builds(DivisorClass, huge, huge, huge, huge),
    # a large multiple of a small class plus a small one lands on and next
    # to the walls of the ample cone
    st.builds(
        lambda k, base, step: k * base + step,
        st.integers(0, 10**40),
        classes,
        classes,
    ),
)


@given(div=huge_classes)
@example(div=DivisorClass(3 * 10**40 + 1, 10**40, 10**40, 10**40))
@example(div=DivisorClass(2 * 10**40, 10**40, 0, 10**40))
# on the wall D.L1 = 0 and nowhere else, and the same for D - K
@example(div=DivisorClass(2 * 10**40, 10**40, 1, 10**40))
@example(div=DivisorClass(2 * 10**40 - 3, 10**40 - 1, 0, 10**40 - 1))
def test_ampleness_predicates_match_nakai_moishezon_on_huge_classes(div):
    assert_predicates_match_nakai_moishezon(div)


def test_eigensystem_is_exact():
    pairs = rotation_eigensystem()
    assert len(pairs) == 4
    vectors = [vec for vec, _ in pairs]
    values = [val for _, val in pairs]
    assert vectors[1] == (CycNum(3), CycNum(1), CycNum(1), CycNum(1))
    assert values == [CycNum(-1), CycNum(1), OMEGA * OMEGA, OMEGA]


def test_eigensystem_uses_cube_root_identities():
    # row 2 of the rotation on (0, 1, omega, omega^2) is -1 - omega = omega^2
    assert CycNum(-1) - OMEGA == OMEGA * OMEGA


def test_eigensystem_rejects_wrong_matrix(monkeypatch):
    identity = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    monkeypatch.setattr(picard, "ROTATION", identity)
    with pytest.raises(ArithmeticError):
        rotation_eigensystem()


@given(left=classes, right=classes)
def test_rotation_is_an_isometry(left, right):
    assert intersect(rotate_class(left), rotate_class(right)) == intersect(left, right)


@given(div=classes)
def test_rotation_has_order_six(div):
    assert rotate_class_power(div, 6) == div


@given(div=classes)
def test_chi_parity_always_holds(div):
    chi(div)  # must never raise on the true lattice constants


def test_divisor_class_value_semantics():
    div = DivisorClass(1, 1, 0, 1)
    with pytest.raises(AttributeError):
        div.a = 2
    assert div == L1 and hash(div) == hash(L1)
    assert len({div, L1, DivisorClass(1, 1, 0, 0)}) == 2
    assert div != (1, 1, 0, 1) and (1, 1, 0, 1) != div
    assert not div == (1, 1, 0, 1) and not (1, 1, 0, 1) == div
    with pytest.raises(TypeError):
        div < L2
    with pytest.raises(TypeError):
        (1, 1, 0, 0) < div
    assert repr(div) == "DivisorClass(a=1, b=1, c=0, d=1)"
    assert str(div) == "(1,1,0,1)"
    assert type(div.coords) is tuple and div.coords == (1, 1, 0, 1)
    assert (div.a, div.b, div.c, div.d) == (1, 1, 0, 1)
    with pytest.raises(TypeError):
        div * 1.5
    with pytest.raises(TypeError):
        1.5 * div
    assert 2 * div == div * 2 == DivisorClass(2, 2, 0, 2)


def test_divisor_class_pickles_and_copies():
    div = DivisorClass(2, -3, 5, 7)
    for clone in (pickle.loads(pickle.dumps(div)), copy.deepcopy(div), copy.copy(div)):
        assert clone == div and type(clone) is DivisorClass
        assert repr(clone) == repr(div)
