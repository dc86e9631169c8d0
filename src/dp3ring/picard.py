"""The rank-four divisor class lattice of the degree-six del Pezzo surface
(the plane blown up at three general points).

Classes are written (a, b, c, d) for aH - cE1 - bE2 - dE3, H the pullback
of a general line and E1, E2, E3 the exceptional curves; the intersection
form is then aa' - bb' - cc' - dd'.  The module also carries the order-six
lattice isometry induced by the cyclic symmetry of the six -1-curves, the
sequence of twisting divisor classes built from it, Riemann-Roch, and the
combinatorial ampleness and vanishing tests.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter

from .cyclotomic import CycNum, OMEGA


class DivisorClass(tuple):
    """Integer 4-vector (a, b, c, d) meaning aH - cE1 - bE2 - dE3.

    An immutable value: equal and hashable only against other classes,
    never ordered, never equal to a plain tuple.  It is a tuple underneath
    so that building one is cheap; `twist_divisor(n)` builds 2n of them."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int):
        return _new(cls, (a, b, c, d))

    a = property(itemgetter(0))
    b = property(itemgetter(1))
    c = property(itemgetter(2))
    d = property(itemgetter(3))

    @property
    def coords(self) -> tuple[int, int, int, int]:
        return tuple(self)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def _unordered(self, other):
        raise TypeError("divisor classes are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __getnewargs__(self):
        return tuple(self)

    def __add__(self, other: DivisorClass) -> DivisorClass:
        a, b, c, d = self
        e, f, g, h = other
        return _new(DivisorClass, (a + e, b + f, c + g, d + h))

    def __sub__(self, other: DivisorClass) -> DivisorClass:
        a, b, c, d = self
        e, f, g, h = other
        return _new(DivisorClass, (a - e, b - f, c - g, d - h))

    def __neg__(self) -> DivisorClass:
        a, b, c, d = self
        return _new(DivisorClass, (-a, -b, -c, -d))

    def __mul__(self, k: int) -> DivisorClass:
        if not isinstance(k, int):
            return NotImplemented
        a, b, c, d = self
        return _new(DivisorClass, (k * a, k * b, k * c, k * d))

    __rmul__ = __mul__

    def __repr__(self):
        return "DivisorClass(a=%r, b=%r, c=%r, d=%r)" % tuple(self)

    def __str__(self):
        return "(%s,%s,%s,%s)" % tuple(self)


# tuple's constructor, bypassing DivisorClass.__new__ on the hot paths
_new = tuple.__new__


ZERO_CLASS = DivisorClass(0, 0, 0, 0)
H = DivisorClass(1, 0, 0, 0)
E1 = DivisorClass(0, 0, -1, 0)
E2 = DivisorClass(0, -1, 0, 0)
E3 = DivisorClass(0, 0, 0, -1)
# canonical class; -K = (3,1,1,1) is ample
K = DivisorClass(-3, -1, -1, -1)
MINUS_K = DivisorClass(3, 1, 1, 1)
# strict transforms of the lines through pairs of blown-up points
L1 = DivisorClass(1, 1, 0, 1)
L2 = DivisorClass(1, 0, 1, 1)
L3 = DivisorClass(1, 1, 1, 0)

# generators of the effective cone: testing positivity against these six
# curves is the whole Nakai-Moishezon criterion on this surface
EFFECTIVE_GENERATORS = (L1, L2, L3, E1, E2, E3)

# the order-six isometry of the lattice induced by rotating the hexagon of
# -1-curves one step
ROTATION = (
    (2, -1, -1, -1),
    (1, -1, -1, 0),
    (1, 0, -1, -1),
    (1, -1, 0, -1),
)

# class of the first twisting bundle: the -1-curve X = 0
FIRST_TWIST = L1


def intersect(left: DivisorClass, right: DivisorClass) -> int:
    """Intersection number under the signature (1, 3) form."""
    a, b, c, d = left
    e, f, g, h = right
    return a * e - b * f - c * g - d * h


def _apply_rotation(coords: tuple) -> tuple:
    """ROTATION times a coordinate vector of ints or CycNums."""
    a, b, c, d = coords
    return tuple([p * a + q * b + r * c + s * d for p, q, r, s in ROTATION])


def rotate_class(div: DivisorClass) -> DivisorClass:
    """Apply the hexagon rotation to a class."""
    return _new(DivisorClass, _apply_rotation(div))


def rotate_class_power(div: DivisorClass, times: int) -> DivisorClass:
    for _ in range(times):
        div = rotate_class(div)
    return div


def twist_divisors():
    """Classes D_0, D_1, ... of the twisting bundles, each the orbit sum of
    the first, by the linear recursion D_0 = 0, D_{n+1} = D_1 + rot(D_n)."""
    div = ZERO_CLASS
    while True:
        yield div
        div = FIRST_TWIST + rotate_class(div)


def twist_divisor(n: int) -> DivisorClass:
    """Class of the n-th twisting bundle: the n-th of `twist_divisors`."""
    if n < 0:
        raise ValueError("twist index must be non-negative")
    return next(islice(twist_divisors(), n, None))


def chi(div: DivisorClass) -> int:
    """Euler characteristic by Riemann-Roch: 1 + D.(D - K)/2."""
    twice = intersect(div, div - K)
    if twice % 2:
        raise ArithmeticError(
            f"odd self-pairing {twice} for {div}; lattice constants corrupted"
        )
    return 1 + twice // 2


def is_ample(div: DivisorClass) -> bool:
    """Nakai-Moishezon against EFFECTIVE_GENERATORS, `intersect` written out
    for the box's 50,625 calls; any 4-sequence of ints will do."""
    a, b, c, d = div
    return (
        b > 0 and c > 0 and d > 0  # D.E2, D.E1, D.E3
        and a > b + d and a > c + d and a > b + c  # D.L1, D.L2, D.L3
        and a * a > b * b + c * c + d * d  # D.D
    )


def vanishing_criterion(div: DivisorClass) -> bool:
    """Numeric test equivalent to D - K ample, hence h1(D) = h2(D) = 0.

    Expands the Nakai-Moishezon inequalities for D - K coordinatewise; reads
    only the four coordinates, so any 4-sequence of ints will do."""
    a, b, c, d = div
    # the sign tests first, cheaper than `is_ample`'s quadric and lines at D - K
    if b < 0 or c < 0 or d < 0:
        return False
    a, b, c, d = a + 3, b + 1, c + 1, d + 1
    return a * a > b * b + c * c + d * d and a > b + d and a > c + d and a > b + c


def h0_formula(n: int) -> int:
    """Closed-form section count of the n-th twist divisor.

    With n = 6m + r: (m+1)(3m+r) for r != 0, and 3m^2 + 3m + 1 for r = 0.
    """
    if n < 0:
        raise ValueError("twist index must be non-negative")
    m, r = divmod(n, 6)
    if r == 0:
        return 3 * m * m + 3 * m + 1
    return (m + 1) * (3 * m + r)


def rotation_eigensystem() -> list[tuple[tuple[CycNum, ...], CycNum]]:
    """The four exact eigenpairs of the lattice rotation over Q(zeta).

    Each returned (vector, eigenvalue) is verified to satisfy M v = lambda v
    exactly; an ArithmeticError means ROTATION is not the hexagon rotation.
    """
    one = CycNum(1)
    omega2 = OMEGA * OMEGA
    pairs = [
        (tuple(CycNum(1) for _ in range(4)), -one),
        ((CycNum(3), CycNum(1), CycNum(1), CycNum(1)), one),
        ((CycNum(0), CycNum(1), OMEGA, omega2), omega2),
        ((CycNum(0), CycNum(1), omega2, OMEGA), OMEGA),
    ]
    for vec, value in pairs:
        image = _apply_rotation(vec)
        expected = tuple(value * entry for entry in vec)
        if image != expected:
            raise ArithmeticError(
                f"eigenpair check failed: M*{vec} = {image}, expected {expected}"
            )
    return pairs
