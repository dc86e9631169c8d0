"""Exact arithmetic in the quadratic cyclotomic field Q(zeta), zeta a
primitive sixth root of unity.

A value is stored as the pair (p, q) meaning p + q*zeta.  Each part is an
int or a Fraction; anything else, a float, a Decimal or a string, is a
TypeError.  Every product is reduced by zeta^2 = zeta - 1, so the pair is a
canonical form and equality is plain structural comparison.  An integral
part is kept as a plain int, so arithmetic in Z[zeta] never touches
Fraction; a Fraction holds only a part that is not integral, and division
goes through Fraction.  No floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction


def _exact(value) -> int | Fraction:
    """The int or Fraction `value` as an int when integral, else as itself."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"a part of a CycNum is an int or a Fraction, not {value!r}")


def render_sum(terms) -> str:
    """A signed sum such as `x + 2*y - zeta*z`, from (coefficient, monomial
    text) pairs in display order, "" being the monomial 1.

    Zero terms are dropped, a coefficient 1 or -1 on a monomial is left out,
    and a coefficient that is itself a sum is parenthesised unless it is the
    whole sum.  The empty sum is 0.
    """
    terms = [term for term in terms if term[0]]
    out = ""
    for coeff, body in terms:
        if body and coeff == 1:
            piece = body
        elif body and coeff == -1:
            piece = "-" + body
        else:
            piece = str(coeff)
            if " " in piece and (body or len(terms) > 1):
                piece = f"({piece})"
            if body:
                piece += "*" + body
        if out:
            out += " - " + piece[1:] if piece[0] == "-" else " + " + piece
        else:
            out = piece
    return out or "0"


def render_powers(pairs) -> str:
    """A product of powers such as `w^2*z*x` from (name, exponent) pairs in
    display order: exponent 0 left out, 1 written bare, the empty product 1."""
    parts = [name if exp == 1 else f"{name}^{exp}" for name, exp in pairs if exp]
    return "*".join(parts) or "1"


class CycNum:
    """An element p + q*zeta of Q(zeta)."""

    __slots__ = ("p", "q")

    def __init__(self, p: int | Fraction = 0, q: int | Fraction = 0):
        self.p = p if type(p) is int else _exact(p)
        self.q = q if type(q) is int else _exact(q)

    @classmethod
    def _coerce(cls, value):
        if isinstance(value, cls):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        return None

    def __add__(self, other):
        other = CycNum._coerce(other)
        if other is None:
            return NotImplemented
        return CycNum(self.p + other.p, self.q + other.q)

    __radd__ = __add__

    def __sub__(self, other):
        other = CycNum._coerce(other)
        if other is None:
            return NotImplemented
        return CycNum(self.p - other.p, self.q - other.q)

    def __neg__(self):
        return CycNum(-self.p, -self.q)

    def __mul__(self, other):
        other = CycNum._coerce(other)
        if other is None:
            return NotImplemented
        # (p1 + q1 z)(p2 + q2 z), then z^2 = z - 1
        p1, q1, p2, q2 = self.p, self.q, other.p, other.q
        return CycNum(p1 * p2 - q1 * q2, p1 * q2 + q1 * p2 + q1 * q2)

    __rmul__ = __mul__

    def inv(self) -> CycNum:
        """Multiplicative inverse.  Raises ZeroDivisionError on zero."""
        # Conjugate of p + q*zeta is (p + q) - q*zeta; the norm
        # p^2 + pq + q^2 is positive definite over Q.
        p, q = self.p, self.q
        norm = p * p + p * q + q * q
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        return CycNum(Fraction(p + q, norm), Fraction(-q, norm))

    def __truediv__(self, other):
        other = CycNum._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __eq__(self, other):
        other = CycNum._coerce(other)
        if other is None:
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self):
        # agree with Fraction/int hashes on rational values
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q))

    def __bool__(self):
        return self.p != 0 or self.q != 0

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def __str__(self):
        return render_sum(((self.p, ""), (self.q, "zeta")))

    __repr__ = __str__


ZERO = CycNum(0)
ONE = CycNum(1)
ZETA = CycNum(0, 1)
# primitive cube root of unity: omega = zeta^2 = zeta - 1
OMEGA = CycNum(-1, 1)
