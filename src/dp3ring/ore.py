"""Rewriting engine for the ring presented on w, z, x by

    zw = zeta*wz,    xw = -zeta^2*wx + z,    xz = zeta*zx - w^2,

with weights w = 2, z = 3, x = 1.  Repeated rewriting moves every word onto
the ordered words w^i z^j x^k.  These are a linear basis, so the normal form
is unique: by Bergman's diamond lemma (Adv. Math. 29, 1978) it suffices that
the one ambiguity of the rules, xzw, resolves and that the rules lower a
semigroup order, which `tests/test_ore.py` checks from `REWRITE_RULES`.
That table holds each rule coefficient as its Z[zeta] pair (p, q), meaning
p + q*zeta.
The same ring is generated by x (weight 1) and y = w + x^2 (weight 2)
subject to x^5 = yxy and y^2 = xyx; `xy_to_pbw` converts from that
presentation.

Termination: each rule application strictly decreases the measure
(#x, #z, inversions) in lexicographic order, where inversions counts the
pairs x-before-w, x-before-z and z-before-w.  The swap part of a rule
removes one inversion; the correction part drops an x (and for xz also a
z).  The measure is asserted on every application.
"""

from __future__ import annotations

from .cyclotomic import CycNum
from .ncpoly import NcPoly, WZX, XY, AlphabetMismatchError

# the coefficient pair (p, q) means p + q*zeta; -zeta^2 = 1 - zeta
REWRITE_RULES: dict[str, tuple[tuple[tuple[int, int], str], ...]] = {
    "zw": (((0, 1), "wz"),),
    "xw": (((1, -1), "wx"), ((1, 0), "z")),
    "xz": (((0, 1), "zx"), ((-1, 0), "ww")),
}


def termination_measure(word: str) -> tuple[int, int, int]:
    """(#x, #z, inversions); rewriting strictly decreases this, lexicographically."""
    inversions = 0
    for i, ch in enumerate(word):
        if ch == "x":
            inversions += sum(1 for other in word[i + 1 :] if other in "wz")
        elif ch == "z":
            inversions += sum(1 for other in word[i + 1 :] if other == "w")
    return (word.count("x"), word.count("z"), inversions)


def _find_redex(word: str) -> int | None:
    """Position of the leftmost reducible pair, or None for an ordered word."""
    for i in range(len(word) - 1):
        if word[i : i + 2] in REWRITE_RULES:
            return i
    return None


def is_pbw_word(word: str) -> bool:
    """True iff the word is a sorted block w...w z...z x...x."""
    return _find_redex(word) is None


def normal_form(p: NcPoly) -> NcPoly:
    """Unique ordered-monomial representative of p's class.

    The leftmost reducible pair is rewritten first; any other order gives
    the same result, because the rules resolve their one ambiguity (the
    diamond-lemma test).

    Each word of p is rewritten from coefficient 1.  The rule coefficients
    are Z[zeta] pairs, so the rewriting carries plain integer pairs (a, b)
    meaning a + b*zeta, and each resulting monomial is multiplied by the
    word's own coefficient once.
    """
    if p.alphabet != WZX:
        raise AlphabetMismatchError("normal_form expects the w,z,x alphabet")
    out: dict[str, CycNum] = {}
    for start, coeff in reversed(p.terms.items()):
        reached: dict[str, tuple[int, int]] = {}
        pending = [(start, 1, 0)]
        while pending:
            word, a, b = pending.pop()
            i = _find_redex(word)
            if i is None:
                a0, b0 = reached.get(word, (0, 0))
                reached[word] = (a0 + a, b0 + b)
                continue
            measure = termination_measure(word)
            for (rp, rq), replacement in REWRITE_RULES[word[i : i + 2]]:
                new_word = word[:i] + replacement + word[i + 2 :]
                assert termination_measure(new_word) < measure
                # (a + b*zeta)(rp + rq*zeta), then zeta^2 = zeta - 1
                pending.append((new_word, a * rp - b * rq, a * rq + b * rp + b * rq))
        for word, (a, b) in reached.items():
            out[word] = out.get(word, CycNum(0)) + CycNum(a, b) * coeff
    return NcPoly(WZX, out)


_Y_IMAGE = NcPoly(WZX, {"w": 1, "xx": 1})
_XY_IMAGES = {"x": NcPoly.variable(WZX, "x"), "y": _Y_IMAGE}


def xy_to_pbw(p: NcPoly) -> NcPoly:
    """Express an x,y-polynomial in the ordered w,z,x basis (y = w + x^2)."""
    if p.alphabet != XY:
        raise AlphabetMismatchError("xy_to_pbw expects the x,y alphabet")
    if p.is_zero:
        return NcPoly.zero(WZX)
    return normal_form(p.substitute(_XY_IMAGES))


def pbw_basis(n: int) -> list[str]:
    """The ordered words w^i z^j x^k of weighted degree n, sorted by (i, j, k)."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    return [
        "w" * i + "z" * j + "x" * (n - 2 * i - 3 * j)
        for i in range(n // 2 + 1)
        for j in range((n - 2 * i) // 3 + 1)
    ]


def hilbert_coeffs(max_degree: int) -> list[int]:
    """Graded dimensions [dim_0, ..., dim_max_degree], counting the basis.

    For each i the exponents j of `pbw_basis(n)` run over 0..(n - 2i)//3,
    so the count needs no monomials.
    """
    if max_degree < 0:
        raise ValueError("degree must be non-negative")
    return [
        sum((n - 2 * i) // 3 + 1 for i in range(n // 2 + 1))
        for n in range(max_degree + 1)
    ]


def commutes_with_generators(p: NcPoly) -> bool:
    """True iff p commutes with both x and y, hence is central."""
    if p.alphabet != XY:
        raise AlphabetMismatchError("expects the x,y alphabet")
    for letter in ("x", "y"):
        g = NcPoly.variable(XY, letter)
        if not xy_to_pbw(p * g - g * p).is_zero:
            return False
    return True
