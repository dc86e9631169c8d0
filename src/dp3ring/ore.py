"""Rewriting engine for the ring presented on w, z, x by

    zw = zeta*wz,    xw = -zeta^2*wx + z,    xz = zeta*zx - w^2,

with weights w = 2, z = 3, x = 1.  Repeated rewriting moves every word onto
the ordered words w^i z^j x^k.  These are a linear basis, so the normal form
is unique: by Bergman's diamond lemma (Adv. Math. 29, 1978) it suffices that
the one ambiguity of the rules, xzw, resolves and that the rules lower a
semigroup order, which `tests/test_ore.py` checks from `REWRITE_RULES`.
`normal_form` takes a polynomial's words in decreasing termination
measure, so a word reached along many paths is rewritten once, with its
summed coefficient.
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

from heapq import heapify, heappop, heappush

from .cyclotomic import CycNum, ONE, ZETA
from .ncpoly import NcPoly, WZX, XY, AlphabetMismatchError

# -zeta^2 = 1 - zeta
REWRITE_RULES: dict[str, tuple[tuple[CycNum, str], ...]] = {
    "zw": ((ZETA, "wz"),),
    "xw": ((CycNum(1, -1), "wx"), (ONE, "z")),
    "xz": ((ZETA, "zx"), (-ONE, "ww")),
}


def termination_measure(word: str) -> tuple[int, int, int]:
    """(#x, #z, inversions), counted from the right; rewriting lowers it."""
    w = z = inversions = 0
    for letter in reversed(word):
        if letter == "x":
            inversions += w + z
        elif letter == "z":
            z += 1
            inversions += w
        else:
            w += 1
    return (len(word) - w - z, z, inversions)


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

    Words wait in one map from word to coefficient and leave it in
    decreasing termination measure, taken from a heap.  Every rewrite
    lowers the measure, so all words that can reach a word leave before it
    and its coefficient is final: a word that cancelled is dropped, an
    ordered word goes into the result, and any other has its leftmost
    reducible pair rewritten once, back into the map.  The measure that the
    assertion computes for a new word, negated, is also its heap key.  Any
    other rewriting order gives the same result, because the rules resolve
    their one ambiguity (the diamond-lemma test).
    """
    if p.alphabet != WZX:
        raise AlphabetMismatchError("normal_form expects the w,z,x alphabet")
    out: dict[str, CycNum] = {}
    pending = dict(p.terms)
    # a min-heap of negated measures pops the largest measure first
    heap = [(tuple(-m for m in termination_measure(word)), word)
            for word in pending]
    heapify(heap)
    while heap:
        key, word = heappop(heap)
        coeff = pending.pop(word)
        if not coeff:
            continue
        i = _find_redex(word)
        if i is None:
            out[word] = coeff
            continue
        measure = tuple(-m for m in key)
        for rule_coeff, replacement in REWRITE_RULES[word[i : i + 2]]:
            new_word = word[:i] + replacement + word[i + 2 :]
            new_measure = termination_measure(new_word)
            assert new_measure < measure
            if new_word in pending:
                pending[new_word] += coeff * rule_coeff
            else:
                pending[new_word] = coeff * rule_coeff
                heappush(heap, (tuple(-m for m in new_measure), new_word))
    return NcPoly(WZX, out)


_Y_IMAGE = NcPoly(WZX, {"w": 1, "xx": 1})
_XY_IMAGES = {"x": NcPoly.variable(WZX, "x"), "y": _Y_IMAGE}


def xy_to_pbw(p: NcPoly) -> NcPoly:
    """Express an x,y-polynomial in the ordered w,z,x basis (y = w + x^2)."""
    if p.alphabet != XY:
        raise AlphabetMismatchError("xy_to_pbw expects the x,y alphabet")
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

    `pbw_basis(n)` has one word per partition of n into parts 1, 2 and 3,
    and there are ((n + 3)^2 + 6) // 12 of those, the integer nearest
    (n + 3)^2 / 12.
    """
    if max_degree < 0:
        raise ValueError("degree must be non-negative")
    return [((n + 3) ** 2 + 6) // 12 for n in range(max_degree + 1)]


def commutes_with_generators(p: NcPoly) -> bool:
    """True iff p commutes with both x and y, hence is central."""
    if p.alphabet != XY:
        raise AlphabetMismatchError("expects the x,y alphabet")
    for letter in ("x", "y"):
        g = NcPoly.variable(XY, letter)
        if not xy_to_pbw(p * g - g * p).is_zero:
            return False
    return True
