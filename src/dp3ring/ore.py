"""The ring presented on w, z, x by

    zw = zeta*wz,    xw = -zeta^2*wx + z,    xz = zeta*zx - w^2,

with weights w = 2, z = 3, x = 1.  Its ordered words w^i z^j x^k are a
linear basis: by Bergman's diamond lemma (Adv. Math. 29, 1978) it suffices
that the one ambiguity of the rules, xzw, resolves and that each rule lowers
the measure (#x, #z, inversions), inversions being the pairs x-before-w,
x-before-z and z-before-w; `tests/test_ore.py` checks both from
`REWRITE_RULES`.  The same ring is generated by x (weight 1) and
y = w + x^2 (weight 2) subject to x^5 = yxy and y^2 = xyx.

A normal form is a product taken from the left in that basis, an element
mapping (i, j, k) to the coefficient of w^i z^j x^k.  Times x raises k.
Times g = w or z is w^i z^j T(k, g), T(k, g) the ordered form of x^k g, put
in order by z^j w^a = q^(ja) w^a z^j, q the coefficient of the rule zw.
T(k, g) is x^(k-1) times the rule for xg, which reads only rows below k, so
the table fills upwards within each call.  Each word's product starts from
coefficient 1, so it stays in Z[zeta], and takes the word's coefficient last.
"""

from __future__ import annotations

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


def is_pbw_word(word: str) -> bool:
    """True iff the word is a sorted block w...w z...z x...x."""
    return word == "".join(sorted(word, key=WZX.letters.index))


def _sum(terms) -> dict:
    """The sum of scale * element over (scale, element) pairs, zeros dropped."""
    out: dict = {}
    for scale, element in terms:
        for key, c in element.items():
            c = c if scale is ONE else scale * c
            out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c}


def _ordered_product(p: NcPoly, images: dict[str, tuple[str, ...]]) -> NcPoly:
    """p, each letter replaced by its image, a sum of w,z,x words, in the basis."""
    ((q, _),) = REWRITE_RULES["zw"]
    powers = [ONE]  # powers[n] = q^n
    table = [{"w": {(1, 0, 0): ONE}, "z": {(0, 1, 0): ONE}}]  # table[k][g] = T(k, g)

    def row(k: int) -> dict:
        while len(table) <= k:
            below = {(0, 0, len(table) - 1): ONE}  # T(k, g) = x^(k-1) * (xg)
            table.append({
                g: _sum((coeff, times(below, word)) for coeff, word in REWRITE_RULES["x" + g])
                for g in "wz"
            })
        return table[k]

    def times(element: dict, word: str) -> dict:
        for letter in word:
            if letter == "x":
                element = {(i, j, k + 1): c for (i, j, k), c in element.items()}
                continue
            out: dict = {}
            for (i, j, k), c in element.items():
                for (a, b, e), t in row(k)[letter].items():
                    if j * a:  # z^j w^a = q^(ja) w^a z^j
                        while len(powers) <= j * a:
                            powers.append(powers[-1] * q)
                        t = t * powers[j * a]
                    key = (i + a, j + b, e)
                    out[key] = out[key] + c * t if key in out else c * t
            element = out
        return element

    def product(word: str) -> dict:
        element = {(0, 0, 0): ONE}
        for letter in word:
            element = _sum((ONE, times(element, image)) for image in images[letter])
        return element

    out = _sum((coeff, product(word)) for word, coeff in p.terms.items())
    return NcPoly(WZX, {"w" * i + "z" * j + "x" * k: c for (i, j, k), c in out.items()})


def normal_form(p: NcPoly) -> NcPoly:
    """Unique ordered-monomial representative of p's class."""
    if p.alphabet != WZX:
        raise AlphabetMismatchError("normal_form expects the w,z,x alphabet")
    return _ordered_product(p, {g: (g,) for g in WZX.letters})


def xy_to_pbw(p: NcPoly) -> NcPoly:
    """Express an x,y-polynomial in the ordered w,z,x basis (y = w + x^2)."""
    if p.alphabet != XY:
        raise AlphabetMismatchError("xy_to_pbw expects the x,y alphabet")
    return _ordered_product(p, {"x": ("x",), "y": ("w", "xx")})


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
