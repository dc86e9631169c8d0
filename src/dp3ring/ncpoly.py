"""Noncommutative polynomials over Q(zeta) on a weighted, ordered alphabet,
plus a small expression parser.

A word is a plain string of single-letter variables and a polynomial is a
finite map word -> coefficient with zero coefficients dropped, so equality
is map equality.  Multiplication concatenates words and never reorders
anything.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from .cyclotomic import CycNum, ZERO, ZETA, render_powers, render_sum


class AlphabetMismatchError(ValueError):
    """Raised when two polynomials over different alphabets are combined."""


class ParseError(ValueError):
    """Syntax or lookup failure while parsing an expression."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Alphabet:
    """Ordered letters with integer weights; the order fixes term sorting."""

    name: str
    letters: tuple[str, ...]
    weights: tuple[int, ...]

    def weight(self, letter: str) -> int:
        return self.weights[self.letters.index(letter)]


XY = Alphabet("xy", ("x", "y"), (1, 2))
WZX = Alphabet("wzx", ("w", "z", "x"), (2, 3, 1))
ALPHABETS = {a.name: a for a in (XY, WZX)}


def word_degree(word: str, alphabet: Alphabet) -> int:
    """Weighted degree: the sum of the letter weights."""
    return sum(alphabet.weight(ch) for ch in word)


def render_word(word: str) -> str:
    """A word as the grammar writes it, runs as powers: "wwzx" -> "w^2*z*x"."""
    return render_powers((ch, len(list(run))) for ch, run in groupby(word))


class NcPoly:
    """Finite linear combination of words with CycNum coefficients."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: dict | None = None):
        self.alphabet = alphabet
        letters = frozenset(alphabet.letters)
        clean: dict[str, CycNum] = {}
        for word, coeff in (terms or {}).items():
            value = CycNum._coerce(coeff)
            if value is None:
                raise TypeError(f"bad coefficient {coeff!r}")
            if not letters.issuperset(word):
                ch = next(ch for ch in word if ch not in letters)
                raise ValueError(f"letter {ch!r} not in alphabet {alphabet.name!r}")
            if value:
                clean[word] = value
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, alphabet: Alphabet, value) -> NcPoly:
        return cls(alphabet, {"": value})

    @classmethod
    def variable(cls, alphabet: Alphabet, letter: str) -> NcPoly:
        return cls(alphabet, {letter: 1})

    # -- ring structure ------------------------------------------------------

    def _check_same(self, other: NcPoly) -> None:
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError(
                f"mixed alphabets {self.alphabet.name!r} and {other.alphabet.name!r}"
            )

    def __add__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        self._check_same(other)
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            out[word] = out.get(word, ZERO) + coeff
        return NcPoly(self.alphabet, out)

    def __sub__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return NcPoly(self.alphabet, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        scalar = CycNum._coerce(other)
        if scalar is not None:
            return NcPoly(self.alphabet, {w: c * scalar for w, c in self.terms.items()})
        if not isinstance(other, NcPoly):
            return NotImplemented
        self._check_same(other)
        out: dict[str, CycNum] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                word = w1 + w2
                out[word] = out.get(word, ZERO) + c1 * c2
        return NcPoly(self.alphabet, out)

    def __rmul__(self, other):
        scalar = CycNum._coerce(other)
        if scalar is None:
            return NotImplemented
        return self * scalar

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial exponents must be non-negative integers")
        # square and multiply, highest bit first: about 2*log2(k) products
        out = NcPoly.scalar(self.alphabet, 1)
        for bit in bin(k)[2:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self.alphabet == other.alphabet and self.terms == other.terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- grading ---------------------------------------------------------------

    def homogeneous_degree(self) -> int | None:
        """The common weighted degree of all terms, or None if mixed/zero."""
        degrees = {word_degree(w, self.alphabet) for w in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    # -- substitution -------------------------------------------------------------

    def substitute(self, images: dict[str, NcPoly]) -> NcPoly:
        """Apply the algebra homomorphism sending each letter to its image.

        All images must share one alphabet; every letter occurring in the
        polynomial must have an image.
        """
        if not images:
            raise ValueError("substitute needs at least one image to fix the target")
        targets = {img.alphabet for img in images.values()}
        if len(targets) != 1:
            raise AlphabetMismatchError("images live in different alphabets")
        target = targets.pop()
        out: dict[str, CycNum] = {}
        for word, coeff in self.terms.items():
            # the word's coefficient multiplies once, not once per letter
            piece = NcPoly.scalar(target, 1)
            for ch in word:
                try:
                    piece = piece * images[ch]
                except KeyError:
                    raise ValueError(f"no image for letter {ch!r}") from None
            # one running sum: adding polynomials would copy every term so far
            for w, c in piece.terms.items():
                out[w] = out.get(w, ZERO) + c * coeff
        return NcPoly(target, out)

    # -- rendering ---------------------------------------------------------------

    def _sort_key(self, word: str):
        return (
            word_degree(word, self.alphabet),
            tuple(map(self.alphabet.letters.index, word)),
        )

    def render(self) -> str:
        """Terms in canonical order: degree first, then letter-order lex."""
        terms = sorted(self.terms.items(), key=lambda kv: self._sort_key(kv[0]))
        return render_sum((c, render_word(w) if w else "") for w, c in terms)

    __str__ = render

    def __repr__(self):
        return f"<{self.alphabet.name}: {self.render()}>"


# -- parsing ---------------------------------------------------------------
#
# expr   := ('+'|'-')? term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := atom ('^' nonneg-int)?
# atom   := variable | rational | 'zeta' | '(' expr ')'
#
# '*' is mandatory: juxtaposition is not multiplication, and the parser
# never reorders operands.  Parentheses nest at most MAX_NESTING deep, so a
# hostile input is a parse error, not a RecursionError.  A product or power
# whose words would grow past MAX_WORD_LENGTH letters is a parse error too,
# found before it is multiplied out: "x^99999999999" would never finish.
# So is one that may have more than MAX_TERMS terms: "(x+y)^26" has words
# of only 26 letters, but 2^26 of them.  Its terms are distinct words, so
# they number at most the product of its factors' term counts, and at most
# the words of its length over its letters.  That bounds the term pairs each
# multiplication forms too, within a factor of 4; a one-letter product,
# whose pairs collapse onto at most 1,001 words, forms at most 251,001.
# A scalar other than 0 or a sixth root of unity gains over a fifth of a
# digit per factor, so its power past MAX_SCALAR_EXPONENT could never be
# printed and is refused too.

MAX_NESTING = 100
MAX_WORD_LENGTH = 1000
MAX_SCALAR_EXPONENT = 10**5
# measured: (x+y)^14, 2^14 terms, parses in 0.07 s and 18 MB, and (x+y)^16
# in 0.2-0.3 s and 28 MB; a product at the bound may form 4x its terms in pairs
MAX_TERMS = 2**14


def _longest_word(poly: NcPoly) -> int:
    return max(map(len, poly.terms), default=0)


def _bound_words(length: int, pos: int) -> None:
    if length > MAX_WORD_LENGTH:
        message = f"words of {length} letters pass the limit of {MAX_WORD_LENGTH}"
        raise ParseError(message, pos)


def _bound_terms(most: int, letters: set[str], length: int, pos: int) -> None:
    """Refuse a product whose factors' term counts multiply to `most` and
    whose words over `letters` have at most `length` letters, if it may have
    more than MAX_TERMS terms."""
    n = len(letters)
    words = length + 1 if n == 1 else (n ** (length + 1) - 1) // (n - 1)
    if min(most, words) > MAX_TERMS:
        raise ParseError(f"a product may have over {MAX_TERMS} terms", pos)


def bound_product(left: NcPoly, right: NcPoly, pos: int) -> None:
    """Refuse left * right, before it is multiplied out, if it may have more
    than MAX_TERMS terms."""
    letters = set().union(*left.terms, *right.terms)
    length = _longest_word(left) + _longest_word(right)
    _bound_terms(len(left.terms) * len(right.terms), letters, length, pos)


def _literal(digits: str, pos: int) -> int:
    """An integer literal; one too long for `int` is a parse error."""
    try:
        return int(digits)
    except ValueError:
        message = f"integer literal of {len(digits)} digits is too long"
        raise ParseError(message, pos) from None


# a number is a run of ASCII digits, optionally over another such run;
# str.isdigit would also take digits such as "²" that int() refuses
_NUMBER = re.compile(r"([0-9]+)(?:/([0-9]+))?")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        number = _NUMBER.match(text, i)
        if number:
            num = _literal(number[1], i)
            den = 1 if number[2] is None else _literal(number[2], number.start(2))
            if den == 0:
                raise ParseError("zero denominator", i)
            tokens.append(("num", Fraction(num, den), i))
            i = number.end()
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, alphabet: Alphabet):
        self.tokens = tokens
        self.alphabet = alphabet
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, char: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != char:
            raise ParseError(f"expected {char!r}", pos)
        self.advance()

    def parse_expr(self) -> NcPoly:
        negate = False
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            negate = value == "-"
            self.advance()
        out = self.parse_term()
        if negate:
            out = -out
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.parse_term()
                out = out - rhs if value == "-" else out + rhs
            else:
                return out

    def parse_term(self) -> NcPoly:
        out = self.parse_factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                rhs = self.parse_factor()
                _bound_words(_longest_word(out) + _longest_word(rhs), pos)
                bound_product(out, rhs, pos)
                out = out * rhs
            else:
                return out

    def parse_factor(self) -> NcPoly:
        base = self.parse_atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind != "num" or value.denominator != 1:
                raise ParseError("exponent must be a non-negative integer", pos)
            self.advance()
            k = int(value)
            length = _longest_word(base) * k
            _bound_words(length, pos)
            # a letterless base has at most one term, so t^k stays small
            _bound_terms(len(base.terms) ** k, set().union(*base.terms), length, pos)
            # past the word bound only a letterless base is left
            if k > MAX_SCALAR_EXPONENT and not base.is_zero and base**6 != base**0:
                limit = MAX_SCALAR_EXPONENT
                message = f"a scalar power past exponent {limit} is too long to print"
                raise ParseError(message, pos)
            return base**k
        return base

    def parse_atom(self) -> NcPoly:
        kind, value, pos = self.advance()
        if kind == "num":
            return NcPoly.scalar(self.alphabet, value)
        if kind == "name":
            if value == "zeta":
                return NcPoly.scalar(self.alphabet, ZETA)
            if len(value) == 1 and value in self.alphabet.letters:
                return NcPoly.variable(self.alphabet, value)
            raise ParseError(f"unknown variable {value!r}", pos)
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError("expected a variable, number, 'zeta' or '('", pos)


def parse(text: str, alphabet: Alphabet) -> NcPoly:
    """Parse an expression into a polynomial over `alphabet`, an `Alphabet`
    such as `XY` or `WZX` (the CLI looks names up in `ALPHABETS`)."""
    parser = _Parser(_tokenize(text), alphabet)
    out = parser.parse_expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return out
