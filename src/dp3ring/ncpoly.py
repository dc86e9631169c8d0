"""Noncommutative polynomials over Q(zeta) on a weighted, ordered alphabet,
plus a small expression parser.

A word is a plain string of single-letter variables and a polynomial is a
finite map word -> coefficient with zero coefficients dropped, so equality
is map equality.  Multiplication concatenates words and never reorders
anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CycNum, ZETA


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

    def index(self, letter: str) -> int:
        return self.letters.index(letter)

    def __contains__(self, letter: str) -> bool:
        return letter in self.letters


XY = Alphabet("xy", ("x", "y"), (1, 2))
WZX = Alphabet("wzx", ("w", "z", "x"), (2, 3, 1))
ALPHABETS = {a.name: a for a in (XY, WZX)}


def word_degree(word: str, alphabet: Alphabet) -> int:
    """Weighted degree: the sum of the letter weights."""
    return sum(alphabet.weight(ch) for ch in word)


def render_word(word: str) -> str:
    """A word as the grammar writes it, runs as powers: "wwzx" -> "w^2*z*x"."""
    if not word:
        return "1"
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        run = j - i
        parts.append(word[i] if run == 1 else f"{word[i]}^{run}")
        i = j
    return "*".join(parts)


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
    def zero(cls, alphabet: Alphabet) -> NcPoly:
        return cls(alphabet)

    @classmethod
    def scalar(cls, alphabet: Alphabet, value) -> NcPoly:
        return cls(alphabet, {"": value})

    @classmethod
    def variable(cls, alphabet: Alphabet, letter: str) -> NcPoly:
        return cls(alphabet, {letter: 1})

    @classmethod
    def term(cls, alphabet: Alphabet, word: str, coeff=1) -> NcPoly:
        return cls(alphabet, {word: coeff})

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
            out[word] = out.get(word, CycNum(0)) + coeff
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
                out[word] = out.get(word, CycNum(0)) + c1 * c2
        return NcPoly(self.alphabet, out)

    def __rmul__(self, other):
        scalar = CycNum._coerce(other)
        if scalar is None:
            return NotImplemented
        return self * scalar

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial exponents must be non-negative integers")
        out = NcPoly.scalar(self.alphabet, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self.alphabet == other.alphabet and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

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
                out[w] = out.get(w, CycNum(0)) + c * coeff
        return NcPoly(target, out)

    # -- rendering ---------------------------------------------------------------

    def _sort_key(self, word: str):
        return (
            word_degree(word, self.alphabet),
            tuple(self.alphabet.index(ch) for ch in word),
        )

    def sorted_terms(self) -> list[tuple[str, CycNum]]:
        """Terms in canonical order: degree first, then letter-order lex."""
        return sorted(self.terms.items(), key=lambda kv: self._sort_key(kv[0]))

    def render(self) -> str:
        if not self.terms:
            return "0"
        terms = self.sorted_terms()
        many = len(terms) > 1
        pieces = [_render_term(coeff, word, many) for word, coeff in terms]
        out = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"<{self.alphabet.name}: {self.render()}>"


def _render_term(coeff: CycNum, word: str, many_terms: bool) -> str:
    if not word:
        if coeff.q != 0 and coeff.p != 0 and many_terms:
            return f"({coeff})"
        return str(coeff)
    body = render_word(word)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    if coeff.q == 0:
        return f"{coeff.p}*{body}"
    if coeff.p == 0:
        if coeff.q == 1:
            return f"zeta*{body}"
        if coeff.q == -1:
            return f"-zeta*{body}"
        return f"{coeff.q}*zeta*{body}"
    return f"({coeff})*{body}"


# -- parsing ---------------------------------------------------------------
#
# expr   := ('+'|'-')? term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := atom ('^' nonneg-int)?
# atom   := variable | rational | 'zeta' | '(' expr ')'
#
# '*' is mandatory: juxtaposition is not multiplication, and the parser
# never reorders operands.  Parentheses nest at most MAX_NESTING deep, so a
# hostile input is a parse error, not a RecursionError.

MAX_NESTING = 100


def _literal(digits: str, pos: int) -> int:
    """An integer literal; one too long for `int` is a parse error."""
    try:
        return int(digits)
    except ValueError:
        message = f"integer literal of {len(digits)} digits is too long"
        raise ParseError(message, pos) from None


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            num = _literal(text[i:j], i)
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                den = _literal(text[j + 1 : k], j + 1)
                if den == 0:
                    raise ParseError("zero denominator", i)
                tokens.append(("num", Fraction(num, den), i))
                i = k
            else:
                tokens.append(("num", Fraction(num), i))
                i = j
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
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                out = out * self.parse_factor()
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
            return base ** int(value)
        return base

    def parse_atom(self) -> NcPoly:
        kind, value, pos = self.advance()
        if kind == "num":
            return NcPoly.scalar(self.alphabet, Fraction(value))
        if kind == "name":
            if value == "zeta":
                return NcPoly.scalar(self.alphabet, ZETA)
            if len(value) == 1 and value in self.alphabet:
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


def parse(text: str, alphabet: Alphabet | str) -> NcPoly:
    """Parse an expression into a polynomial over the given alphabet."""
    if isinstance(alphabet, str):
        try:
            alphabet = ALPHABETS[alphabet]
        except KeyError:
            raise ValueError(f"unknown alphabet {alphabet!r}") from None
    parser = _Parser(_tokenize(text), alphabet)
    out = parser.parse_expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return out
