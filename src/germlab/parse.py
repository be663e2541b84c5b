"""Polynomial text grammar: parser and canonical printer.

Grammar (whitespace ignored, no implicit multiplication):

    poly    := [sign] term { sign term }
    term    := factor { "*" factor }
    factor  := NUMBER [ "/" NUMBER ]          rational coefficient
             | IDENT [ "^" NUMBER ]           power of a declared variable or of i
             | "(" poly ")"                   parenthesized constant, e.g. (1+2*i)

Every identifier must be a declared variable or the literal ``i``; ``i`` is
reserved and cannot be declared as a variable.  Parenthesized sub-expressions
must evaluate to constants (they exist for complex coefficients only).
Exponents are positive integers.  Parentheses nest at most ``MAX_NESTING``
deep, so the recursive descent stays well inside Python's recursion limit.
Errors carry the offending position.  A term is a coefficient times a
monomial: its factors multiply into one ``QI`` and add into one exponent
vector.  Each polynomial read (the text, or a parenthesized group) is built
once, as one ``Poly`` of its signed terms, so parsing is linear in the terms.

The printer emits a canonical form (terms in descending graded reverse
lexicographic order, monic-style coefficient formatting) that re-parses to the
identical polynomial; round-tripping is property-tested.
"""

from __future__ import annotations

from fractions import Fraction

from germlab.orders import grevlex
from germlab.poly import Monomial, Poly
from germlab.qi import QI, _ratio, format_qi


class ParseError(ValueError):
    """Syntax or validation error with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_SYMBOLS = set("+-*/^()")

#: deepest parenthesis nesting accepted; each level costs three stack frames.
MAX_NESTING = 100

_ONE = QI.one()
_I_POWERS = (_ONE, QI.i(), QI(-1), QI(0, -1))  # i^e is _I_POWERS[e % 4]


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    k = 0
    n = len(text)
    while k < n:
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch.isdecimal():
            start = k
            while k < n and text[k].isdecimal():
                k += 1
            tokens.append(("number", text[start:k], start))
            continue
        if ch.isalpha() or ch == "_":
            start = k
            while k < n and (text[k].isalnum() or text[k] == "_"):
                k += 1
            tokens.append(("ident", text[start:k], start))
            continue
        if ch in _SYMBOLS:
            tokens.append(("sym", ch, k))
            k += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", k)
    tokens.append(("end", "", n))
    return tokens


def _number(value: str, at: int) -> int:
    """A number token's value; ``int`` refuses only those past its digit limit."""
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"number too long ({len(value)} digits)", at) from None


class _Parser:
    def __init__(self, text: str, variables: list[str]):
        if "i" in variables:
            raise ParseError("'i' is reserved for the imaginary unit", 0)
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.var_index = {name: j for j, name in enumerate(variables)}
        self.nvars = len(variables)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_sym(self, sym: str):
        kind, value, at = self.peek()
        if kind != "sym" or value != sym:
            raise ParseError(f"expected {sym!r}", at)
        return self.advance()

    # poly := [sign] term { sign term }
    def parse_poly(self) -> Poly:
        terms: list[tuple[Monomial, QI]] = []
        kind, value, _ = self.peek()
        while True:
            if kind == "sym" and value in "+-":
                self.advance()
            mono, c = self.parse_term()
            terms.append((mono, -c if value == "-" else c))  # value: the sign read, if any
            kind, value, _ = self.peek()
            if kind != "sym" or value not in "+-":
                return Poly.from_terms(self.nvars, terms)

    # term := factor { "*" factor }: the coefficients multiply, the exponents add
    def parse_term(self) -> tuple[Monomial, QI]:
        coeff, exponents = _ONE, [0] * self.nvars
        while True:
            factor = self.parse_factor()
            if isinstance(factor, QI):
                coeff = coeff * factor
            else:
                exponents[factor[0]] += factor[1]
            kind, value, _ = self.peek()
            if kind != "sym" or value != "*":
                return tuple(exponents), coeff
            self.advance()

    # factor: a coefficient, or a variable power as (index, exponent)
    def parse_factor(self) -> QI | tuple[int, int]:
        kind, value, at = self.peek()
        if kind == "number":
            self.advance()
            num = _number(value, at)
            k2, v2, _ = self.peek()
            if k2 == "sym" and v2 == "/":
                self.advance()
                k3, v3, at3 = self.peek()
                if k3 != "number":
                    raise ParseError("expected a denominator", at3)
                self.advance()
                den = _number(v3, at3)
                if den == 0:
                    raise ParseError("zero denominator", at3)
                return QI(Fraction(num, den))
            return QI(num)
        if kind == "ident":
            self.advance()
            if value != "i" and value not in self.var_index:
                raise ParseError(f"unknown identifier {value!r}", at)
            e = 1
            k2, v2, _ = self.peek()
            if k2 == "sym" and v2 == "^":
                self.advance()
                k3, v3, at3 = self.peek()
                if k3 == "sym" and v3 == "-":
                    raise ParseError("negative exponent", at3)
                if k3 != "number":
                    raise ParseError("expected an integer exponent", at3)
                self.advance()
                e = _number(v3, at3)
                if e < 1:
                    raise ParseError("exponent must be a positive integer", at3)
            return _I_POWERS[e % 4] if value == "i" else (self.var_index[value], e)
        if kind == "sym" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", at)
            self.advance()
            self.depth += 1
            inner = self.parse_poly()
            self.depth -= 1
            self.expect_sym(")")
            if not inner.is_constant():
                raise ParseError("parenthesized coefficients must be constant", at)
            return inner.constant_term()
        raise ParseError("expected a coefficient, variable, or '('", at)


def parse_poly(text: str, variables: list[str]) -> Poly:
    """Parse ``text`` over the declared variables (order fixes exponent slots)."""
    parser = _Parser(text, variables)
    poly = parser.parse_poly()
    kind, value, at = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected {value!r}", at)
    return poly


# ---------------------------------------------------------------------------
# canonical printing


def _mono_string(mono: Monomial, names: list[str]) -> str:
    parts = []
    for e, name in zip(mono, names):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def poly_to_string(f: Poly, names: list[str]) -> str:
    """Canonical text form; ``parse_poly(poly_to_string(f), names) == f``."""
    if f.is_zero():
        return "0"
    pieces: list[str] = []
    for mono in sorted(f.terms, key=grevlex(f.nvars).key, reverse=True):
        c = f.terms[mono]
        mono_str = _mono_string(mono, names)
        # Sign handling: absorb the sign for real and pure-imaginary
        # coefficients; mixed complex coefficients stay parenthesized with a
        # leading "+".
        a, b, d = c._a, c._b, c._d
        if a and b:
            coeff_str, negative = format_qi(c), False
        else:
            n = a or b
            negative = n < 0
            size = _ratio(-n if negative else n, d)
            if b:
                coeff_str = "i" if size == "1" else f"{size}*i"
            else:
                coeff_str = "" if size == "1" and mono_str else size
        if coeff_str and mono_str:
            body = f"{coeff_str}*{mono_str}"
        else:
            body = coeff_str or mono_str
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)
