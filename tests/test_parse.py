"""Polynomial expression parser and printer."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from germlab.orders import grevlex
from germlab.parse import MAX_NESTING, ParseError, _mono_string, _number, _tokenize, parse_poly, poly_to_string
from germlab.poly import Poly
from germlab.qi import QI

from conftest import P

VARS = ["x", "y", "z"]


def test_basic_forms():
    assert P("x") == Poly.variable(3, 0)
    assert P("x^2*y") == Poly.from_terms(3, [((2, 1, 0), QI.one())])
    assert P("3*x - 2*y") == Poly.from_terms(3, [((1, 0, 0), QI(3)), ((0, 1, 0), QI(-2))])
    assert P("1/2*z^4") == Poly.from_terms(3, [((0, 0, 4), QI(Fraction(1, 2)))])
    assert P("-x + 1") == Poly.from_terms(3, [((1, 0, 0), QI(-1)), ((0, 0, 0), QI.one())])


def test_imaginary_unit():
    assert P("i*x") == Poly.from_terms(3, [((1, 0, 0), QI.i())])
    assert P("i*i") == Poly.constant(3, QI(-1))
    assert P("(2 + 3*i)*y") == Poly.from_terms(3, [((0, 1, 0), QI(2, 3))])


def test_whitespace_and_signs():
    assert P("  x   +y ") == P("x + y")
    assert P("+x") == P("x")
    with pytest.raises(ParseError):
        parse_poly("x - - y", VARS)  # double signs are not part of the grammar


def test_like_terms_collect():
    assert P("x + x + x") == P("3*x")
    assert P("x - x") == Poly.zero(3)


def test_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_poly("x^2 + +", VARS)
    assert "position" in str(err.value)
    assert err.value.position == 6

    with pytest.raises(ParseError):
        parse_poly("w + x", VARS)  # unknown identifier
    with pytest.raises(ParseError):
        parse_poly("x^-2", VARS)  # negative exponent
    with pytest.raises(ParseError):
        parse_poly("x^0 + 1/0", VARS)  # zero exponent comes first
    with pytest.raises(ParseError):
        parse_poly("1/0", VARS)  # zero denominator
    with pytest.raises(ParseError):
        parse_poly("(x + y)*z", VARS)  # parens are for constants only
    with pytest.raises(ParseError):
        parse_poly("", VARS)


def test_numbers_are_decimal_digits():
    # a superscript digit is a digit to str.isdigit but no number to int()
    with pytest.raises(ParseError, match="unexpected character '²'") as err:
        parse_poly("x^²+y^3", VARS)
    assert err.value.position == 2
    with pytest.raises(ParseError, match="unexpected character '²'"):
        parse_poly("x^1²", VARS)
    # every decimal digit int() reads still parses, to the same value
    assert parse_poly("\u0663*x^\u0662", VARS) == P("3*x^2")


def test_numbers_past_the_digit_limit_are_parse_errors():
    long = "1" * 5000
    for text, position in ((f"{long}*x", 0), (f"x^{long}", 2), (f"1/{long}*x", 2)):
        with pytest.raises(ParseError, match="number too long [(]5000 digits[)]") as err:
            parse_poly(text, VARS)
        assert err.value.position == position
    assert parse_poly("1" * 4000 + "*x", VARS) == Poly.from_terms(3, [((1, 0, 0), QI(int("1" * 4000)))])


def test_nesting_stops_at_the_first_parenthesis_past_the_bound():
    deepest = "(" * MAX_NESTING + "2" + ")" * MAX_NESTING
    assert parse_poly(f"{deepest}*x", VARS) == P("2*x")
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING}") as err:
        parse_poly(f"x + ({deepest})", VARS)
    assert err.value.position == 4 + MAX_NESTING


def test_variable_name_i_is_reserved():
    with pytest.raises(ValueError):
        parse_poly("i", ["i", "x"])


def test_printer_orders_grevlex_descending():
    assert poly_to_string(P("1 + x^2 + y"), VARS) == "x^2 + y + 1"
    assert poly_to_string(Poly.zero(3), VARS) == "0"
    assert poly_to_string(P("-x - 1/2"), VARS) == "-x - 1/2"
    assert poly_to_string(P("i*x - i"), VARS) == "i*x - i"


coeffs = st.builds(
    QI,
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)
monomials = st.tuples(*[st.integers(min_value=0, max_value=5)] * 3)


@settings(max_examples=150)
@given(st.dictionaries(monomials, coeffs, max_size=6))
def test_print_parse_round_trip(terms):
    f = Poly.from_terms(3, terms.items())
    text = poly_to_string(f, VARS)
    assert parse_poly(text, VARS) == f


# -- the printer before it read the integer triples: poly_to_string and
# format_qi through Fraction parts, kept verbatim under new names as the
# oracle for the test below ------------------------------------------------


def _fraction_format_qi(c: QI) -> str:
    """Canonical text form, re-parseable by the polynomial grammar.

    Pure rationals print bare (``3``, ``-1/2``), pure imaginaries print as
    ``i``/``-i``/``2*i``/``-2/3*i``, mixed values are parenthesized in the
    ``(a+b*i)`` shape required by the coefficient grammar.
    """
    re, im = c.re, c.im  # Fractions print "a" or "a/b"
    if not im:
        return str(re)
    if not re:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return f"{im}*i"
    if im > 0:
        im_part = "i" if im == 1 else f"{im}*i"
        return f"({re}+{im_part})"
    im_part = "i" if im == -1 else f"{-im}*i"
    return f"({re}-{im_part})"


def _fraction_poly_to_string(f: Poly, names: list[str]) -> str:
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
        if c.im and c.re:
            coeff_str, negative = _fraction_format_qi(c), False
        else:
            value = c.re if not c.im else c.im
            negative = value < 0
            abs_c = QI(-c.re, -c.im) if negative else c
            if not mono_str and abs_c == QI.one():
                coeff_str = "1"
            elif abs_c == QI.one():
                coeff_str = ""
            elif not abs_c.re and abs_c.im == 1:
                coeff_str = "i"
            else:
                coeff_str = _fraction_format_qi(abs_c)
        if coeff_str and mono_str:
            body = f"{coeff_str}*{mono_str}"
        else:
            body = coeff_str or mono_str
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)


units = st.sampled_from([1, -1])
small = st.integers(-40, 40)
big = st.integers(-(2**80), 2**80)
denominators = st.integers(1, 12) | st.integers(2**64, 2**80)
rationals = st.builds(Fraction, small | big, denominators)
printer_coeffs = st.one_of(
    st.builds(QI, small | big),  # integers
    st.builds(QI, rationals),
    units.map(QI),  # +-1
    units.map(lambda u: QI(0, u)),  # +-i
    st.builds(lambda y: QI(0, y), rationals),  # pure imaginary
    st.builds(QI, rationals, rationals),  # mixed
    # mixed, with a real part that reduces on its own: (2+3i)/4
    st.builds(lambda a, b, d: QI(Fraction(a, d), Fraction(b, d)), small, small, st.integers(1, 12)),
)
constant_or_monomials = st.just((0, 0, 0)) | monomials


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(constant_or_monomials, printer_coeffs, max_size=6))
@example({(0, 0, 0): QI(Fraction(2, 4), Fraction(3, 4)), (1, 0, 0): QI(0, -1), (0, 1, 0): QI(-1)})
@example({(0, 0, 0): QI(1), (0, 0, 1): QI(1), (2, 0, 0): QI(0, Fraction(-2, 3))})
@example({(0, 0, 0): QI(0, 1), (1, 1, 0): QI(Fraction(-1, 2), -1)})
def test_printer_matches_the_fraction_printer(terms):
    f = Poly.from_terms(3, terms.items())
    assert poly_to_string(f, VARS) == _fraction_poly_to_string(f, VARS)
    for c in terms.values():
        assert str(c) == _fraction_format_qi(c)


# -- the parser before it read terms: a Poly per factor, multiplied and raised
# by Poly.__pow__, the sum rebuilt at every sign.  Its _Parser body is kept
# verbatim under a new name as the oracle for the tests below; only
# ``base ** e`` calls the test-local copy of Poly.__pow__ ------------------


def _poly_pow(self: Poly, k: int) -> Poly:
    if k < 0:
        raise ValueError("negative power of a polynomial")
    out = Poly.constant(self.nvars, 1)
    base = self
    while k:
        if k & 1:
            out = out * base
        base = base * base if k > 1 else base
        k >>= 1
    return out


class _PolyParser:
    def __init__(self, text: str, variables: list[str]):
        if "i" in variables:
            raise ParseError("'i' is reserved for the imaginary unit", 0)
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.variables = variables
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
        total = Poly.zero(self.nvars)
        sign = 1
        kind, value, _ = self.peek()
        if kind == "sym" and value in "+-":
            self.advance()
            sign = -1 if value == "-" else 1
        while True:
            term = self.parse_term()
            if sign < 0:
                term = -term
            total = total + term
            kind, value, at = self.peek()
            if kind == "sym" and value in "+-":
                self.advance()
                sign = -1 if value == "-" else 1
                continue
            return total

    # term := factor { "*" factor }
    def parse_term(self) -> Poly:
        out = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value == "*":
                self.advance()
                out = out * self.parse_factor()
                continue
            return out

    def parse_factor(self) -> Poly:
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
                return Poly.constant(self.nvars, QI(Fraction(num, den)))
            return Poly.constant(self.nvars, QI(num))
        if kind == "ident":
            self.advance()
            if value == "i":
                base = Poly.constant(self.nvars, QI.i())
            elif value in self.var_index:
                base = Poly.variable(self.nvars, self.var_index[value])
            else:
                raise ParseError(f"unknown identifier {value!r}", at)
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
                return _poly_pow(base, e)
            return base
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
            return inner
        raise ParseError("expected a coefficient, variable, or '('", at)


def _poly_parse(text: str, variables: list[str]) -> Poly:
    parser = _PolyParser(text, variables)
    poly = parser.parse_poly()
    kind, value, at = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected {value!r}", at)
    return poly


def _outcome(parse, text: str):
    """The terms, in order, or the error text and position."""
    try:
        return list(parse(text, VARS).terms.items())
    except ParseError as err:
        return str(err), err.position


huge = st.integers(10**29, 10**30)
numerals = (st.integers(0, 12) | huge).map(str)
exponents = (st.integers(0, 5) | huge | st.sampled_from([10**30, 10**30 + 1, 10**30 + 2, 10**30 + 3])).map(str)
powers = st.builds(lambda base, e: base if e is None else f"{base}^{e}", st.sampled_from(VARS + ["i"]), st.none() | exponents)
rational_factors = numerals | st.builds(lambda n, d: f"{n}/{d}", numerals, numerals)
sign_texts = st.sampled_from(["+", "-", " + ", " - "])


def _sums(factors):
    """[sign] term { sign term } over the given factor texts."""
    terms = st.lists(factors, min_size=1, max_size=3).map("*".join)
    return st.builds(
        lambda lead, first, rest: lead + first + "".join(s + t for s, t in rest),
        st.sampled_from(["", "-", "+"]), terms, st.lists(st.tuples(sign_texts, terms), max_size=3),
    )


def _groups(factors):
    """A parenthesized sum, or a term minus itself: (x-x) is the constant 0."""
    term = st.lists(factors, min_size=1, max_size=3).map("*".join)
    return _sums(factors).map(lambda p: f"({p})") | term.map(lambda t: f"({t} - {t})")


#: nested constants (and the sums and groups around them that are not)
factor_texts = st.recursive(rational_factors | powers, _groups, max_leaves=6)


@st.composite
def poly_texts(draw):
    """Polynomial texts, valid or, in about half the draws, with one
    character inserted or deleted."""
    text = draw(_sums(factor_texts))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:k] + draw(st.sampled_from(list("+-*/^()i0 w²") + ["x^", "^-", "/0", "^0"])) + text[k:]
        else:
            text = text[:k] + text[k + 1:]
    return text


@settings(max_examples=200, deadline=None)
@given(poly_texts())
@example("i^1000000000000000000000000000000*x - i^1000000000000000000000000000003")
@example("(x-x)*y^1000000000000000000000000000000 + ((1/2 - i)*(x*y - x*y))*z")
@example("-(2/3)*x^2 + (((i)))^2")
@example("x^3 + (x + 1)")
@example(f"{'(' * MAX_NESTING}x-x{')' * MAX_NESTING} + ({'(' * MAX_NESTING}1{')' * MAX_NESTING})")
def test_parse_matches_the_poly_parser(text):
    assert _outcome(parse_poly, text) == _outcome(_poly_parse, text)


def test_each_polynomial_read_builds_one_poly():
    # one Poly for the text and one per parenthesized group, however many
    # terms: the n-term sums here are seeded, with a group in some terms
    rng = random.Random(0)
    init = Poly.__init__
    for n in (1, 2, 50, 400):
        terms = []
        for _ in range(n):
            parts = [f"{rng.randint(1, 9)}/{rng.randint(1, 9)}", f"i^{rng.randint(1, 7)}"]
            parts += [f"{v}^{rng.randint(1, 9)}" for v in VARS if rng.random() < 0.6]
            if rng.random() < 0.2:
                parts.append(rng.choice(["(1 + 2*i)", "((3))", "(x - x)", "(-i*(1/2 - i))"]))
            rng.shuffle(parts)
            terms.append("*".join(parts))
        text = " - ".join(terms)
        with mock.patch.object(Poly, "__init__", autospec=True, side_effect=init) as built:
            parse_poly(text, VARS)
        assert built.call_count == 1 + text.count("(")
