"""The text grammar for scalars, Laurent entries, matrices, bundle files
and factorization certificates.

    file   := header? matrix
    header := "rank:" INT NEWLINE
    matrix := row (";" row)*
    row    := entry ("," entry)*
    entry  := term ("+" term)*
    term   := coeff ("*" monomial)? | monomial
    monomial := "z^" SINT
    coeff  := rat | "(" rat "," rat ")"
    rat    := SINT ("/" UINT)?

Whitespace and line breaks are insignificant outside tokens (the header
newline excepted).  Example entry: ``(0,1)*z^-2 + 3/4 + z^5``.  The
pretty-printers below emit exactly this grammar, so print -> parse is the
identity.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .bundle import VectorBundle
from .errors import ParseError, SystemTooLarge
from .exact import GaussianRational, ONE
from .laurent import LaurentPoly
from .lmatrix import LaurentMatrix

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<zpow>z\^[+-]?\d+)
  | (?P<rat>[+-]?\d+(?:/\d+)?)
  | (?P<punct>[(),;+*])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def _tokenize(text: str):
    tokens = []
    pos = 0
    line = 1
    col = 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tokens.append(_Token(kind if kind != "punct" else value, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    return tokens


def _integer(text: str, line: int, column: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than int() will convert
        message = f"number of {len(text)} characters is too long"
        raise ParseError(message, line, column) from None


class _Parser:
    def __init__(self, tokens, end_line, end_col):
        self.tokens = tokens
        self.pos = 0
        self.end = (end_line, end_col)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def fail(self, message, tok=None):
        if tok is None:
            tok = self.peek()
        if tok is None:
            raise ParseError(message + " at end of input", *self.end)
        raise ParseError(message, tok.line, tok.column)

    def expect(self, kind):
        tok = self.next()
        if tok is None or tok.kind != kind:
            self.fail(f"expected {kind!r}", tok)
        return tok

    def rational(self) -> Fraction:
        tok = self.expect("rat")
        num, _, den = tok.value.partition("/")
        num = _integer(num, tok.line, tok.column)
        if not den:
            return Fraction(num)
        den = _integer(den, tok.line, tok.column)
        if den == 0:
            self.fail("zero denominator", tok)
        return Fraction(num, den)

    def coeff(self) -> GaussianRational:
        tok = self.peek()
        if tok is not None and tok.kind == "(":
            self.next()
            re_part = self.rational()
            self.expect(",")
            im_part = self.rational()
            self.expect(")")
            return GaussianRational(re_part, im_part)
        return GaussianRational(self.rational())

    def term(self):
        tok = self.peek()
        if tok is None:
            self.fail("expected term")
        if tok.kind == "zpow":
            self.next()
            return ONE, _integer(tok.value[2:], tok.line, tok.column)
        c = self.coeff()
        tok = self.peek()
        if tok is not None and tok.kind == "*":
            self.next()
            ztok = self.expect("zpow")
            return c, _integer(ztok.value[2:], ztok.line, ztok.column)
        return c, 0

    def entry(self) -> LaurentPoly:
        coeffs = {}
        while True:
            c, e = self.term()
            if c:
                prev = coeffs.get(e)
                coeffs[e] = c if prev is None else prev + c
            tok = self.peek()
            if tok is not None and tok.kind == "+":
                self.next()
                continue
            break
        return LaurentPoly(coeffs)

    def row(self):
        entries = [self.entry()]
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == ",":
                self.next()
                entries.append(self.entry())
            else:
                return entries

    def matrix(self) -> LaurentMatrix:
        rows = [self.row()]
        while True:
            tok = self.peek()
            if tok is None:
                break
            if tok.kind == ";":
                self.next()
                rows.append(self.row())
            else:
                self.fail("expected ';' between rows")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ParseError("rows have differing entry counts", *self.end)
        return LaurentMatrix(rows)


def _end_position(text: str):
    line = text.count("\n") + 1
    col = len(text) - text.rfind("\n")
    return line, col


def parse_scalar(text: str) -> GaussianRational:
    """Parse a standalone scalar: `a/b` or `(a/b, c/d)`."""
    parser = _Parser(_tokenize(text), *_end_position(text))
    value = parser.coeff()
    if parser.peek() is not None:
        parser.fail("trailing input after scalar")
    return value


def parse_poly(text: str) -> LaurentPoly:
    """Parse a standalone Laurent-polynomial entry."""
    parser = _Parser(_tokenize(text), *_end_position(text))
    value = parser.entry()
    if parser.peek() is not None:
        parser.fail("trailing input after entry")
    return value


def parse_matrix(text: str) -> LaurentMatrix:
    """Parse a matrix: entries separated by ',', rows by ';'."""
    parser = _Parser(_tokenize(text), *_end_position(text))
    return parser.matrix()


_HEADER_RE = re.compile(r"\A\s*rank\s*:\s*(?P<rank>[+-]?\d+)[^\S\n]*\n")


def parse_bundle(text: str) -> VectorBundle:
    """Parse a bundle document: optional `rank: k` header, then a matrix.

    A declared rank must match the parsed matrix size (ParseError
    otherwise); validity of the transition matrix is then checked, raising
    InvalidBundle for a degenerate determinant.
    """
    declared = None
    body = text
    offset_lines = 0
    m = _HEADER_RE.match(text)
    if m is not None:
        declared = _integer(m.group("rank"), *_end_position(text[: m.start("rank")]))
        body = text[m.end():]
        offset_lines = text[: m.end()].count("\n")
    tokens = _tokenize(body)
    for tok in tokens:
        tok.line += offset_lines
    end_line, end_col = _end_position(body)
    parser = _Parser(tokens, end_line + offset_lines, end_col)
    matrix = parser.matrix()
    if declared is not None and declared != matrix.rows:
        raise ParseError(
            f"declared rank {declared} does not match matrix size {matrix.rows}"
        )
    return VectorBundle(matrix)


def parse_factorization(text: str):
    """Parse the three labeled blocks `W:`, `U:`, `D:` of a certificate."""
    from .splitter import Factorization

    labels = list(re.finditer(r"([WUD])\s*:", text))
    if [m.group(1) for m in labels] != ["W", "U", "D"]:
        raise ParseError("factorization file must contain blocks W:, U:, D: in order")
    blocks = {}
    for idx, m in enumerate(labels):
        start = m.end()
        stop = labels[idx + 1].start() if idx + 1 < len(labels) else len(text)
        blocks[m.group(1)] = parse_matrix(text[start:stop])
    return Factorization(blocks["W"], blocks["U"], blocks["D"])


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _digit_count(n: int) -> int:
    """Decimal digits of n, counted without converting n to text."""
    n = abs(n)
    d = max(1, int((n.bit_length() - 1) * 0.30102999566398120))
    while d > 1 and 10 ** (d - 1) > n:
        d -= 1
    while 10**d <= n:
        d += 1
    return d


def _decimal(n: int) -> str:
    """str(n), or SystemTooLarge when n has more digits than the interpreter
    converts to text (``sys.get_int_max_str_digits()``, 4300 by default):
    the parser refuses such a number, so its text could not be read back."""
    try:
        return str(n)
    except ValueError:
        digits, limit = _digit_count(n), sys.get_int_max_str_digits()
        raise SystemTooLarge(
            f"a {digits}-digit number is over the {limit}-digit printing limit"
        ) from None


def _rational(q: Fraction) -> str:
    num = _decimal(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_decimal(q.denominator)}"


def format_scalar(c: GaussianRational) -> str:
    """The coefficient in the grammar above; SystemTooLarge for a part over
    the printing limit (:func:`_decimal`), before anything is printed or
    written."""
    if c.im == 0:
        return _rational(c.re)
    return f"({_rational(c.re)}, {_rational(c.im)})"


def format_poly(p: LaurentPoly) -> str:
    if p.is_zero():
        return "0"
    terms = []
    for e in p.support:
        c = p.coeff(e)
        if e == 0:
            terms.append(format_scalar(c))
        elif c == ONE:
            terms.append(f"z^{_decimal(e)}")
        else:
            terms.append(f"{format_scalar(c)}*z^{_decimal(e)}")
    return " + ".join(terms)


def format_matrix(m: LaurentMatrix, multiline: bool = False) -> str:
    rows = [", ".join(format_poly(e) for e in row) for row in m.entries]
    if multiline:
        return ";\n".join(rows)
    return " ; ".join(rows)


def format_bundle(e: VectorBundle) -> str:
    return f"rank: {e.rank}\n{format_matrix(e.transition, multiline=True)}\n"


def format_factorization(fact) -> str:
    parts = []
    for label, m in (("W", fact.w), ("U", fact.u), ("D", fact.d)):
        parts.append(f"{label}:\n{format_matrix(m, multiline=True)}")
    return "\n".join(parts) + "\n"
