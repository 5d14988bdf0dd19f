"""The text grammar for scalars, Laurent entries, matrices, bundle files
and factorization certificates.

    file   := header? matrix
    cert   := "W:" matrix "U:" matrix "D:" matrix
    header := "rank:" INT NEWLINE
    matrix := row (";" row)*
    row    := entry ("," entry)*
    entry  := term ("+" term)*
    term   := coeff ("*" monomial)? | monomial
    monomial := "z^" INT
    coeff  := rat | "(" rat "," rat ")"
    rat    := ("+" | "-")? UINT ("/" UINT)?

UINT is a run of the ASCII digits 0-9.  A monomial ``z^n`` is one token.
Whitespace and line breaks may fall between any two tokens (the header
newline excepted), even between a sign and its digits: ``- 3`` is -3, and
``1+2`` is the two terms 1 and 2.
Example entry: ``(0,1)*z^-2 + 3/4 + z^5``.  The pretty-printers below emit
exactly this grammar, so print -> parse is the identity.
"""

from __future__ import annotations

import re
import sys
from math import gcd, lcm

from .bundle import VectorBundle
from .errors import ParseError, SystemTooLarge
from .exact import GaussianRational, ONE, _canonical
from .laurent import LaurentPoly
from .lmatrix import LaurentMatrix

# One token after any whitespace; ``bad`` is a character that starts none.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<zpow>z\^[+-]?[0-9]+)|(?P<uint>[0-9]+)|(?P<punct>[-+*/(),;])"
    r"|(?P<bad>.)|(?P<end>\Z))"
)


def _fail(message: str, text: str, pos: int):
    """Raise ParseError at offset ``pos`` of ``text``, as a line and column."""
    line = text.count("\n", 0, pos) + 1
    raise ParseError(message, line, pos - text.rfind("\n", 0, pos))


def _integer(digits: str, text: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() will convert
        pass
    _fail(f"number of {len(digits)} characters is too long", text, pos)


class _Parser:
    """Recursive descent over ``text[start:end]``, scanned in place with one
    token of lookahead, ``tok`` = (kind, value, offset)."""

    def __init__(self, text: str, start: int, end: int):
        self.text, self.pos, self.end = text, start, end
        self.advance()

    def advance(self):
        m = _TOKEN_RE.match(self.text, self.pos, self.end)
        kind = m.lastgroup
        self.tok = (kind, m.group(kind), m.start(kind))
        if kind == "bad":
            self.fail(f"unexpected character {m.group(kind)!r}")
        self.pos = m.end()

    def fail(self, message: str):
        kind, _, pos = self.tok
        _fail(message + (" at end of input" if kind == "end" else ""), self.text, pos)

    def accept(self, char: str) -> bool:
        if self.tok[1] != char:
            return False
        self.advance()
        return True

    def expect(self, char: str):
        if not self.accept(char):
            self.fail(f"expected {char!r}")

    def integer(self, kind: str) -> int:
        """The value of the next token, which must be a ``uint``, or a
        ``zpow`` (its exponent), as ``kind`` says."""
        tok_kind, value, pos = self.tok
        if tok_kind != kind:
            self.fail("expected a number" if kind == "uint" else "expected 'z^n'")
        self.advance()
        return _integer(value.removeprefix("z^"), self.text, pos)

    def rational(self):
        """(numerator, denominator), the denominator positive."""
        sign = -1 if self.tok[1] == "-" else 1
        if self.tok[1] in ("+", "-"):
            self.advance()
        num = sign * self.integer("uint")
        if not self.accept("/"):
            return num, 1
        pos = self.tok[2]
        den = self.integer("uint")
        if not den:
            _fail("zero denominator", self.text, pos)
        return num, den

    def coeff(self) -> GaussianRational:
        if not self.accept("("):
            num, den = self.rational()
            return _canonical(num, 0, den)
        a, q = self.rational()
        self.expect(",")
        b, s = self.rational()
        self.expect(")")
        d = lcm(q, s)
        return _canonical(a * (d // q), b * (d // s), d)

    def term(self):
        if self.tok[0] == "zpow":
            return ONE, self.integer("zpow")
        c = self.coeff()
        return c, (self.integer("zpow") if self.accept("*") else 0)

    def entry(self) -> LaurentPoly:
        coeffs = {}
        while True:
            c, e = self.term()
            coeffs[e] = coeffs[e] + c if e in coeffs else c
            if not self.accept("+"):
                return LaurentPoly(coeffs)

    def row(self):
        entries = [self.entry()]
        while self.accept(","):
            entries.append(self.entry())
        return entries

    def matrix(self) -> LaurentMatrix:
        rows = [self.row()]
        while self.accept(";"):
            pos = self.tok[2]
            rows.append(self.row())
            if len(rows[-1]) != len(rows[0]):
                _fail("rows have differing entry counts", self.text, pos)
        return self.finish(LaurentMatrix(rows), "expected ';' between rows")

    def finish(self, value, message: str):
        if self.tok[0] != "end":
            self.fail(message)
        return value


def parse_scalar(text: str) -> GaussianRational:
    """Parse a standalone scalar: `a/b` or `(a/b, c/d)`."""
    parser = _Parser(text, 0, len(text))
    return parser.finish(parser.coeff(), "trailing input after scalar")


def parse_poly(text: str) -> LaurentPoly:
    """Parse a standalone Laurent-polynomial entry."""
    parser = _Parser(text, 0, len(text))
    return parser.finish(parser.entry(), "trailing input after entry")


def parse_matrix(text: str) -> LaurentMatrix:
    """Parse a matrix: entries separated by ',', rows by ';'."""
    return _Parser(text, 0, len(text)).matrix()


_HEADER_RE = re.compile(r"\A\s*rank\s*:\s*(?P<rank>[+-]?[0-9]+)[^\S\n]*\n")


def parse_bundle(text: str) -> VectorBundle:
    """Parse a bundle document: optional `rank: k` header, then a matrix.

    A declared rank must match the parsed matrix size (ParseError at the
    rank otherwise); validity of the transition matrix is then checked,
    raising InvalidBundle for a degenerate determinant.
    """
    m = _HEADER_RE.match(text)
    matrix = _Parser(text, m.end() if m else 0, len(text)).matrix()
    if m is not None:
        pos = m.start("rank")
        declared = _integer(m.group("rank"), text, pos)
        if declared != matrix.rows:
            message = f"declared rank {declared} does not match matrix size {matrix.rows}"
            _fail(message, text, pos)
    return VectorBundle(matrix)


def parse_factorization(text: str):
    """Parse the three labeled blocks `W:`, `U:`, `D:` of a certificate.

    Only whitespace may come before `W:`; other text there is refused at
    its first token."""
    from .splitter import Factorization

    labels = list(re.finditer(r"([WUD])\s*:", text))
    if [m.group(1) for m in labels] != ["W", "U", "D"]:
        raise ParseError("factorization file must contain blocks W:, U:, D: in order")
    _Parser(text, 0, labels[0].start()).finish(None, "expected 'W:'")
    ends = [m.start() for m in labels[1:]] + [len(text)]
    return Factorization(
        *(_Parser(text, m.end(), end).matrix() for m, end in zip(labels, ends))
    )


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


def _rational(num: int, den: int) -> str:
    # num/den in lowest terms, den > 0.
    g = gcd(num, den)
    num = _decimal(num // g)
    return num if den == g else f"{num}/{_decimal(den // g)}"


def format_scalar(c: GaussianRational) -> str:
    """The coefficient in the grammar above; SystemTooLarge for a part over
    the printing limit (:func:`_decimal`), before anything is printed or
    written."""
    if not c.num_im:
        return _rational(c.num_re, c.den)
    return f"({_rational(c.num_re, c.den)}, {_rational(c.num_im, c.den)})"


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
