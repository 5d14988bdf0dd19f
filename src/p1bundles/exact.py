"""Exact scalar arithmetic: rationals and Gaussian rationals.

Every computation in this library happens over Q(i), the field of complex
numbers a + b*i with rational a, b.  Working over an exact subfield of C is
what makes rank decisions, unit tests on determinants and nowhere-vanishing
checks decidable; floating point would make all of them guesses.

Plain rationals are ``fractions.Fraction`` (arbitrary precision, always
reduced, positive denominator), re-exported here as :data:`Rational`.

A :class:`GaussianRational` stores (a + b*i)/d as three Python ints, with
d > 0 and gcd(a, b, d) = 1.  Each value has exactly one such triple (the
argument is in the class docstring), so equality is equality of triples and
the hash is the hash of the triple.  Arithmetic builds no ``Fraction``: a
result is brought to that form by at most one three-way gcd, skipped when
the denominator is 1, as it is for the Gaussian integers that most
coefficients are.  The parts ``.re`` and ``.im`` are ``Fraction`` views,
made on each read for printing and for callers off the hot paths; the
kernel engine in ``lmatrix`` reads and writes the ints directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Rational = Fraction


def _parts(value):
    # (numerator, denominator) of an int or a Fraction; ints of a subclass
    # (bool) come back as plain ints.
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class GaussianRational:
    """An element (a + b*i)/d of Q(i), immutable and hashable.

    ``num_re``, ``num_im`` and ``den`` hold a, b and d, with d > 0 and
    gcd(a, b, d) = 1; ``re`` and ``im`` are the parts a/d and b/d as
    reduced ``Fraction`` values.  All arithmetic is exact.

    The triple is canonical.  Existence: write the parts as reduced
    fractions p/q and r/s and let d = lcm(q, s), a = p*(d/q), b = r*(d/s).
    A prime dividing d divides q or s to the full power it has in d, say q;
    then it does not divide d/q, nor p (as gcd(p, q) = 1), so not a, and
    gcd(a, b, d) = 1.  Uniqueness: for any (a, b, d) with d > 0 and
    gcd(a, b, d) = 1, the reduced denominators of a/d and b/d are
    d/gcd(a, d) and d/gcd(b, d), whose lcm is d/gcd(a, b, d) = d.  So d is
    fixed by the value, and then so are a and b.  Dividing any triple with
    d > 0 by its gcd(a, b, d) therefore gives the canonical one; sums,
    products and inverses d*(a - b*i)/(a^2 + b^2) all have d > 0.
    """

    __slots__ = ("num_re", "num_im", "den")

    def __init__(self, re=0, im=0):
        p, q = _parts(re)
        r, s = _parts(im)
        if q == s:
            a, b, d = p, r, q
        else:
            d = q * s // gcd(q, s)
            a, b = p * (d // q), r * (d // s)
        _set_re(self, a)
        _set_im(self, b)
        _set_den(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.num_re, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.num_im, self.den)

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _promote(other)
            if other is NotImplemented:
                return NotImplemented
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _canonical(
                self.num_re + other.num_re, self.num_im + other.num_im, d1
            )
        return _canonical(
            self.num_re * d2 + other.num_re * d1,
            self.num_im * d2 + other.num_im * d1,
            d1 * d2,
        )

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.num_re, -self.num_im, self.den)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _promote(other)
            if other is NotImplemented:
                return NotImplemented
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _canonical(
                self.num_re - other.num_re, self.num_im - other.num_im, d1
            )
        return _canonical(
            self.num_re * d2 - other.num_re * d1,
            self.num_im * d2 - other.num_im * d1,
            d1 * d2,
        )

    def __rsub__(self, other):
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _promote(other)
            if other is NotImplemented:
                return NotImplemented
        a1, b1, a2, b2 = self.num_re, self.num_im, other.num_re, other.num_im
        return _canonical(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _promote(other)
            if other is NotImplemented:
                return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def inverse(self) -> "GaussianRational":
        """Multiplicative inverse; exact, so self * self.inverse() == 1."""
        a, b, d = self.num_re, self.num_im, self.den
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return _canonical(d * a, -d * b, n)

    def conjugate(self) -> "GaussianRational":
        return _make(self.num_re, -self.num_im, self.den)

    def norm(self) -> Fraction:
        """The field norm re^2 + im^2 (a nonnegative rational)."""
        a, b, d = self.num_re, self.num_im, self.den
        return Fraction(a * a + b * b, d * d)

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = _promote(other)
            if other is NotImplemented:
                return NotImplemented
        return (
            self.num_re == other.num_re
            and self.num_im == other.num_im
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num_re, self.num_im, self.den))

    def __bool__(self):
        return self.num_re != 0 or self.num_im != 0

    # -- text form ------------------------------------------------------

    def __str__(self):
        from .text import format_scalar

        return format_scalar(self)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__
_set_re = GaussianRational.num_re.__set__
_set_im = GaussianRational.num_im.__set__
_set_den = GaussianRational.den.__set__


def _make(a, b, d):
    # The GaussianRational (a + b*i)/d of a triple already canonical.
    x = _new(GaussianRational)
    _set_re(x, a)
    _set_im(x, b)
    _set_den(x, d)
    return x


def _canonical(a, b, d):
    """The GaussianRational (a + b*i)/d for ints a, b and d > 0: the triple
    is divided by gcd(a, b, d), computed only when d != 1."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    # _make, inlined: this builds every sum, product and inverse.
    x = _new(GaussianRational)
    _set_re(x, a)
    _set_im(x, b)
    _set_den(x, d)
    return x


def _promote(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return _make(value.numerator, 0, value.denominator)
    return NotImplemented


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
