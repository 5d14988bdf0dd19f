"""Exact scalar arithmetic: rationals and Gaussian rationals.

Every computation in this library happens over Q(i), the field of complex
numbers a + b*i with rational a, b.  Working over an exact subfield of C is
what makes rank decisions, unit tests on determinants and nowhere-vanishing
checks decidable; floating point would make all of them guesses.

Plain rationals are ``fractions.Fraction`` (arbitrary precision, always
reduced, positive denominator), re-exported here as :data:`Rational`.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class GaussianRational:
    """An element a + b*i of Q(i), immutable and hashable.

    Components are kept as reduced ``Fraction`` values; equality and hashing
    are componentwise.  All arithmetic is exact.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _coerce(re))
        object.__setattr__(self, "im", _coerce(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def inverse(self) -> "GaussianRational":
        """Multiplicative inverse; exact, so self * self.inverse() == 1."""
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """The field norm re^2 + im^2 (a nonnegative rational)."""
        return self.re * self.re + self.im * self.im

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    @staticmethod
    def _promote(value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return NotImplemented

    # -- text form ------------------------------------------------------

    def __str__(self):
        from .text import format_scalar

        return format_scalar(self)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
