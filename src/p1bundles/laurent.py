"""Laurent polynomials in the overlap coordinate z, and the two chart rings.

The Riemann sphere is covered by two charts: coordinate z around 0 and
w = 1/z around infinity.  Functions holomorphic on the z-chart are
polynomials in z (exponents >= 0), functions holomorphic on the w-chart are
polynomials in w (exponents <= 0 when written in z).  A single sparse
exponent-to-coefficient map therefore serves both rings as well as the full
Laurent ring on the overlap C*.

Every product of Laurent polynomials is one fused multiply-accumulate,
:func:`_dot`, which returns sum(a*b) over pairs of polynomials.  It keeps
one int triple (re, im, den) per output exponent, adds the products of the
operands' stored triples into it, and normalises each output coefficient
once.  Beside it, :func:`_add_monomial_times` returns a + x*z^e*b in one
pass over b; with a = 0 it is the product of a one-term operand, which
``_dot`` and ``scale`` take.  These two are the library's only Q(i)
accumulators.  ``LaurentPoly.__mul__`` and ``scale`` use them here, and in
``lmatrix`` the matrix product (one ``_dot`` per output entry, so ``kron``,
``twist``, the certificate check ``W*T*U = D`` and the inverse
``U*D^-1*W``), each Bareiss update of the determinant (one ``_dot``), each
row of a Q(i) scalar-matrix product in the w-adic series and its back
substitution (one ``_dot``, the row read as a polynomial whose exponents
are the column indices), and each column and frame update of the column
reduction and each step of the exact division (one
``_add_monomial_times``).

The chart predicate at the bottom (chart_contains) reads a polynomial's
support to tell whether it lies in a chart ring.  The module has no
division: the one polynomial division of the library is the exact Laurent
division (lmatrix._lp_divexact) of the determinant, a Bareiss elimination
at every size.
"""

from __future__ import annotations

import enum
from math import gcd
from typing import Optional

from .exact import GaussianRational, ONE, ZERO, _canonical


class Chart(enum.Enum):
    """The two coordinate charts: Z is C[z], W is C[1/z] read in z."""

    Z = "z"
    W = "w"


Z_CHART = Chart.Z
W_CHART = Chart.W


def _promote_scalar(value):
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(value)


class LaurentPoly:
    """A finite sum of c*z^e terms with exact Q(i) coefficients.

    Stored sparsely as a map exponent -> nonzero coefficient; zero
    coefficients are purged on construction so the zero polynomial is the
    empty map.  Instances are immutable.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        cleaned = {}
        if coeffs:
            for exp, c in coeffs.items():
                c = _promote_scalar(c)
                if c:
                    cleaned[int(exp)] = c
        object.__setattr__(self, "_coeffs", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- inspection -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def support(self):
        return sorted(self._coeffs)

    def coeff(self, exp: int) -> GaussianRational:
        return self._coeffs.get(exp, ZERO)

    def items(self):
        return self._coeffs.items()

    @property
    def order(self) -> int:
        """Smallest exponent in the support; undefined for zero."""
        if not self._coeffs:
            raise ValueError("zero polynomial has no order")
        return min(self._coeffs)

    @property
    def degree(self) -> int:
        """Largest exponent in the support; undefined for zero."""
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self._coeffs)

    def __len__(self):
        return len(self._coeffs)

    # -- ring arithmetic --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        coeffs = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            s = coeffs.get(exp)
            if s is None:
                coeffs[exp] = c
            else:
                t = s + c
                if t:
                    coeffs[exp] = t
                else:
                    del coeffs[exp]
        return _poly(coeffs)

    def __neg__(self):
        return _poly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return _dot(((self, other),))
        if isinstance(other, (int, GaussianRational)):
            return self.scale(_promote_scalar(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, GaussianRational)):
            return self.scale(_promote_scalar(other))
        return NotImplemented

    def scale(self, c: GaussianRational) -> "LaurentPoly":
        if not c:
            return LaurentPoly()
        return _add_monomial_times(ZERO_POLY, 0, c, self)

    def shift(self, n: int) -> "LaurentPoly":
        """Multiply by z^n."""
        if n == 0:
            return self
        return _poly({e + n: c for e, c in self._coeffs.items()})

    # -- structure tests --------------------------------------------------

    def is_unit(self) -> Optional[tuple]:
        """Return (c, e) if the polynomial is a single term c*z^e, else None.

        These monomials are exactly the elements invertible on all of C*,
        i.e. the transition functions of line bundles.
        """
        if len(self._coeffs) != 1:
            return None
        ((e, c),) = self._coeffs.items()
        return (c, e)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, GaussianRational)):
            other = constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self):
        return bool(self._coeffs)

    # -- text -------------------------------------------------------------

    def __str__(self):
        from .text import format_poly

        return format_poly(self)

    def __repr__(self):
        return f"<LaurentPoly {self}>"


_set_coeffs = LaurentPoly._coeffs.__set__


def _poly(coeffs) -> LaurentPoly:
    # The LaurentPoly of an exponent -> coefficient dict with no zero value.
    out = LaurentPoly.__new__(LaurentPoly)
    _set_coeffs(out, coeffs)
    return out


def _add_monomial_times(a: LaurentPoly, e: int, x: GaussianRational, b: LaurentPoly):
    """a + x*z^e*b, for x != 0: one product and at most one sum per term of
    b, each normalised once; a sum that cancels is dropped.  With a zero it
    is the monomial product x*z^e*b, where no term vanishes."""
    xr, xi, xd = x.num_re, x.num_im, x.den
    out = dict(a._coeffs)
    get = out.get
    for eb, y in b._coeffs.items():
        yr, yi = y.num_re, y.num_im
        pr, pi, pd = xr * yr - xi * yi, xr * yi + xi * yr, xd * y.den
        eb += e
        s = get(eb)
        if s is None:
            out[eb] = _canonical(pr, pi, pd)
            continue
        d = s.den
        if d != pd:
            g = gcd(d, pd)
            u, v = pd // g, d // g
            pr, pi, pd = s.num_re * u + pr * v, s.num_im * u + pi * v, d * u
        else:
            pr, pi = s.num_re + pr, s.num_im + pi
        if pr or pi:
            out[eb] = _canonical(pr, pi, pd)
        else:
            del out[eb]
    return _poly(out)


def _dot(pairs) -> LaurentPoly:
    """sum(a*b for a, b in pairs) for an iterable of LaurentPoly pairs: the
    fused multiply-accumulate under every Laurent product.

    Each output exponent keeps one [re, im, den] int accumulator.  The
    products of the operands' stored triples (a + b*i)/d are added to it
    unnormalised, over the lcm of the denominators, and each nonzero sum is
    normalised once (``exact._canonical``), so no GaussianRational is built
    per term product or per partial sum; sums that cancel to zero are
    dropped.  Pairs with a zero operand are skipped, and one product with a
    one-term operand takes the direct path of :func:`_add_monomial_times`.
    """
    pairs = [(a, b) for a, b in pairs if a._coeffs and b._coeffs]
    if not pairs:
        return ZERO_POLY
    if len(pairs) == 1:
        ((a, b),) = pairs
        if len(a._coeffs) == 1:
            ((e, x),) = a._coeffs.items()
            return _add_monomial_times(ZERO_POLY, e, x, b)
        if len(b._coeffs) == 1:
            ((e, x),) = b._coeffs.items()
            return _add_monomial_times(ZERO_POLY, e, x, a)
    acc = {}
    get = acc.get
    for a, b in pairs:
        b = b._coeffs.items()
        for e1, x in a._coeffs.items():
            xr, xi, xd = x.num_re, x.num_im, x.den
            for e2, y in b:
                e = e1 + e2
                yr, yi = y.num_re, y.num_im
                pr = xr * yr - xi * yi
                pi = xr * yi + xi * yr
                pd = xd * y.den
                s = get(e)
                if s is None:
                    acc[e] = [pr, pi, pd]
                elif s[2] == pd:
                    s[0] += pr
                    s[1] += pi
                else:
                    d = s[2]
                    g = gcd(d, pd)
                    u, v = pd // g, d // g
                    s[0] = s[0] * u + pr * v
                    s[1] = s[1] * u + pi * v
                    s[2] = d * u
    return _poly({e: _canonical(r, i, d) for e, (r, i, d) in acc.items() if r or i})


ZERO_POLY = LaurentPoly()
ONE_POLY = LaurentPoly({0: ONE})


def constant(c) -> LaurentPoly:
    return LaurentPoly({0: _promote_scalar(c)})


def monomial(c, e: int) -> LaurentPoly:
    return LaurentPoly({e: _promote_scalar(c)})


def z_power(e: int) -> LaurentPoly:
    return LaurentPoly({e: ONE})


# ---------------------------------------------------------------------------
# Chart-ring structure
# ---------------------------------------------------------------------------


def chart_contains(p: LaurentPoly, chart: Chart) -> bool:
    """Whether p is holomorphic on the given chart (support check)."""
    if p.is_zero():
        return True
    if chart is Chart.Z:
        return p.order >= 0
    return p.degree <= 0
