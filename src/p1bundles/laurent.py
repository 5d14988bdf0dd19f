"""Laurent polynomials in the overlap coordinate z, and the two chart rings.

The Riemann sphere is covered by two charts: coordinate z around 0 and
w = 1/z around infinity.  Functions holomorphic on the z-chart are
polynomials in z (exponents >= 0), functions holomorphic on the w-chart are
polynomials in w (exponents <= 0 when written in z).  A single sparse
exponent-to-coefficient map therefore serves both rings as well as the full
Laurent ring on the overlap C*.

The chart predicates at the bottom (chart_contains, chart_degree) read a
polynomial's support to tell whether it lies in a chart ring and what its
degree is there.  The module has no division: the one polynomial division
of the library is the Bareiss determinant's exact Laurent division
(lmatrix._lp_divexact).
"""

from __future__ import annotations

import enum
from typing import Optional

from .exact import GaussianRational, ONE, ZERO


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
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "_coeffs", coeffs)
        return out

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "_coeffs", {e: -c for e, c in self._coeffs.items()})
        return out

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, GaussianRational)):
            return self.scale(_promote_scalar(other))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        coeffs = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                p = c1 * c2
                s = coeffs.get(e)
                if s is None:
                    coeffs[e] = p
                else:
                    coeffs[e] = s + p
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(
            out, "_coeffs", {e: c for e, c in coeffs.items() if c}
        )
        return out

    def __rmul__(self, other):
        if isinstance(other, (int, GaussianRational)):
            return self.scale(_promote_scalar(other))
        return NotImplemented

    def scale(self, c: GaussianRational) -> "LaurentPoly":
        if not c:
            return LaurentPoly()
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(
            out, "_coeffs", {e: c * v for e, v in self._coeffs.items()}
        )
        return out

    def shift(self, n: int) -> "LaurentPoly":
        """Multiply by z^n."""
        if n == 0:
            return self
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(
            out, "_coeffs", {e + n: c for e, c in self._coeffs.items()}
        )
        return out

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


def chart_degree(p: LaurentPoly, chart: Chart) -> int:
    """Degree of p in the chart's own variable (z on Z, w = 1/z on W)."""
    if p.is_zero():
        raise ValueError("zero polynomial has no degree")
    return p.degree if chart is Chart.Z else -p.order
