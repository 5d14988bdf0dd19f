"""Holomorphic vector bundles on the Riemann sphere.

A rank-k bundle is encoded by one k x k transition matrix T(z) relating the
chart-0 frame to the chart-1 frame over the overlap C*.  Validity means T is
invertible at every point of the overlap, i.e. det T is a unit c*z^e of the
Laurent ring.  Conventions fixed once and used everywhere:

* O(d) is the line bundle with 1x1 transition z^(-d).
* Twisting by O(m) multiplies the transition by z^(-m).
* deg E = -e where det T = c*z^e; then deg O(d) = d and the space of
  global sections of O(d) is the degree-<=d polynomials in chart 0.

The seeded generator at the bottom scrambles a diagonal transition with
elementary gauge moves (chart-1 moves on the left, chart-0 moves on the
right), producing test instances whose splitting type is known by
construction.
"""

from __future__ import annotations

import math
import random

from .errors import InvalidBundle, RefusedArgument
from .exact import ONE, GaussianRational
from .laurent import Chart, LaurentPoly, ONE_POLY, ZERO_POLY, constant, z_power
from .lmatrix import LaurentMatrix, block_diag, check_size, kron


class VectorBundle:
    """A validated transition matrix; immutable."""

    __slots__ = ("rank", "transition", "det_unit")

    def __init__(self, transition: LaurentMatrix):
        if not isinstance(transition, LaurentMatrix):
            transition = LaurentMatrix(transition)
        if not transition.is_square():
            raise InvalidBundle("transition matrix must be square")
        det = transition.det()
        unit = det.is_unit()
        if unit is None:
            raise InvalidBundle(
                "det of transition matrix is not c*z^e; the matrix degenerates "
                "somewhere on the overlap"
            )
        self._fill(transition, unit)

    def _fill(self, transition: LaurentMatrix, unit):
        object.__setattr__(self, "rank", transition.rows)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "det_unit", unit)

    @classmethod
    def _with_det(cls, transition: LaurentMatrix, unit) -> "VectorBundle":
        # A transition whose determinant c*z^e is already proven: no det run.
        out = object.__new__(cls)
        out._fill(transition, unit)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("VectorBundle is immutable")

    @property
    def degree(self) -> int:
        """Algebraic degree: the negated winding exponent of det T."""
        return -self.det_unit[1]

    @property
    def max_exponent(self) -> int:
        """Largest |exponent| appearing in the transition matrix."""
        n = 0
        for row in self.transition.entries:
            for e in row:
                if not e.is_zero():
                    n = max(n, e.degree, -e.order)
        return n

    # -- constructions from the transition-matrix calculus -----------------

    def dual(self) -> "VectorBundle":
        """Dual bundle: transition is the inverse transpose.

        Not re-validated: ``LaurentMatrix.inverse`` reads T^-1 off the
        factorization W*T*U = D that ``lmatrix.wiener_hopf`` proved by an
        exact product, so T*T^-1 = I, which proves det(T^-T) = c^-1 * z^-e
        for det T = c*z^e.
        """
        c, e = self.det_unit
        return VectorBundle._with_det(
            self.transition.inverse().transpose(), (c.inverse(), -e)
        )

    def det_bundle(self) -> "VectorBundle":
        """Determinant line bundle: 1x1 transition det T = c*z^e, read off
        det_unit rather than recomputed."""
        c, e = self.det_unit
        return VectorBundle._with_det(LaurentMatrix([[LaurentPoly({e: c})]]), (c, e))

    def dsum(self, other: "VectorBundle") -> "VectorBundle":
        """Direct sum: block-diagonal transition.

        Not re-validated: det(A + B) = det A * det B, so the unit is
        (cA*cB, eA + eB).
        """
        (ca, ea), (cb, eb) = self.det_unit, other.det_unit
        return VectorBundle._with_det(
            block_diag(self.transition, other.transition), (ca * cb, ea + eb)
        )

    def tensor(self, other: "VectorBundle") -> "VectorBundle":
        """Tensor product: Kronecker product of transitions.

        Not re-validated: det(A (x) B) = det(A)^kB * det(B)^kA for ranks
        kA, kB, so the unit is (cA^kB * cB^kA, eA*kB + eB*kA).
        """
        (ca, ea), (cb, eb) = self.det_unit, other.det_unit
        ka, kb = self.rank, other.rank
        return VectorBundle._with_det(
            kron(self.transition, other.transition),
            (math.prod([ca] * kb + [cb] * ka, start=ONE), ea * kb + eb * ka),
        )

    def twist(self, m: int) -> "VectorBundle":
        """Tensor with O(m): transition z^(-m) * T; degree grows by rank*m.

        Not re-validated: det(z^(-m) * T) = c * z^(e - rank*m) for
        det T = c*z^e.
        """
        if m == 0:
            return self
        c, e = self.det_unit
        return VectorBundle._with_det(
            self.transition.scale(z_power(-m)), (c, e - self.rank * m)
        )

    def __eq__(self, other):
        if not isinstance(other, VectorBundle):
            return NotImplemented
        return self.transition == other.transition

    def __hash__(self):
        return hash(self.transition)

    def __repr__(self):
        return f"<VectorBundle rank {self.rank} deg {self.degree}>"


def line_bundle(d: int) -> VectorBundle:
    """O(d), the degree-d line bundle."""
    return VectorBundle(LaurentMatrix([[z_power(-d)]]))


def trivial_bundle(k: int) -> VectorBundle:
    """O(0)^k."""
    return VectorBundle(LaurentMatrix.identity(k))


def diagonal_bundle(degrees) -> VectorBundle:
    """O(d1) + ... + O(dk) with diagonal transition."""
    return VectorBundle(LaurentMatrix.diagonal([z_power(-d) for d in degrees]))


# ---------------------------------------------------------------------------
# Seeded gauge scrambling
# ---------------------------------------------------------------------------

_UNIT_SCALARS = (
    GaussianRational(1),
    GaussianRational(-1),
    GaussianRational(0, 1),
    GaussianRational(0, -1),
)


def _random_scalar(rng: random.Random) -> GaussianRational:
    return GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1))


def _random_chart_poly(rng: random.Random, chart: Chart, max_degree: int) -> LaurentPoly:
    # A chart polynomial of degree <= max_degree in the chart variable,
    # with small Gaussian-integer coefficients.
    deg = rng.randint(0, max_degree)
    sign = 1 if chart is Chart.Z else -1
    coeffs = {}
    for e in range(deg + 1):
        c = _random_scalar(rng)
        if c:
            coeffs[sign * e] = c
    return LaurentPoly(coeffs)


def _shear(k: int, i: int, j: int, p: LaurentPoly) -> LaurentMatrix:
    return LaurentMatrix.identity(k).with_entry(i, j, p)


def _swap(k: int, i: int, j: int) -> LaurentMatrix:
    grid = [list(row) for row in LaurentMatrix.identity(k).entries]
    grid[i][i] = ZERO_POLY
    grid[j][j] = ZERO_POLY
    grid[i][j] = ONE_POLY
    grid[j][i] = ONE_POLY
    return LaurentMatrix(grid)


def _random_move(k: int, chart: Chart, max_degree: int, rng: random.Random):
    # One elementary chart-unimodular move and its determinant: a unit
    # scalar at rank 1, otherwise a shear (det 1) or a swap (det -1).
    if k == 1:
        c = rng.choice(_UNIT_SCALARS)
        return LaurentMatrix([[constant(c)]]), c
    kind = rng.choice(("shear", "swap", "constant_shear"))
    i, j = rng.sample(range(k), 2)
    if kind == "shear":
        return _shear(k, i, j, _random_chart_poly(rng, chart, max_degree)), ONE
    if kind == "swap":
        return _swap(k, i, j), -ONE
    return _shear(k, i, j, constant(_random_scalar(rng))), ONE


def _charge_scramble(k: int, moves: int, max_degree: int, span: int):
    """SystemTooLarge, before anything is drawn, when an upper bound on the
    terms that ``moves`` products of k x k matrices multiply is over the
    limit of ``check_size``.

    A move is the identity but for one entry of at most max_degree + 1
    terms, so a product multiplies each term of the matrix once and one
    row or column once more by that entry.  The moves give U(w) *
    diag(z^-d) * V(z), U and V of degree at most moves * max_degree
    together, so an entry holds at most span + 1 + moves * max_degree
    terms (span the range of the d_l), and moves * max_degree + 1 per
    distinct d_l.  A rank-1 move is a unit scalar.
    """
    grow = max_degree if k > 1 else 0
    reach = moves * grow
    terms = min(span + 1 + reach, min(k, span + 1) * (reach + 1))
    check_size(moves * k * (k + grow + 1) * terms, "a seeded gauge scramble")


def random_unimodular(
    k: int, chart: Chart, max_degree: int, rng: random.Random, moves: int = 3
) -> LaurentMatrix:
    """A random product of elementary chart-unimodular matrices.

    Factors are unipotent shears with chart-polynomial entries of degree at
    most max_degree, and constant invertible moves (swaps, unit scalings,
    constant shears).  The result is unimodular over the chart by
    construction.

    At rank 1 ``moves`` is ignored: the result is always one random unit
    scalar, one draw from ``rng``, so ``moves=0`` does not give the
    identity there as it does at rank >= 2.  Seeded callers depend on that
    draw order.  A product over the size limit (:func:`_charge_scramble`)
    raises SystemTooLarge before anything is drawn.
    """
    if max_degree < 0:
        raise RefusedArgument("max_degree must be >= 0")
    if moves < 0:
        raise RefusedArgument("moves must be >= 0")
    moves = 1 if k == 1 else moves  # rank 1: one unit scaling
    _charge_scramble(k, moves, max_degree, 0)
    acc = LaurentMatrix.identity(k)
    for _ in range(moves):
        acc = acc * _random_move(k, chart, max_degree, rng)[0]
    return acc


def random_bundle(
    degrees, gauge_degree: int, seed: int, moves: int | None = None
) -> VectorBundle:
    """A gauge scramble of the diagonal bundle with the given type.

    Starts from diag(z^(-d1), ..., z^(-dk)) and applies a seeded sequence of
    elementary moves: chart-1 (w-side) unimodular factors multiply on the
    left, chart-0 (z-side) factors on the right, each with entries of degree
    at most gauge_degree.  Gauge moves never change the isomorphism class,
    so the splitting type of the output is the input type by construction.
    Deterministic for a fixed (degrees, gauge_degree, seed, moves).  Not
    re-validated: det T is z^-(d1 + ... + dk) times the moves' unit dets.
    A scramble over the size limit (:func:`_charge_scramble`) raises
    SystemTooLarge before anything is drawn.
    """
    degrees = [int(d) for d in degrees]
    if gauge_degree < 0:
        raise RefusedArgument("gauge_degree must be >= 0")
    if moves is not None and moves < 0:
        raise RefusedArgument("moves must be >= 0")
    k = len(degrees)
    if moves is None:
        moves = 2 * k + 2
    span = max(degrees, default=0) - min(degrees, default=0)
    _charge_scramble(k, moves, gauge_degree, span)
    rng = random.Random(seed)
    t = LaurentMatrix.diagonal([z_power(-d) for d in degrees])
    det = ONE
    for step in range(moves):
        chart = Chart.W if step % 2 == 0 else Chart.Z
        u, c = _random_move(k, chart, gauge_degree, rng)
        t = u * t if chart is Chart.W else t * u
        det = det * c
    return VectorBundle._with_det(t, (det, -sum(degrees)))
