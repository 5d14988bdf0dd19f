"""Birkhoff-Grothendieck factorization with exact certificates.

Every rank-k bundle on the sphere splits as O(d1) + ... + O(dk); this
module computes the multiset (d1 >= ... >= dk) together with a
certificate: unimodular chart gauges W (over C[1/z]) and U (over C[z])
with W*T*U = diag(z^(-d1), ..., z^(-dk)) exactly.  Re-multiplying the
certificate is the proof; no step of the output is trusted without it.

The factorization is one column reduction (Kailath, Linear Systems,
1980, sec. 6.3), computed by :func:`lmatrix.wiener_hopf`.  With N the
largest |exponent| of T, the polynomial matrix z^N*T is column-reduced
over C[z] to Q = z^N*T*V (:func:`lmatrix.column_reduce`, by the weak
Popov transformations of Mulders and Storjohann, 2003): V is
C[z]-unimodular, Q has column degrees r_j and a nonsingular
leading-coefficient matrix.  Then Winv = Q*diag(z^(-r_j)) lies in C[1/z]
with that matrix as its constant term, so it is w-unimodular, and

    Winv^-1 * T * V = diag(z^(r_j - N)),  i.e.  d_j = N - r_j.

Winv^-1 is summed as a w-adic series (:func:`lmatrix.w_adic_inverse`):
its first term inverts the leading-coefficient matrix, which the weak
Popov form makes triangular up to a column permutation, by back
substitution, and the series stops at the column-degree bound
sum_j s_j - min_j s_j, s_j the w-degree of column j of Winv.  A
permutation sorts the diagonal.  ``wiener_hopf`` proves W*T*U = D by one
exact product before it keeps the triple on the transition matrix, and
``LaurentMatrix.inverse`` reads T^-1 = U*D^-1*W off the same one, so
splitting a bundle and then taking its dual reduces it, and multiplies
out its certificate, once.  Each :func:`grothendieck_split` call runs the
form checks of the certificate (shapes, D, the charts, the degree sum and
U(0), which is a split's one kernel solve); with the product they are
all of :func:`verify_factorization`, which checks certificates from
outside.  The column degrees also give
h0(E(m)) = sum_j max(0, d_j + m + 1) for every twist m at once.  The
Cech module answers its largest counts from it, and recomputes the others
by brute-force linear algebra; the tests compare the two routes.  The
certificate also holds the classical splitting-off step: the first twist
with a section is m = -d1, and the first column u_1 of U is a section of
E(-d1) that vanishes nowhere (u_1(0) is a column of the nonsingular U(0),
and z^(d1)*T*u_1 = W^-1*e_1 is a column of a w-unimodular matrix).
"""

from __future__ import annotations

from collections import namedtuple

from .bundle import VectorBundle
from .errors import InternalCheckError
from .exact import ONE
from .laurent import Chart, chart_contains, z_power
from .lmatrix import LaurentMatrix, ScalarMatrix, kernel_basis, wiener_hopf


class SplittingType(tuple):
    """Splitting degrees as a nonincreasing tuple of integers.

    Construction sorts, so two types compare equal exactly when they agree
    as multisets.  The sorted representative is the canonical one: gauge
    changes can permute the summands but never alter the multiset.
    """

    def __new__(cls, degrees):
        return super().__new__(cls, sorted((int(d) for d in degrees), reverse=True))

    def __repr__(self):
        return f"SplittingType{tuple(self)!r}"


class Factorization(namedtuple("Factorization", "w u d")):
    """Certificate (W, U, D): W*T*U = D with D = diag(z^(-d_i)), sorted."""

    __slots__ = ()


def grothendieck_split(e: VectorBundle):
    """Full splitting: returns (SplittingType, Factorization).

    W and U come from :func:`lmatrix.wiener_hopf` (see the module
    docstring), computed once per transition matrix, which proves
    W*T*U = D by one exact product before it keeps them.  Every call then
    runs the form checks of the certificate (:func:`_well_formed`: shapes,
    D, the charts, the degree sum and U(0)); with that product they are
    all of :func:`verify_factorization`.  A failed check raises InternalCheckError rather
    than producing an unproven answer.
    """
    degrees, w, u = wiener_hopf(e.transition)
    d = LaurentMatrix.diagonal([z_power(-di) for di in degrees])
    fact = Factorization(w, u, d)
    if not _well_formed(e, fact):
        raise InternalCheckError("factorization certificate failed to verify")
    return SplittingType(degrees), fact


def splitting_type(e: VectorBundle) -> SplittingType:
    """The Grothendieck invariant d1 >= ... >= dk with E = + O(d_i)."""
    return grothendieck_split(e)[0]


def verify_factorization(e: VectorBundle, fact: Factorization) -> bool:
    """Exact certificate check: W*T*U = D with W and U chart-unimodular.

    The form checks of :func:`_well_formed`, then W*T*U = D exactly.  No
    determinant is computed.  This is the check for a certificate from
    outside (``p1bundles verify``); a certificate made here was proven by
    its product in :func:`lmatrix.wiener_hopf`.
    """
    return _well_formed(e, fact) and fact.w * e.transition * fact.u == fact.d


def _well_formed(e: VectorBundle, fact: Factorization) -> bool:
    """The form checks of a certificate: with W*T*U = D, they prove W and
    U chart-unimodular.

    Checks that W, U and D are k x k; that D = diag(z^(-d_i)) with unit
    coefficients and d_i nonincreasing; that W has entries in C[w] and U
    in C[z]; that sum d_i = deg E; and that the constant matrix U(0) is
    nonsingular (one k x k :func:`kernel_basis`).

    With det T = c*z^(-deg E) (``e.det_unit``), taking determinants of
    W*T*U = D gives det W * det U * c*z^(-deg E) = z^(-sum d_i), so the
    degree sum leaves det W * det U = c^-1.  A divisor of a unit is a
    unit, and the units of the Laurent ring are the monomials, so
    det W = alpha*w^n in C[w] and det U = beta*z^m in C[z] with n, m >= 0;
    their product is constant, so m = n.  Finally det U(0) = beta*0^n is
    nonzero only for n = 0: both determinants are nonzero constants.
    """
    w, u, d = fact.w, fact.u, fact.d
    k = e.rank
    if not (
        w.rows == w.cols == k and u.rows == u.cols == k and d.rows == d.cols == k
    ):
        return False
    exps = []
    for i in range(k):
        for j in range(k):
            entry = d[i, j]
            if i != j:
                if not entry.is_zero():
                    return False
                continue
            unit = entry.is_unit()
            if unit is None or unit[0] != ONE:
                return False
            exps.append(unit[1])
    degrees = [-x for x in exps]
    if degrees != sorted(degrees, reverse=True):
        return False
    if not all(chart_contains(p, Chart.W) for row in w.entries for p in row):
        return False
    if not all(chart_contains(p, Chart.Z) for row in u.entries for p in row):
        return False
    if sum(degrees) != e.degree:
        return False
    u0 = ScalarMatrix([[p.coeff(0) for p in row] for row in u.entries])
    return not kernel_basis(u0)
