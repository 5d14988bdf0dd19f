"""Matrices over Laurent polynomials and over Q(i) scalars.

Two layers live here:

* :class:`LaurentMatrix` -- transition-matrix algebra: products, exact
  determinants and chart-unimodularity tests, plus the one column
  reduction (:func:`column_reduce`) that both the splitter and
  :meth:`LaurentMatrix.inverse` are built on.  Column-reducing z^N*T
  yields T = z^-N * Winv * diag(z^r_j) * V^-1 with V unimodular over
  C[z] and, when det T is a unit, Winv unimodular over C[1/z]; Winv is
  inverted as a w-adic series (:func:`w_adic_inverse`), so no adjugate
  is ever formed.

* :class:`ScalarMatrix` + :func:`kernel_basis` -- exact null spaces of
  coefficient-level linear systems.  Small systems run a fraction-free
  (Bareiss) elimination over the Gaussian integers.  Large systems are
  solved by a certified multi-modular method: row-reduce modulo primes
  p = 1 (mod 4) where Q(i) embeds in GF(p), reconstruct the reduced
  echelon form by CRT + rational reconstruction, then *verify every
  kernel vector exactly*.  A verified basis of size (cols - modular rank)
  pins the nullity on both sides, so the result is exact, never
  probabilistic.  Both paths return the same canonical (reduced-echelon)
  basis.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, InternalCheckError
from .exact import GaussianRational, ONE, ZERO
from .laurent import (
    Chart,
    LaurentPoly,
    ONE_POLY,
    ZERO_POLY,
    chart_contains,
    chart_divexact,
)

# ---------------------------------------------------------------------------
# Laurent matrices
# ---------------------------------------------------------------------------


def _promote_entry(e):
    if isinstance(e, LaurentPoly):
        return e
    if isinstance(e, (int, GaussianRational)):
        from .laurent import constant

        return constant(e)
    raise TypeError(f"matrix entry must be a LaurentPoly, got {type(e).__name__}")


class LaurentMatrix:
    """A rows x cols grid of Laurent polynomials; immutable."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        grid = tuple(tuple(_promote_entry(e) for e in row) for row in entries)
        if not grid or not grid[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("ragged rows in matrix")
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "LaurentMatrix":
        return cls(
            [[ONE_POLY if i == j else ZERO_POLY for j in range(n)] for i in range(n)]
        )

    @classmethod
    def diagonal(cls, polys) -> "LaurentMatrix":
        polys = list(polys)
        n = len(polys)
        return cls(
            [
                [polys[i] if i == j else ZERO_POLY for j in range(n)]
                for i in range(n)
            ]
        )

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def with_entry(self, i: int, j: int, p: LaurentPoly) -> "LaurentMatrix":
        grid = [list(row) for row in self.entries]
        grid[i][j] = _promote_entry(p)
        return LaurentMatrix(grid)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- algebra ----------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        bt = [other.column(j) for j in range(other.cols)]
        out = []
        for row in self.entries:
            out_row = []
            for col in bt:
                acc = ZERO_POLY
                for a, b in zip(row, col):
                    if a and b:
                        acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return LaurentMatrix(out)

    def scale(self, p) -> "LaurentMatrix":
        p = _promote_entry(p)
        return LaurentMatrix([[p * e for e in row] for row in self.entries])

    def transpose(self) -> "LaurentMatrix":
        return LaurentMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def det(self) -> LaurentPoly:
        """Exact determinant: cofactor expansion up to 3x3, fraction-free
        (Bareiss) elimination with exact Laurent division beyond."""
        if not self.is_square():
            raise DimensionMismatch("determinant of a non-square matrix")
        return _det(self.entries)

    def inverse(self) -> "LaurentMatrix":
        """Exact inverse; requires det to be a unit c*z^e of the Laurent ring.

        With z^N*T*V = Q from :func:`column_reduce`, the w-chart factor
        Winv = Q*diag(z^-r_j) is w-unimodular, and
        T^-1 = z^N * V * diag(z^-r_j) * Winv^-1 with Winv^-1 from
        :func:`w_adic_inverse`.  The result is re-multiplied: T*T^-1 = I
        exactly proves det T a unit, so the determinant is only computed
        when that check fails, to tell a non-unit determinant (ValueError)
        from a failed internal check (InternalCheckError).
        """
        if not self.is_square():
            raise DimensionMismatch("inverse of a non-square matrix")
        n, degs, v, q = column_reduce(self)
        left = shift_columns(v, [n - r for r in degs])
        inv = left * w_adic_inverse(shift_columns(q, [-r for r in degs]))
        if self * inv != LaurentMatrix.identity(self.rows):
            if self.det().is_unit() is None:
                raise ValueError("matrix determinant is not a unit; no Laurent inverse")
            raise InternalCheckError("inverse failed to re-multiply to the identity")
        return inv

    # -- comparisons / text -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __str__(self):
        from .text import format_matrix

        return format_matrix(self)

    def __repr__(self):
        return f"<LaurentMatrix {self.rows}x{self.cols} {self}>"


def _det(grid) -> LaurentPoly:
    n = len(grid)
    if n == 1:
        return grid[0][0]
    if n == 2:
        return grid[0][0] * grid[1][1] - grid[0][1] * grid[1][0]
    if n == 3:
        a, b, c = grid[0]
        d, e, f = grid[1]
        g, h, i = grid[2]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return _det_bareiss(grid)


def _lp_divexact(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    # Exact division in the Laurent ring: normalize both to plain
    # polynomials, long-divide, undo the shift.
    if f.is_zero():
        return ZERO_POLY
    shift = f.order - g.order
    q = chart_divexact(f.shift(-f.order), g.shift(-g.order), Chart.Z)
    return q.shift(shift)


def _det_bareiss(grid) -> LaurentPoly:
    n = len(grid)
    m = [list(row) for row in grid]
    sign = 1
    prev = ONE_POLY
    for c in range(n):
        pivot = None
        for r in range(c, n):
            if m[r][c]:
                pivot = r
                break
        if pivot is None:
            return ZERO_POLY
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                num = m[i][j] * m[c][c] - m[i][c] * m[c][j]
                m[i][j] = _lp_divexact(num, prev)
            m[i][c] = ZERO_POLY
        prev = m[c][c]
    d = m[n - 1][n - 1]
    return d if sign == 1 else -d


def kron(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """Kronecker product (the transition matrix of a tensor product)."""
    out = []
    for i1 in range(a.rows):
        for i2 in range(b.rows):
            row = []
            for j1 in range(a.cols):
                for j2 in range(b.cols):
                    row.append(a.entries[i1][j1] * b.entries[i2][j2])
            out.append(row)
    return LaurentMatrix(out)


def block_diag(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    out = []
    for i in range(a.rows):
        out.append(list(a.entries[i]) + [ZERO_POLY] * b.cols)
    for i in range(b.rows):
        out.append([ZERO_POLY] * a.cols + list(b.entries[i]))
    return LaurentMatrix(out)


def is_unimodular(a: LaurentMatrix, chart: Chart) -> bool:
    """Entries holomorphic on the chart and det a nonzero constant.

    Such matrices are invertible within the chart ring, hence are exactly
    the changes of holomorphic frame over that chart.
    """
    if not a.is_square():
        return False
    for row in a.entries:
        for e in row:
            if not chart_contains(e, chart):
                return False
    unit = a.det().is_unit()
    return unit is not None and unit[1] == 0


def shift_columns(m: LaurentMatrix, shifts) -> LaurentMatrix:
    """m * diag(z^shifts[j]): column j multiplied by z^shifts[j]."""
    return LaurentMatrix(
        [[p.shift(e) for p, e in zip(row, shifts)] for row in m.entries]
    )


# ---------------------------------------------------------------------------
# Column reduction and the w-adic inverse
# ---------------------------------------------------------------------------


def _column_degree(col) -> int:
    degs = [p.degree for p in col if p]
    if not degs:
        raise ValueError("matrix is singular: a column reduced to zero")
    return max(degs)


def column_reduce(t: LaurentMatrix):
    """Column-reduce P = z^N * T over C[z], N the largest |exponent| of T.

    T must be square; a singular T raises ValueError.  Returns (N, r, V, Q)
    with Q = P*V, V unimodular over C[z], r_j the degree of column j of Q,
    and the leading-coefficient matrix of Q (the z^(r_j) coefficients of
    column j) nonsingular.  Each step takes a constant kernel vector u of the
    leading-coefficient matrix and replaces the highest-degree
    participating column j* by sum_j u_j z^(r_j* - r_j) col_j, which
    strictly drops its degree.

    Q*diag(z^-r_j) then lies in the w-chart ring with that nonsingular
    matrix as its constant term, so it is w-unimodular whenever det T is a
    unit: z^N*T*V = Q is the Wiener-Hopf factorization of T.
    """
    k = t.rows
    n = max(
        (max(p.degree, -p.order) for row in t.entries for p in row if p), default=0
    )
    cols = [[t[i, j].shift(n) for i in range(k)] for j in range(k)]
    v = [[ONE_POLY if i == j else ZERO_POLY for i in range(k)] for j in range(k)]
    guard = sum(_column_degree(c) for c in cols) + k + 1
    for _ in range(guard + 1):
        degs = [_column_degree(c) for c in cols]
        lead = ScalarMatrix(
            [[cols[j][i].coeff(degs[j]) for j in range(k)] for i in range(k)]
        )
        null = kernel_basis(lead)
        if not null:
            return n, degs, _from_columns(v), _from_columns(cols)
        u = null[0]
        picked = max(
            (j for j in range(k) if u[j] != ZERO), key=lambda j: (degs[j], j)
        )
        new_col = [ZERO_POLY] * k
        new_v = [ZERO_POLY] * k
        for j in range(k):
            c = u[j]
            if c == ZERO:
                continue
            shift = degs[picked] - degs[j]
            for i in range(k):
                new_col[i] = new_col[i] + cols[j][i].shift(shift).scale(c)
                new_v[i] = new_v[i] + v[j][i].shift(shift).scale(c)
        cols[picked] = new_col
        v[picked] = new_v
    raise InternalCheckError("column reduction failed to terminate")


def _from_columns(cols) -> LaurentMatrix:
    return LaurentMatrix([list(row) for row in zip(*cols)])


def _scalar_inverse(grid):
    """Gauss-Jordan inverse of a nonsingular Q(i) matrix (lists of rows)."""
    k = len(grid)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(k)]
           for i, row in enumerate(grid)]
    for c in range(k):
        piv = next((r for r in range(c, k) if aug[r][c]), None)
        if piv is None:
            raise ValueError("singular constant matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = aug[c][c].inverse()
        aug[c] = [x * inv for x in aug[c]]
        for r in range(k):
            f = aug[r][c]
            if r != c and f:
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[k:] for row in aug]


def _sparse_rows(grid):
    return [[(j, x) for j, x in enumerate(row) if x] for row in grid]


def _mul_into(acc, rows, b):
    """acc += rows * b for Q(i) matrices, rows given by _sparse_rows."""
    for out, row in zip(acc, rows):
        for j, x in row:
            for m, y in enumerate(b[j]):
                if y:
                    out[m] = out[m] + x * y


def w_adic_inverse(a: LaurentMatrix) -> LaurentMatrix:
    """Inverse of a w-unimodular matrix, summed as a w-adic series.

    a = A_0 + A_1 w + ... + A_s w^s (w = 1/z) must lie in the w-chart ring
    with A_0 nonsingular.  The inverse is B_0 + B_1 w + ... with
    B_0 = A_0^-1 and B_n = -A_0^-1 * sum_{j=1..s} A_j B_(n-j).  The
    recurrence reads only the last s terms, so s consecutive zero terms
    end the series.  A w-unimodular input has a polynomial inverse of
    w-degree at most (k-1)*s (the adjugate bound), which caps the series;
    on any other input the capped sum is no inverse, so callers
    re-multiply.
    """
    k = a.rows
    if any(not chart_contains(p, Chart.W) for row in a.entries for p in row):
        raise ValueError("matrix is not holomorphic on the w-chart")
    s = max((-p.order for row in a.entries for p in row if p), default=0)
    coeffs = [[[p.coeff(-j) for p in row] for row in a.entries] for j in range(s + 1)]
    a_rows = [_sparse_rows(aj) for aj in coeffs]
    a0inv = _scalar_inverse(coeffs[0])
    minus_a0inv = _sparse_rows([[-x for x in row] for row in a0inv])
    terms = [a0inv]
    zeros = 0
    while zeros < s and len(terms) <= (k - 1) * s:
        n = len(terms)
        acc = [[ZERO] * k for _ in range(k)]
        for j in range(1, min(s, n) + 1):
            _mul_into(acc, a_rows[j], terms[n - j])
        term = [[ZERO] * k for _ in range(k)]
        _mul_into(term, minus_a0inv, acc)
        terms.append(term)
        zeros = 0 if any(any(row) for row in term) else zeros + 1
    return LaurentMatrix(
        [
            [LaurentPoly({-e: t[i][m] for e, t in enumerate(terms)}) for m in range(k)]
            for i in range(k)
        ]
    )


# ---------------------------------------------------------------------------
# Scalar matrices and exact kernels
# ---------------------------------------------------------------------------


def _promote_scalar(e):
    if isinstance(e, GaussianRational):
        return e
    if isinstance(e, (int, Fraction)):
        return GaussianRational(e)
    raise TypeError(f"scalar entry must be GaussianRational, got {type(e).__name__}")


class ScalarMatrix:
    """A dense grid of Q(i) scalars (coefficient-level linear systems)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=None):
        grid = tuple(tuple(_promote_scalar(e) for e in row) for row in entries)
        if grid:
            width = len(grid[0])
            if any(len(row) != width for row in grid):
                raise ValueError("ragged rows in matrix")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            width = cols
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarMatrix is immutable")

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        return self.cols == other.cols and self.entries == other.entries

    def __hash__(self):
        return hash((self.cols, self.entries))


_EXACT_PATH_LIMIT = 2400  # rows*cols at or below this run the Bareiss path


def kernel_basis(m: ScalarMatrix):
    """Exact canonical basis of the right null space of m.

    Returns a list of tuples of GaussianRational, one per free column of
    the reduced echelon form; each vector has 1 at its own free column and
    0 at the others, so the list is empty exactly when the kernel is
    trivial.
    """
    if m.cols == 0:
        return []
    if m.rows == 0:
        basis = []
        for f in range(m.cols):
            v = [ZERO] * m.cols
            v[f] = ONE
            basis.append(tuple(v))
        return basis
    int_rows = _clear_rows(m)
    if m.rows * m.cols <= _EXACT_PATH_LIMIT:
        return _kernel_exact(int_rows, m.rows, m.cols)
    return _kernel_modular(int_rows, m.rows, m.cols)


def _clear_rows(m: ScalarMatrix):
    """Sparse integer form: per row, a list of (col, re, im) over Z[i].

    Each row is scaled by the lcm of its denominators; row scaling leaves
    the kernel unchanged.
    """
    out = []
    for row in m.entries:
        denom = 1
        for e in row:
            denom = denom * e.re.denominator // math.gcd(denom, e.re.denominator)
            denom = denom * e.im.denominator // math.gcd(denom, e.im.denominator)
        sparse = []
        for j, e in enumerate(row):
            if e:
                a = e.re.numerator * (denom // e.re.denominator)
                b = e.im.numerator * (denom // e.im.denominator)
                sparse.append((j, a, b))
        out.append(sparse)
    return out


# -- exact (fraction-free) path ---------------------------------------------


def _kernel_exact(int_rows, nrows, ncols):
    # Bareiss forward elimination over Z[i] keeps every intermediate entry a
    # Gaussian integer (each is a minor of the original matrix), then the
    # canonical kernel is read off by back substitution over Q(i).
    m = [[(0, 0)] * ncols for _ in range(nrows)]
    for i, row in enumerate(int_rows):
        for j, a, b in row:
            m[i][j] = (a, b)

    def gmul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def gsub(x, y):
        return (x[0] - y[0], x[1] - y[1])

    def gdiv(x, y):
        # exact division in Z[i]
        n = y[0] * y[0] + y[1] * y[1]
        p = gmul(x, (y[0], -y[1]))
        q0, r0 = divmod(p[0], n)
        q1, r1 = divmod(p[1], n)
        if r0 or r1:
            raise ArithmeticError("non-exact division in Bareiss elimination")
        return (q0, q1)

    piv_cols = []
    prev = (1, 0)
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c] != (0, 0):
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            if mic == (0, 0):
                for j in range(c + 1, ncols):
                    if m[i][j] != (0, 0):
                        m[i][j] = gdiv(gmul(m[i][j], pv), prev)
            else:
                for j in range(c + 1, ncols):
                    m[i][j] = gdiv(gsub(gmul(m[i][j], pv), gmul(mic, m[r][j])), prev)
                m[i][c] = (0, 0)
        prev = pv
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break

    return _kernel_from_echelon(m, piv_cols, ncols)


def _kernel_from_echelon(m, piv_cols, ncols):
    rank = len(piv_cols)
    pivset = set(piv_cols)
    free_cols = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free_cols:
        x = [ZERO] * ncols
        x[f] = ONE
        for i in range(rank - 1, -1, -1):
            c = piv_cols[i]
            if c > f:
                continue
            acc = ZERO
            row = m[i]
            for j in range(c + 1, ncols):
                e = row[j]
                if e != (0, 0) and x[j]:
                    acc = acc + GaussianRational(e[0], e[1]) * x[j]
            pv = row[c]
            x[c] = -acc / GaussianRational(pv[0], pv[1])
        basis.append(tuple(x))
    return basis


# -- certified multi-modular path --------------------------------------------


def _is_probable_prime(n: int) -> bool:
    # Deterministic Miller-Rabin for n < 3,215,031,751 with bases 2, 3, 5, 7.
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_minus_one(p: int) -> int:
    for g in range(2, p):
        u = pow(g, (p - 1) // 4, p)
        if u * u % p == p - 1:
            return u
    raise ArithmeticError(f"no square root of -1 mod {p}")


_PRIME_CACHE: list = []


def _primes_with_i():
    """Primes p = 1 (mod 4) descending from 2^31, paired with sqrt(-1)."""
    yield from _PRIME_CACHE
    n = _PRIME_CACHE[-1][0] - 4 if _PRIME_CACHE else (2**31 - 3)
    while True:
        if _is_probable_prime(n):
            pair = (n, _sqrt_minus_one(n))
            _PRIME_CACHE.append(pair)
            yield pair
        n -= 4


def _rref_mod_p(a: np.ndarray, p: int):
    """In-place Gauss-Jordan mod p; returns the pivot column list."""
    nrows, ncols = a.shape
    piv_cols = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = a[r] * inv % p
        col = a[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            a[rows] = (a[rows] - np.outer(col[rows], a[r])) % p
        piv_cols.append(c)
        r += 1
    return piv_cols


def _embed_mod_p(int_rows, nrows, ncols, p, u):
    a = np.zeros((nrows, ncols), dtype=np.int64)
    for i, row in enumerate(int_rows):
        for j, x, y in row:
            a[i, j] = (x + y * u) % p
    return a


def _crt_pair(c1, m1, c2, m2):
    t = (c2 - c1) * pow(m1, -1, m2) % m2
    return c1 + m1 * t, m1 * m2


def _rat_recon(c: int, m: int):
    """Wang rational reconstruction: n/d = c (mod m), |n|, d <= sqrt(m/2)."""
    c %= m
    bound = math.isqrt(m // 2)
    r0, r1 = m, c
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or math.gcd(r1, abs(t1)) != 1:
        return None
    return Fraction(r1, t1)


def _kernel_modular(int_rows, nrows, ncols):
    best = None  # (-rank, piv_cols) of the structure being accumulated
    residues = None  # {(i, f): (re_residue, im_residue)} accumulated via CRT
    modulus = 1
    used = 0
    for p, u in _primes_with_i():
        a1 = _embed_mod_p(int_rows, nrows, ncols, p, u)
        piv1 = _rref_mod_p(a1, p)
        a2 = _embed_mod_p(int_rows, nrows, ncols, p, p - u)
        piv2 = _rref_mod_p(a2, p)
        if piv1 != piv2:
            continue  # embeddings disagree: unlucky prime
        rank = len(piv1)
        key = (-rank, tuple(piv1))
        if best is None or key < best:
            # Higher rank (or an earlier pivot pattern at equal rank) wins;
            # start accumulation over.
            best = key
            residues = {}
            modulus = 1
        elif key > best:
            continue
        piv_cols = list(best[1])
        pivset = set(piv_cols)
        free_cols = [c for c in range(ncols) if c not in pivset]
        half = pow(2, -1, p)
        uinv2 = pow(2 * u, -1, p)
        fresh = {}
        for i in range(len(piv_cols)):
            r1 = a1[i]
            r2 = a2[i]
            for f in free_cols:
                if f < piv_cols[i]:
                    continue
                c1, c2 = int(r1[f]), int(r2[f])
                fresh[(i, f)] = (
                    (c1 + c2) * half % p,
                    (c1 - c2) * uinv2 % p,
                )
        if modulus == 1:
            residues = fresh
            modulus = p
        else:
            for kxy, (xr, xi) in fresh.items():
                orr, oxi = residues[kxy]
                nr, _ = _crt_pair(orr, modulus, xr, p)
                ni, _ = _crt_pair(oxi, modulus, xi, p)
                residues[kxy] = (nr, ni)
            modulus *= p
        used += 1

        candidate = _reconstruct_kernel(
            residues, modulus, piv_cols, free_cols, ncols
        )
        if candidate is not None and _verify_kernel(int_rows, candidate):
            return candidate
        if used > 256:
            raise ArithmeticError("modular kernel failed to stabilize")


def _reconstruct_kernel(residues, modulus, piv_cols, free_cols, ncols):
    values = {}
    for kxy, (xr, xi) in residues.items():
        fr = _rat_recon(xr, modulus)
        if fr is None:
            return None
        fi = _rat_recon(xi, modulus)
        if fi is None:
            return None
        values[kxy] = GaussianRational(fr, fi)
    basis = []
    for f in free_cols:
        v = [ZERO] * ncols
        v[f] = ONE
        for i, c in enumerate(piv_cols):
            if c < f:
                v[c] = -values[(i, f)]
        basis.append(tuple(v))
    return basis


def _verify_kernel(int_rows, basis):
    for v in basis:
        denom = 1
        for e in v:
            denom = denom * e.re.denominator // math.gcd(denom, e.re.denominator)
            denom = denom * e.im.denominator // math.gcd(denom, e.im.denominator)
        xs = [int(e.re * denom) for e in v]
        ys = [int(e.im * denom) for e in v]
        for row in int_rows:
            sr = 0
            si = 0
            for j, a, b in row:
                x, y = xs[j], ys[j]
                if x or y:
                    sr += a * x - b * y
                    si += a * y + b * x
            if sr or si:
                return False
    return True

