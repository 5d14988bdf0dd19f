"""Matrices over Laurent polynomials and over Q(i) scalars.

Two layers live here:

* :class:`LaurentMatrix` -- transition-matrix algebra: products and exact
  determinants, plus the one Wiener-Hopf factorization
  (:func:`wiener_hopf`) that both the splitter and
  :meth:`LaurentMatrix.inverse` read.  Column-reducing z^N*T
  (:func:`column_reduce`) by weak Popov transformations, which solve no
  linear system, yields T = z^-N * Winv * diag(z^r_j) * V^-1 with V
  unimodular over C[z] and, when det T is a unit, Winv unimodular over
  C[1/z]; Winv is inverted as a w-adic series (:func:`w_adic_inverse`), so
  no adjugate is ever formed.  Its constant term, the weak Popov
  leading-coefficient matrix, is triangular up to a column permutation and
  is inverted by back substitution, with no kernel solve, and the series
  stops at the column-degree bound sum_j s_j - min_j s_j, s_j the w-degree
  of column j of Winv.  The factorization W*T*U = diag(z^-d_j) is
  computed at most once per matrix object, proven by one exact product
  when it is made, and kept on it; the inverse is read off it as
  T^-1 = U * diag(z^d_j) * W with no further check.  Every exact product
  here runs on the two int-triple kernels of ``laurent``, normalised once
  per output coefficient: each entry of a matrix product, each row of a
  scalar-matrix product in the w-adic series and its back substitution (a
  row read as a polynomial in its column index) and each Bareiss update
  a*d - b*c is one call of the fused ``laurent._dot``; each entry of a
  reduction step col_f + x*z^e*col_g and each step of an exact division is
  one call of ``laurent._add_monomial_times``.  The determinant is one
  Bareiss elimination at every size, which divides exactly in the Laurent
  ring (:func:`_lp_divexact`).  It serves only two callers: the validation of
  a transition that arrives from outside (``VectorBundle.__init__``) and
  the error branch of :func:`wiener_hopf`.  Derived and seeded bundles
  carry their determinant, and certificates are checked by a degree-sum
  argument (``splitter.verify_factorization``).

* :class:`SparseSystem` + :func:`kernel_basis` -- exact null spaces of
  coefficient-level linear systems.  A system has one input form: sparse
  rows of (col, re, im) over the Gaussian integers, each row a Q(i) row
  cleared by the lcm of its own denominators (:func:`clear_row`), one per
  entry: the d of the (a + b*i)/d that a GaussianRational stores.  The Cech
  constraint systems are assembled in that form directly; ScalarMatrix is
  its Q(i) front end, which keeps a dense grid and clears its rows once.
  One certified multi-modular engine reduces the rows modulo primes p = 1
  (mod 4), where Q(i) embeds in GF(p), by a sparse Gauss-Jordan on plain
  ints with no dense grid (:func:`_rref_mod_p`), and rebuilds the reduced
  echelon form by CRT and Wang's rational reconstruction, straight into
  those integer triples.  Only the echelon entries that are nonzero modulo
  some prime are carried through CRT and reconstruction; a missing entry
  is 0.  *Every kernel vector is verified exactly*, in Z[i] after scaling
  by the lcm of its denominators.  A verified basis of size (cols -
  modular rank) pins the nullity on both sides, so the result is exact,
  never probabilistic; a system with a pivot in every column modulo one
  prime has full column rank, and returns no vector at once.  Reconstruction follows one schedule: it
  is tried at the 1st, 2nd, 4th, 8th, ... prime accumulated for the
  current pivot structure, at the certain count and at the last prime of
  the budget, and only on a prime that was accumulated.  The
  prime budget comes from the Hadamard bound H of the rows: reconstruction
  is certain once the modulus exceeds 2*H^4, and at most log2(H^2)/29 primes
  can be unlucky, so the cost grows with coefficient height as well as with
  shape.  The basis is the canonical (reduced-echelon) one.
"""

from __future__ import annotations

import math

from .errors import (
    DimensionMismatch,
    InternalCheckError,
    KernelBudgetExceeded,
    SystemTooLarge,
)
from .exact import GaussianRational, ONE, ZERO, _canonical
from .laurent import (
    Chart,
    LaurentPoly,
    ONE_POLY,
    ZERO_POLY,
    _add_monomial_times,
    _dot,
    _poly,
    _promote_scalar,
    chart_contains,
    z_power,
)

# The largest job, in cells, taken on: one Cech constraint system (rows x
# unknowns), the Cech systems of a whole twist profile together, a w-adic
# series (its cap of terms x k^2 entries), a seeded gauge scramble (the
# terms its moves multiply, bundle._charge_scramble), or a Kronecker product
# (its entries plus its term products, kron).  A larger one raises
# SystemTooLarge before anything is allocated.  The benchmark ladder's
# largest jobs are 2,304 cells for one Cech system and 576 for one series;
# its largest profile is checked against the limit as 8,862 cells, the sum
# over its twists of the smaller of each twist's two systems (cech._counts),
# and builds 3,202.  Its largest Kronecker product is charged 416.
MAX_SYSTEM_CELLS = 300_000


def check_size(cells: int, what: str):
    """Raise SystemTooLarge when a job of this many cells is over the limit."""
    if cells > MAX_SYSTEM_CELLS:
        raise SystemTooLarge(f"{what} exceeds the limit of {MAX_SYSTEM_CELLS} cells")


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
    """A rows x cols grid of Laurent polynomials; immutable.

    A square matrix also keeps its Wiener-Hopf factorization once
    :func:`wiener_hopf` has computed it; equality and hashing read only
    the entries.
    """

    __slots__ = ("rows", "cols", "entries", "_wiener_hopf")

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
        object.__setattr__(self, "_wiener_hopf", None)

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
        cols = list(zip(*other.entries))
        return LaurentMatrix([[_dot(zip(r, c)) for c in cols] for r in self.entries])

    def scale(self, p) -> "LaurentMatrix":
        p = _promote_entry(p)
        return LaurentMatrix([[p * e for e in row] for row in self.entries])

    def transpose(self) -> "LaurentMatrix":
        return LaurentMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def det(self) -> LaurentPoly:
        """Exact determinant by fraction-free (Bareiss) elimination, whose
        divisions are exact in the Laurent ring (:func:`_lp_divexact`)."""
        if not self.is_square():
            raise DimensionMismatch("determinant of a non-square matrix")
        return _det_bareiss(self.entries)

    def inverse(self) -> "LaurentMatrix":
        """Exact inverse; requires det to be a unit c*z^e of the Laurent ring.

        Read off the factorization W*T*U = D = diag(z^-d_j) of
        :func:`wiener_hopf` as T^-1 = U * D^-1 * W, so a matrix that was
        already factorized (a split bundle's transition) runs no reduction,
        no series and no check.  The triple was proven by one exact product
        when it was made: W*(T*U*D^-1) = I, and a one-sided inverse of a
        square matrix over the commutative Laurent ring is two-sided, so
        T*(U*D^-1*W) = I.  A matrix whose determinant is not a unit has no
        factorization, and raises ValueError here.
        """
        if not self.is_square():
            raise DimensionMismatch("inverse of a non-square matrix")
        degrees, w, u = wiener_hopf(self)
        return shift_columns(u, degrees) * w

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


def _lp_divexact(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    # Exact division in the Laurent ring, top term first: each step takes
    # c*z^e off the remainder with c*z^e*g, which cancels its top term
    # exactly.  The quotient's exponents lie in [f.order - g.order,
    # f.degree - g.degree]; a remainder below that range means g does not
    # divide f, which Bareiss rules out.
    if f.is_zero():
        return ZERO_POLY
    top, lowest = g.degree, f.order - g.order
    lead_inv = g.coeff(top).inverse()
    rem, q = f, {}
    while rem:
        head = rem.degree
        c, e = rem.coeff(head) * lead_inv, head - top
        if e < lowest:
            raise InternalCheckError("Bareiss division left a remainder")
        q[e] = c
        rem = _add_monomial_times(rem, e, -c, g)
    return _poly(q)


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
            minus = -m[i][c]
            for j in range(c + 1, n):
                num = _dot(((m[i][j], m[c][c]), (minus, m[c][j])))
                m[i][j] = _lp_divexact(num, prev)
            m[i][c] = ZERO_POLY
        prev = m[c][c]
    d = m[n - 1][n - 1]
    return d if sign == 1 else -d


def kron(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """Kronecker product (the transition matrix of a tensor product).

    Charged before anything is built: its entries, and the products of
    each term of ``a`` with each term of ``b``.
    """
    terms_a = sum(len(p) for row in a.entries for p in row)
    terms_b = sum(len(p) for row in b.entries for p in row)
    check_size(
        a.rows * a.cols * b.rows * b.cols + terms_a * terms_b,
        f"a Kronecker product of {a.rows}x{a.cols} by {b.rows}x{b.cols}",
    )
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


def shift_columns(m: LaurentMatrix, shifts) -> LaurentMatrix:
    """m * diag(z^shifts[j]): column j multiplied by z^shifts[j]."""
    return LaurentMatrix(
        [[p.shift(e) for p, e in zip(row, shifts)] for row in m.entries]
    )


# ---------------------------------------------------------------------------
# Column reduction and the w-adic inverse
# ---------------------------------------------------------------------------


def _pivot(col):
    """(r, pi): the degree of a column and the last row that reaches it."""
    r = pi = None
    for i, p in enumerate(col):
        if p:
            d = p.degree
            if r is None or d >= r:
                r, pi = d, i
    if r is None:
        raise ValueError("matrix is singular: a column reduced to zero")
    return r, pi


def _words(polys) -> int:
    # The coefficients' sizes in 64-bit words: the bits of each (re, im,
    # den) triple rounded up, so at least 1 per coefficient.
    return sum(
        (c.num_re.bit_length() + c.num_im.bit_length() + c.den.bit_length() + 63) // 64
        for p in polys
        for c in p._coeffs.values()
    )


def column_reduce(t: LaurentMatrix):
    """Column-reduce P = z^N * T over C[z], N the largest |exponent| of T.

    T must be square; a singular T raises ValueError.  Returns (N, r, V, Q)
    with Q = P*V, V unimodular over C[z], r_j the degree of column j of Q,
    and the leading-coefficient matrix of Q (the z^(r_j) coefficients of
    column j) nonsingular.  Q*diag(z^-r_j) then lies in the w-chart ring
    with that matrix as its constant term, so it is w-unimodular whenever
    det T is a unit: z^N*T*V = Q is the Wiener-Hopf factorization of T.

    Weak Popov form by simple transformations (Mulders and Storjohann,
    J. Symbolic Comput. 35, 2003), with no linear solve.  The pivot of
    column j is its degree r_j and the last row pi_j that reaches it.
    While two columns share a pivot row i, g is the one whose columns of Q
    and V have the fewest coefficient words (ties to the lower index) and
    f the highest-degree other one (ties to the higher index), the two
    swapped if r_f < r_g; then col_f -= (lc_f/lc_g) * z^(r_f - r_g) * col_g
    in Q and V, lc the row-i coefficient at the column's degree.  The rows
    after i of both columns are below degree r_f, so r_f drops or pi_f
    moves up: the potential k*r_f + pi_f drops by at least 1.  With
    distinct pivot rows, the leading-coefficient matrix is triangular up to
    a column permutation, with a nonzero diagonal.

    Cap.  The r_j start at N + colmax_j.  On a nonsingular T they sum to at
    least deg det P (each transformation has determinant 1), which is at
    least the order of det P, kN + sum_j colmin_j: each term of the
    determinant takes one entry from every column.  So the potentials, with
    0 <= pi_j < k, can drop at most k*cap + k*(k-1) times in all, for
    cap = sum_j (colmax_j - colmin_j): a reduction that runs past that
    proves T singular.

    Charge.  The cap bounds transformations, not work: one may lower a
    degree by much more than 1, so ``z^1000000, 1 ; 0, z^-1000000`` takes
    one under a cap of about 2*10^6.  The work is charged as it is done:
    each transformation costs 2k plus the coefficients of the two columns
    it writes, each by its size in 64-bit words and at least 1, and
    SystemTooLarge is raised once the total is over MAX_SYSTEM_CELLS,
    unless one determinant then shows T singular, which raises ValueError as
    a zero column or the cap would have.
    Charging by size, not by term count, bounds a reduction whose few terms
    grow by some 30 digits a step, as those of
    ``(1/5,-2/3)*z^(10^20), -z^3 + 4/3*z^2 + c*z^-1 ; 0, c'*z^-1000000``
    with 30-digit c and c' do.
    """
    k = t.rows
    cap = 0
    for j in range(k):
        col = [p for p in t.column(j) if p]
        if col:
            cap += max(p.degree for p in col) - min(p.order for p in col)
    n = max(
        (max(p.degree, -p.order) for row in t.entries for p in row if p), default=0
    )
    cols = [[t[i, j].shift(n) for i in range(k)] for j in range(k)]
    v = [[ONE_POLY if i == j else ZERO_POLY for i in range(k)] for j in range(k)]
    pivots = [_pivot(c) for c in cols]
    words = [_words(c) + _words(b) for c, b in zip(cols, v)]
    left, cells = k * cap + k * (k - 1), 0
    while True:
        seen = set()  # pivot rows; stop at the first one taken twice
        for _, i in pivots:
            if i in seen:
                break
            seen.add(i)
        else:
            break
        row = [m for m in range(k) if pivots[m][1] == i]
        g = min(row, key=lambda m: (words[m], m))
        f = max((m for m in row if m != g), key=lambda m: (pivots[m][0], m))
        if pivots[f][0] < pivots[g][0]:
            f, g = g, f
        if not left:
            raise ValueError(
                "matrix is singular: its column reduction ran past the step cap"
            )
        left -= 1
        (rf, _), (rg, _) = pivots[f], pivots[g]
        x = -cols[f][i].coeff(rf) / cols[g][i].coeff(rg)
        for side in (cols, v):
            a, b = side[f], side[g]
            for m in range(k):
                if b[m]:
                    a[m] = _add_monomial_times(a[m], rf - rg, x, b[m])
        pivots[f] = _pivot(cols[f])
        words[f] = _words(cols[f]) + _words(v[f])
        cells += 2 * k + words[f]
        if cells > MAX_SYSTEM_CELLS and t.det().is_zero():
            raise ValueError("matrix is singular: its determinant is 0")
        check_size(cells, "a column reduction")
    degs = [r for r, _ in pivots]
    return n, degs, LaurentMatrix(list(zip(*v))), LaurentMatrix(list(zip(*cols)))


def _triangular_inverse(a0):
    """A_0^-1 by back substitution, for a k x k grid of Q(i) scalars whose
    columns have distinct last nonzero rows; its rows are returned as
    polynomials, row j of A_0^-1 being sum_m A_0^-1[j][m] * z^m.

    Ordered by those rows, the columns make A_0 upper triangular with a
    nonzero diagonal: the weak Popov leading-coefficient matrix of
    :func:`column_reduce` is one.  With c the column whose last row is t,
    row t of A_0*X = I reads A_0[t][c]*X[c] + sum_j A_0[t][j]*X[j] = e_t
    over the columns j whose last row is below t, so the rows of X are
    solved bottom-up, exactly, with no pivot search: each is one ``_dot``
    of the later rows, plus z^t, scaled by 1/A_0[t][c].  A zero column, or
    two columns sharing a last row, raises ValueError.
    """
    k = len(a0)
    col_of = [None] * k  # last nonzero row -> its column
    for j in range(k):
        last = max((i for i in range(k) if a0[i][j]), default=None)
        if last is None or col_of[last] is not None:
            raise ValueError("singular constant matrix")
        col_of[last] = j
    inv = [None] * k  # row j of A_0^-1, for column j of A_0
    for t in range(k - 1, -1, -1):
        row, c = a0[t], col_of[t]
        rest = _dot((_poly({0: -row[j]}), inv[j]) for j in col_of[t + 1 :] if row[j])
        inv[c] = _add_monomial_times(rest, t, ONE, ONE_POLY).scale(row[c].inverse())
    return inv


def w_adic_inverse(a: LaurentMatrix) -> LaurentMatrix:
    """Inverse of a w-unimodular matrix, summed as a w-adic series.

    a = A_0 + A_1 w + ... + A_s w^s (w = 1/z) must lie in the w-chart ring,
    with columns of A_0 that have distinct last nonzero rows, as the weak
    Popov form of :func:`column_reduce` gives; then A_0 is triangular up to
    a column permutation with a nonzero diagonal, and B_0 = A_0^-1 is read
    off by back substitution (:func:`_triangular_inverse`).  Any other A_0,
    singular or not, raises ValueError.  The inverse is B_0 + B_1 w + ...
    with B_n = sum_{j=1..s} M_j B_(n-j), M_j = -A_0^-1 * A_j formed once
    for the nonzero A_j.  The recurrence reads only the last s terms, so s
    consecutive zero terms end the series.

    Each scalar matrix is held as its rows, row i read as the polynomial
    sum_m x_im * z^m with the column index as the exponent, so a row of a
    product of scalar matrices is one ``laurent._dot`` call, normalised
    once per entry: each row of M_j is one, and so is each row of B_n.

    Cap.  With s_j the w-degree of column j of a, entry (i, j) of a
    w-unimodular input's inverse is a cofactor that drops column i, divided
    by the constant det a, so its w-degree is at most sum_(m != i) s_m <=
    sum_j s_j - min_j s_j, which caps the series (and is at most (k-1)*s).
    On any other input the capped sum is no inverse, so :func:`wiener_hopf`
    re-multiplies.  A cap of more than MAX_SYSTEM_CELLS entries (its terms
    of k x k) raises SystemTooLarge before the sum starts.
    """
    k = a.rows
    if any(not chart_contains(p, Chart.W) for row in a.entries for p in row):
        raise ValueError("matrix is not holomorphic on the w-chart")
    degs = [max((-p.order for p in col if p), default=0) for col in zip(*a.entries)]
    s = max(degs)
    cap = sum(degs) - min(degs)
    # The message names no count: cap may have more digits than an int can
    # be printed with.
    check_size(cap * k * k, f"a w-adic series of {k}x{k} terms")
    coeffs = {}  # j -> the rows of A_j, {column: entry}, for the nonzero A_j
    for i, row in enumerate(a.entries):
        for m, p in enumerate(row):
            for e, c in p.items():
                coeffs.setdefault(-e, [{} for _ in range(k)])[i][m] = c
    a0 = coeffs.pop(0, [{}] * k)
    terms = [_triangular_inverse([[r.get(m, ZERO) for m in range(k)] for r in a0])]
    minus_a0inv = [[(_poly({0: -x}), m) for m, x in row.items()] for row in terms[0]]
    steps = []  # (j, the rows of M_j as (constant, column) pairs)
    for j in sorted(coeffs):
        a_j = [_poly(r) for r in coeffs[j]]
        m_j = [_dot((x, a_j[m]) for x, m in row) for row in minus_a0inv]
        steps.append((j, [[(_poly({0: x}), m) for m, x in r.items()] for r in m_j]))
    zeros = 0
    while zeros < s and len(terms) <= cap:
        n = len(terms)
        rows = [
            _dot((x, terms[n - j][m]) for j, mj in steps if j <= n for x, m in mj[i])
            for i in range(k)
        ]
        terms.append(rows)
        zeros = 0 if any(rows) else zeros + 1
    series = [[{} for _ in range(k)] for _ in range(k)]  # {-n: B_n entry}
    for n, rows in enumerate(terms):
        for i, row in enumerate(rows):
            for m, x in row.items():
                series[i][m][-n] = x
    return LaurentMatrix([[_poly(entry) for entry in row] for row in series])


def wiener_hopf(t: LaurentMatrix):
    """(d, W, U) with W*T*U = diag(z^-d_1, ..., z^-d_k), d nonincreasing.

    T must be square and nonsingular.  One column reduction
    (:func:`column_reduce`) gives z^N*T*V = Q with column degrees r_j; the
    w-adic series (:func:`w_adic_inverse`) inverts Winv = Q*diag(z^-r_j),
    so Winv^-1 * T * V = diag(z^(r_j - N)) and d_j = N - r_j.  A
    permutation Perm sorts d into nonincreasing order, giving
    W = Perm*Winv^-1 and U = V*Perm^T (Kailath, Linear Systems, 1980,
    sec. 6.3).

    The triple is proven here, once, by re-multiplying W*T*U = D exactly;
    only a triple that passes is kept, and every reader (the splitter and
    :meth:`LaurentMatrix.inverse`) reads that one.  When det T is not a
    unit, the capped series is no inverse and the product fails: that
    raises ValueError, and a failed product on a unit determinant raises
    InternalCheckError.  The determinant is computed only then.

    Computed at most once per matrix object and kept on it; a call that
    raises keeps nothing, so it raises again when called again.
    """
    if t._wiener_hopf is None:
        n, degs, v, q = column_reduce(t)
        winv_inv = w_adic_inverse(shift_columns(q, [-r for r in degs]))
        order = sorted(range(t.rows), key=lambda j: (degs[j], j))
        w = LaurentMatrix([winv_inv.row(j) for j in order])
        u = LaurentMatrix([[row[j] for j in order] for row in v.entries])
        degrees = tuple(n - degs[j] for j in order)
        if w * t * u != LaurentMatrix.diagonal([z_power(-d) for d in degrees]):
            if t.det().is_unit() is None:
                raise ValueError("matrix determinant is not a unit; no factorization")
            raise InternalCheckError("factorization failed to re-multiply to D")
        object.__setattr__(t, "_wiener_hopf", (degrees, w, u))
    return t._wiener_hopf


# ---------------------------------------------------------------------------
# Scalar matrices and exact kernels
# ---------------------------------------------------------------------------


class SparseSystem:
    """A linear system over Z[i] in sparse rows: the one kernel input form.

    ``int_rows`` holds one list per row of (col, re, im) integer triples,
    one per nonzero entry re + im*i, in increasing column order; ``rows``
    and ``cols`` give the shape.  A row of Q(i) entries (a + b*i)/d is
    cleared to this form by :func:`clear_row`, which reads each entry's
    stored ints and builds no ``Fraction``.
    """

    __slots__ = ("rows", "cols", "int_rows")

    def __init__(self, int_rows, cols):
        object.__setattr__(self, "rows", len(int_rows))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "int_rows", int_rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


def clear_row(row):
    """Scale one sparse Q(i) row to Z[i] by the lcm of its denominators.

    row lists (col, c) for the nonzero GaussianRational coefficients c, each
    stored as (a + b*i)/d: one denominator per entry.  With L the lcm of the
    d's, returns the (col, a*L/d, b*L/d) triples of the row scaled by L.
    Row scaling leaves the kernel unchanged.
    """
    denom = 1
    for _, c in row:
        if c.den != 1:
            denom = math.lcm(denom, c.den)
    if denom == 1:
        return [(j, c.num_re, c.num_im) for j, c in row]
    return [(j, c.num_re * (m := denom // c.den), c.num_im * m) for j, c in row]


class ScalarMatrix(SparseSystem):
    """A dense grid of Q(i) scalars: the Q(i) front end of :class:`SparseSystem`.

    ``entries`` keeps the grid; its rows are cleared to Z[i] once, here.
    """

    __slots__ = ("entries",)

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
        int_rows = [
            clear_row([(j, e) for j, e in enumerate(row) if e])
            for row in grid
        ]
        super().__init__(int_rows, width)
        object.__setattr__(self, "entries", grid)


def kernel_basis(m: SparseSystem):
    """Exact canonical basis of the right null space of m.

    m is a :class:`SparseSystem` (a :class:`ScalarMatrix` is one).  Returns
    a list of tuples of GaussianRational, one per free column of the
    reduced echelon form; each vector has 1 at its own free column and 0 at
    the others, so the list is empty exactly when the kernel is trivial.

    The basis comes from the certified multi-modular engine and is verified
    exactly against m before it is returned, except when the first
    elimination modulo the first prime finds a pivot in every column: that
    proves the kernel trivial, and [] is returned with no second
    embedding, reconstruction or verification.  The number of primes it may
    use is derived from the Hadamard bound of m's rows, so the cost grows
    with coefficient height as well as with shape; KernelBudgetExceeded
    (an InternalCheckError and an ArithmeticError) means that budget ran out without a verified basis.  The residues of the
    reduced echelon form are kept only where they are nonzero: CRT runs over
    the entries kept at either the accumulated modulus or the new prime, a
    missing one being 0 there, and reconstruction reads only those.
    Reconstruction is tried when the count of primes accumulated for the
    current pivot structure is a power of two or the certain count, or at
    the last prime of the budget, and only on a prime that was accumulated:
    an unlucky or lower-rank prime changes nothing, so it would repeat the
    last attempt.
    """
    int_rows, ncols = m.int_rows, m.cols
    certain, budget = _prime_budget(int_rows)
    best = None  # (-rank, pivot columns) of the structure being accumulated
    residues = None  # nonzero {(i, f): (re, im)} modulo `modulus`, by CRT
    modulus = count = 0
    for used, (p, u) in enumerate(_primes_with_i(), 1):
        key, fresh = _residues_mod_p(int_rows, ncols, p, u)
        if key is not None and key[0] == -ncols:
            return []  # a pivot in every column: full column rank
        if key is not None and (best is None or key <= best):
            if key == best:
                # CRT: the residue mod modulus*p that is c mod modulus, x mod
                # p, over the keys of either side; a missing key is 0.
                inv = pow(modulus, -1, p)
                for kxy in residues.keys() | fresh.keys():
                    cr, ci = residues.get(kxy, (0, 0))
                    xr, xi = fresh.get(kxy, (0, 0))
                    residues[kxy] = (
                        cr + modulus * ((xr - cr) * inv % p),
                        ci + modulus * ((xi - ci) * inv % p),
                    )
                modulus *= p
                count += 1
            else:
                # Higher rank (or an earlier pivot pattern at equal rank)
                # wins; start accumulation over.
                best, residues, modulus, count = key, fresh, p, 1
            if count & (count - 1) == 0 or count == certain or used == budget:
                values = _reconstruct(residues, modulus)
                if values is not None:
                    basis = _basis_from_echelon(values, best[1], ncols)
                    if _verify_kernel(int_rows, basis):
                        return basis
        if used == budget:
            raise KernelBudgetExceeded(
                f"modular kernel failed to stabilize within {budget} primes"
            )


# -- certified multi-modular engine ------------------------------------------


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
# Every prime used lies between 2^29 and 2^30.  CPython stores an int in
# 30-bit digits, so below 2^30 every residue is one digit, and a product of
# two residues and its `% p` take the interpreter's one-digit fast paths.
_PRIME_BITS = 29


def _primes_with_i():
    """Primes p = 1 (mod 4) descending from 2^30, paired with sqrt(-1)."""
    yield from _PRIME_CACHE
    n = _PRIME_CACHE[-1][0] - 4 if _PRIME_CACHE else (2**30 - 3)
    while True:
        if _is_probable_prime(n):
            pair = (n, _sqrt_minus_one(n))
            _PRIME_CACHE.append(pair)
            yield pair
        n -= 4


def _prime_budget(int_rows):
    """(certain, budget): primes that make reconstruction certain, and the
    most primes the engine may consume.

    With H the product of the row 2-norms (Hadamard), every minor D has
    |D| <= H, so the real and imaginary parts of each reduced-echelon entry
    N/D are fractions with numerator and denominator at most H^2; Wang's
    reconstruction recovers them once the modulus exceeds 2*H^4.  A prime
    can only be unlucky by dividing the norm |D|^2 <= H^2 of the pivot
    minor, which at most log2(H^2)/29 primes above 2^29 do.
    """
    h2 = math.prod(sum(a * a + b * b for _, a, b in row) or 1 for row in int_rows)
    bits = h2.bit_length()
    certain = -(-(2 * bits + 1) // _PRIME_BITS)
    return certain, certain + bits // _PRIME_BITS


def _sub_mul(row, f, other, p):
    """row -= f*other (mod p), for sparse rows {col: value}; zeros dropped."""
    for c, v in other.items():
        if x := (row.get(c, 0) - f * v) % p:
            row[c] = x
        else:
            del row[c]


def _rref_mod_p(rows, p):
    """Reduced echelon form mod p of sparse rows {col: value}, consumed;
    returns [(pivot column, pivot row)] in column order.

    Gauss-Jordan over the nonzero rows in order of their last column.  Each
    pivot row is 1 at its pivot and 0 before it and at the other pivots, so
    one pass over the pivots a new row meets clears it; the rest becomes a
    pivot row at its first column, which is cleared from the pivot rows to
    its left.  These span the row space in reduced echelon form, which is
    unique, so the output is canonical in any row order.  The order by last
    column keeps the fill down: every row seen so far, and so every pivot
    row, lies within the columns up to the new row's last, so neither
    clearing the new row nor clearing its pivot from the others writes to
    the right of it.
    """
    pivots = {}
    for row in sorted(filter(None, rows), key=max):
        for c in [c for c in row if c in pivots]:
            _sub_mul(row, row[c], pivots[c], p)
        if row:
            c = min(row)
            inv = pow(row[c], -1, p)
            row = {j: x * inv % p for j, x in row.items()}
            for other in pivots.values():
                if c in other:
                    _sub_mul(other, other[c], row, p)
            pivots[c] = row
    return sorted(pivots.items())


def _residues_mod_p(int_rows, ncols, p, u):
    """Reduced echelon form mod p under both embeddings i -> u and i -> -u.

    Returns the structure key (-rank, pivot columns) and the residues
    {(i, f): (re, im)} of the nonzero entries at pivot row i and free column
    f, or (None, None) when the two embeddings disagree (an unlucky prime).
    An entry that vanishes under both embeddings gets no key: a missing key
    is 0.  Entries that vanish mod p are dropped before elimination.

    When the first embedding puts a pivot in every one of the ncols
    columns, the key is returned at once with no residues: some
    ncols x ncols minor is nonzero mod p, so it is nonzero over Z[i], and
    the kernel is trivial.
    """

    def echelon(v):
        rows = [{j: x for j, a, b in row if (x := (a + b * v) % p)} for row in int_rows]
        return _rref_mod_p(rows, p)

    ech1 = echelon(u)
    if len(ech1) == ncols:
        return (-ncols, tuple(range(ncols))), {}
    ech2 = echelon(p - u)
    piv_cols = [c for c, _ in ech1]
    if [c for c, _ in ech2] != piv_cols:
        return None, None
    half, uinv2 = pow(2, -1, p), pow(2 * u, -1, p)
    fresh = {}
    # A pivot row is 0 at the other pivots, so its other keys are free columns.
    for i, ((c, r1), (_, r2)) in enumerate(zip(ech1, ech2)):
        for f in r1.keys() | r2.keys():
            if f != c:
                c1, c2 = r1.get(f, 0), r2.get(f, 0)
                fresh[(i, f)] = ((c1 + c2) * half % p, (c1 - c2) * uinv2 % p)
    return (-len(piv_cols), tuple(piv_cols)), fresh


def _rat_recon(c: int, m: int):
    """Wang rational reconstruction: the reduced pair (n, d), d > 0, with
    n/d = c (mod m) and |n|, d <= sqrt(m/2); None when there is none."""
    c %= m
    bound = math.isqrt(m // 2)
    r0, r1 = m, c
    t0, t1 = 0, 1
    while r1 > bound:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or math.gcd(r1, abs(t1)) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _rat_recon_pair(residue, modulus):
    """GaussianRational with real and imaginary parts reconstructed from
    the residue pair, or None when either part does not reconstruct."""
    fr = _rat_recon(residue[0], modulus)
    fi = fr and _rat_recon(residue[1], modulus)
    if not fi:
        return None
    (p, q), (r, s) = fr, fi
    return _canonical(p * s, r * q, q * s)


def _reconstruct(residues, modulus):
    """{(i, f): value} from every kept residue, or None as soon as one does
    not reconstruct."""
    values = {}
    for kxy, residue in residues.items():
        value = _rat_recon_pair(residue, modulus)
        if value is None:
            return None
        values[kxy] = value
    return values


def _basis_from_echelon(values, piv_cols, ncols):
    """Canonical kernel basis from the nonzero reduced-echelon entries
    {(pivot row i, free column f): value}; a missing entry is 0."""
    pivset = set(piv_cols)
    vectors = {f: [ZERO] * ncols for f in range(ncols) if f not in pivset}
    for f, v in vectors.items():
        v[f] = ONE
    for (i, f), value in values.items():
        vectors[f][piv_cols[i]] = -value
    return [tuple(v) for v in vectors.values()]


def _verify_kernel(int_rows, basis):
    for v in basis:
        # v scaled by the lcm of its denominators, exactly, as Z[i] vectors.
        denom = math.lcm(*(e.den for e in v))
        xs = [e.num_re * (denom // e.den) for e in v]
        ys = [e.num_im * (denom // e.den) for e in v]
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

