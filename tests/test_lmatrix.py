import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from p1bundles import (
    DimensionMismatch,
    GaussianRational,
    InternalCheckError,
    LaurentMatrix,
    LaurentPoly,
    ScalarMatrix,
    SystemTooLarge,
    VectorBundle,
    W_CHART,
    Z_CHART,
    chart_contains,
    constant,
    kernel_basis,
    kron,
    monomial,
    random_bundle,
    random_unimodular,
    z_power,
)
from p1bundles import cech, laurent, lmatrix, parse_bundle
from p1bundles.laurent import ONE_POLY, ZERO_POLY


def gq(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def lm(rows):
    return LaurentMatrix(rows)


I2 = LaurentMatrix.identity(2)


def test_mul_examples():
    a = lm([[z_power(1), constant(2)], [ZERO_POLY, z_power(-1)]])
    assert I2 * a == a
    assert lm([[z_power(-1), ZERO_POLY], [ZERO_POLY, z_power(1)]]) * lm(
        [[z_power(1), ZERO_POLY], [ZERO_POLY, z_power(-1)]]
    ) == I2
    shear = lm([[ONE_POLY, z_power(-1)], [ZERO_POLY, ONE_POLY]])
    unshear = lm([[ONE_POLY, -z_power(-1)], [ZERO_POLY, ONE_POLY]])
    assert shear * unshear == I2


def test_mul_dimension_mismatch():
    a = lm([[ONE_POLY, ZERO_POLY]])
    with pytest.raises(DimensionMismatch):
        a * a


def test_det_examples():
    assert lm([[z_power(-2), ZERO_POLY], [ZERO_POLY, z_power(1)]]).det() == z_power(-1)
    assert lm([[z_power(1), ONE_POLY], [ZERO_POLY, z_power(-1)]]).det() == ONE_POLY
    with pytest.raises(DimensionMismatch):
        lm([[ONE_POLY, ZERO_POLY]]).det()


def _random_laurent_matrix(rng, k, den=1):
    # Gaussian-integer coefficients; den > 1 divides each by a random
    # a + b*i with 1 <= a <= den, b in {0, 1}, giving Q(i) denominators.
    from p1bundles import LaurentPoly

    def coeff():
        c = gq(rng.randint(-3, 3), rng.randint(-1, 1))
        return c if den == 1 else c / gq(rng.randint(1, den), rng.randint(0, 1))

    def poly():
        return LaurentPoly(
            {
                e: coeff()
                for e in range(rng.randint(-2, 0), rng.randint(0, 2) + 1)
            }
        )

    return lm([[poly() for _ in range(k)] for _ in range(k)])


def test_det_multiplicativity_random_3x3():
    rng = random.Random(7)
    for _ in range(20):
        a = _random_laurent_matrix(rng, 3)
        b = _random_laurent_matrix(rng, 3)
        assert (a * b).det() == a.det() * b.det()


def test_det_bareiss_path_4x4_agrees_with_cofactor(unit_det):
    rng = random.Random(11)
    from p1bundles.lmatrix import _det_bareiss

    # Gaussian-integer entries, then Q(i) denominators: dense matrices with
    # a non-unit determinant and unit-determinant shear products.
    cases = [_random_laurent_matrix(rng, 4) for _ in range(8)]
    cases += [_random_laurent_matrix(rng, 4, den=3) for _ in range(4)]
    cases += [unit_det(rng, 4, 6) for _ in range(4)]
    for a in cases:
        # expansion along the first row is an independent 4x4 oracle
        expected = ZERO_POLY
        for j in range(4):
            minor = [
                [a[i, jj] for jj in range(4) if jj != j] for i in range(1, 4)
            ]
            term = a[0, j] * LaurentMatrix(minor).det()
            expected = expected + (term if j % 2 == 0 else -term)
        assert _det_bareiss(a.entries) == expected


def test_det_up_to_3x3_matches_the_cofactor_formulas():
    # The elimination serves every size; the explicit formulas are the
    # oracle here, on dense matrices and on ones whose zero entries force
    # a row swap or a zero pivot column.
    rng = random.Random(13)
    z, w = z_power(1), z_power(-1)
    cases = [_random_laurent_matrix(rng, k, den) for k in (1, 2, 3) for den in (1, 3)]
    cases += [
        lm([[ZERO_POLY, z], [w + ONE_POLY, z + w]]),
        lm([[ZERO_POLY, z, ONE_POLY], [w, ONE_POLY, z], [z + w, ZERO_POLY, w]]),
        lm([[ZERO_POLY, z, ONE_POLY], [ZERO_POLY, ONE_POLY, z], [ZERO_POLY, w, w]]),
    ]
    for a in cases:
        g = a.entries
        if a.rows == 1:
            expected = g[0][0]
        elif a.rows == 2:
            expected = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        else:
            (p, q, r), (s, t, u), (x, y, v) = g
            expected = p * (t * v - u * y) - q * (s * v - u * x) + r * (s * y - t * x)
        assert a.det() == expected


def test_lp_divexact_is_exact_or_raises():
    from p1bundles.lmatrix import _lp_divexact

    z, w, one = z_power(1), z_power(-1), ONE_POLY
    assert _lp_divexact(z * z - one, z - one) == z + one
    # Laurent operands with Q(i) coefficients: the quotient reaches below 0
    f = w + monomial(gq(1, 2), 1)
    g = z - constant(gq(0, 1))
    assert _lp_divexact(f * g, g) == f
    assert _lp_divexact(ZERO_POLY, z + one) == ZERO_POLY
    with pytest.raises(InternalCheckError):
        _lp_divexact(z + one, z - one)
    with pytest.raises(InternalCheckError):
        _lp_divexact(w, one + w)


def test_kernel_examples():
    zero2 = ScalarMatrix([[gq(0), gq(0)], [gq(0), gq(0)]])
    assert len(kernel_basis(zero2)) == 2
    ident = ScalarMatrix([[gq(1), gq(0)], [gq(0), gq(1)]])
    assert kernel_basis(ident) == []
    one_eq = ScalarMatrix([[gq(1), gq(1)]])
    (v,) = kernel_basis(one_eq)
    assert v == (gq(-1), gq(1))


def _naive_echelon(m: ScalarMatrix):
    # Independent textbook row-echelon reduction over Q(i).
    grid = [list(row) for row in m.entries]
    pivots = []
    rows, cols = m.rows, m.cols
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if grid[i][c] != gq(0):
                piv = i
                break
        if piv is None:
            continue
        grid[r], grid[piv] = grid[piv], grid[r]
        inv = grid[r][c].inverse()
        grid[r] = [e * inv for e in grid[r]]
        for i in range(rows):
            if i != r and grid[i][c] != gq(0):
                f = grid[i][c]
                grid[i] = [e - f * p for e, p in zip(grid[i], grid[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def _naive_rank(m: ScalarMatrix) -> int:
    return len(_naive_echelon(m))


def _random_scalar_matrix(rng, rows, cols, rational=True):
    def entry():
        if rng.random() < 0.35:
            return gq(0)
        if rational:
            return GaussianRational(
                Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            )
        return gq(rng.randint(-8, 8), rng.randint(-3, 3))

    return ScalarMatrix([[entry() for _ in range(cols)] for _ in range(rows)])


def test_kernel_rank_nullity_and_exactness():
    rng = random.Random(99)
    for _ in range(30):
        m = _random_scalar_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
        basis = kernel_basis(m)
        assert len(basis) == m.cols - _naive_rank(m)
        for v in basis:
            for row in m.entries:
                acc = gq(0)
                for e, x in zip(row, v):
                    acc = acc + e * x
                assert acc == gq(0)
        # canonical structure doubles as linear independence: vector i
        # carries a 1 at the i-th free column and 0 at the others
        pivots = set(_naive_echelon(m))
        free_cols = [c for c in range(m.cols) if c not in pivots]
        assert len(free_cols) == len(basis)
        for vi, v in enumerate(basis):
            for vj, col in enumerate(free_cols):
                assert v[col] == (gq(1) if vi == vj else gq(0))


def _sympy_kernel(m: ScalarMatrix):
    # Independent oracle: sympy's exact rref over QQ_I.  The canonical basis
    # has 1 at its own free column, 0 at the other free columns and
    # -rref[i][f] at pivot i.
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    qq, qq_i = sympy.QQ, sympy.QQ_I

    def to_sympy(e):
        re, im = e.re, e.im
        return qq_i(qq(re.numerator, re.denominator), qq(im.numerator, im.denominator))

    def from_sympy(x):
        return GaussianRational(
            Fraction(int(x.x.numerator), int(x.x.denominator)),
            Fraction(int(x.y.numerator), int(x.y.denominator)),
        )

    grid = [[to_sympy(e) for e in row] for row in m.entries]
    rref, pivots = DomainMatrix(grid, (m.rows, m.cols), qq_i).rref()
    rref = rref.to_list()
    basis = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [gq(0)] * m.cols
        v[f] = gq(1)
        for i, c in enumerate(pivots):
            v[c] = -from_sympy(rref[i][f])
        basis.append(tuple(v))
    return basis


def _deficient_scalar_matrix(rng, rows, cols, density):
    # Sparse Q(i) rows with denominators, then rank deficiency: rows that
    # repeat an earlier row times a scalar, and columns set to zero.
    def entry():
        if rng.random() > density:
            return gq(0)
        return GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )

    grid = [[entry() for _ in range(cols)] for _ in range(rows)]
    for i in rng.sample(range(1, rows), rows // 4):
        c = gq(rng.randint(-3, 3) or 1, rng.randint(-2, 2))
        grid[i] = [c * e for e in grid[rng.randrange(i)]]
    for j in rng.sample(range(cols), cols // 5):
        for row in grid:
            row[j] = gq(0)
    return ScalarMatrix(grid)


def _tall_scalar_matrix(rng, rows, cols, digits):
    # Dense Q(i) rows whose parts have numerators and denominators of up to
    # `digits` digits; the last row is a multiple of the first.
    big = 10**digits

    def part():
        return Fraction(rng.randint(-big, big), rng.randint(1, big))

    grid = [
        [GaussianRational(part(), part()) for _ in range(cols)] for _ in range(rows - 1)
    ]
    c = GaussianRational(part(), part())
    grid.append([c * e for e in grid[0]])
    return ScalarMatrix(grid)


def _cech_systems(unit_det):
    # Banded Cech systems at the blanket window k*(N+1): a rank-4 tensor
    # with gauge 2 (106 x 100 at cutoff -3) and a bundle with Q(i)
    # denominators, each as a SparseSystem and as a dense ScalarMatrix.
    rng = random.Random(2718)
    tensor = random_bundle([2, -1], 2, 11).tensor(random_bundle([3, 0], 2, 12))
    qi = VectorBundle(unit_det(rng, 3, 4))
    for e, cutoffs in ((tensor, (-3, 0, 2)), (qi, (-1, 2, 6))):
        top = e.rank * (e.max_exponent + 1)
        side = cech._sides(e)[0]  # T's terms, and the top exponent of each column
        for cutoff in cutoffs:
            ranges = [(max(0, cutoff - m + 1), max(0, cutoff) + top) for m in side.tops]
            system, _ = cech._constraint_system(side, cutoff, ranges)
            grid = [[gq(0)] * system.cols for _ in range(system.rows)]
            for i, row in enumerate(system.int_rows):
                for j, a, b in row:
                    grid[i][j] = gq(a, b)
            yield system, ScalarMatrix(grid, cols=system.cols)


def test_kernel_matches_sympy_rref(unit_det):
    rng = random.Random(4242)
    shapes = [(rng.randint(2, 12), rng.randint(2, 12)) for _ in range(24)]
    # sparse systems above 2,400 cells, one wide and one tall
    shapes += [(45, 60), (70, 40)]
    for rows, cols in shapes:
        density = 0.6 if rows * cols <= 144 else 0.08
        m = _deficient_scalar_matrix(rng, rows, cols, density)
        assert kernel_basis(m) == _sympy_kernel(m)
    systems = list(_cech_systems(unit_det))
    assert max(system.rows for system, _ in systems) >= 100
    for system, dense in systems:
        assert kernel_basis(system) == _sympy_kernel(dense)
    # 40-, 80- and 150-digit entries and denominators: the echelon entries
    # need 53, 173, 105 and 199 primes, each between two powers of two, so
    # the basis comes from an attempt past the one it needed.
    tall_rng = random.Random(31)
    for rows, cols, digits in ((2, 3, 40), (3, 4, 40), (2, 3, 80), (2, 3, 150)):
        m = _tall_scalar_matrix(tall_rng, rows, cols, digits)
        assert kernel_basis(m) == _sympy_kernel(m)


def test_unlucky_prime_is_passed_over(monkeypatch):
    # (p0 - u0) + i vanishes mod p0 under i -> u0 but not under i -> -u0,
    # so the two embeddings give different pivots at the first prime.
    p0, u0 = next(lmatrix._primes_with_i())
    a = gq(p0 - u0, 1)
    results = []
    residues = lmatrix._residues_mod_p

    def spy(*args):
        results.append(residues(*args))
        return results[-1]

    monkeypatch.setattr(lmatrix, "_residues_mod_p", spy)
    assert kernel_basis(ScalarMatrix([[a, gq(1)]])) == [(-gq(1) / a, gq(1))]
    assert results[0] == (None, None)


def _dense_rref_mod_p(rows, ncols, p):
    # Independent textbook Gauss-Jordan mod p on dense rows, in row order.
    grid = [[row.get(j, 0) for j in range(ncols)] for row in rows]
    out, r = [], 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(grid)) if grid[i][c]), None)
        if piv is None:
            continue
        grid[r], grid[piv] = grid[piv], grid[r]
        inv = pow(grid[r][c], -1, p)
        grid[r] = [x * inv % p for x in grid[r]]
        for i in range(len(grid)):
            if i != r and grid[i][c]:
                f = grid[i][c]
                grid[i] = [(x - f * y) % p for x, y in zip(grid[i], grid[r])]
        out.append(c)
        r += 1
    return [(c, {j: x for j, x in enumerate(grid[i]) if x}) for i, c in enumerate(out)]


_P0 = next(lmatrix._primes_with_i())[0]
_sparse_rows_mod_p0 = st.lists(
    st.dictionaries(
        st.integers(0, 7),
        st.one_of(st.integers(1, 3), st.just(_P0 - 1), st.integers(1, _P0 - 1)),
        max_size=5,
    ),
    max_size=9,
)


@settings(max_examples=150, deadline=None)
@given(_sparse_rows_mod_p0, st.data())
def test_rref_mod_p_is_the_same_in_any_row_order(rows, data):
    # The reduced echelon form is unique, so the elimination's row order
    # (by last column) changes no pivot and no pivot row.
    shuffled = data.draw(st.permutations(rows))
    expected = _dense_rref_mod_p(rows, 8, _P0)
    assert lmatrix._rref_mod_p([dict(r) for r in rows], _P0) == expected
    assert lmatrix._rref_mod_p([dict(r) for r in shuffled], _P0) == expected


def test_echelon_entry_that_vanishes_mod_one_prime():
    (p0, u0), (p1, _) = itertools.islice(lmatrix._primes_with_i(), 2)
    # -p0 vanishes under both embeddings: no residue at the first prime, so
    # CRT at the second must read the missing key as 0.  -p1 has a residue
    # at the first prime and none at the second.
    for p in (p0, p1):
        assert kernel_basis(ScalarMatrix([[gq(1), gq(-p)]])) == [(gq(p), gq(1))]
    # u0 - i vanishes under i -> u0 only.
    assert kernel_basis(ScalarMatrix([[gq(1), gq(u0, -1)]])) == [(gq(-u0, 1), gq(1))]


def test_tensor_cech_system_work(monkeypatch):
    # The h0_dim solve of a seeded rank-4 tensor (28 x 28, nullity 6): the
    # elimination makes 3,842 entry updates (5,658 in first-column row
    # order), and each reconstruction attempt rebuilds only the nonzero
    # echelon entries (8 here, of 80 off-pivot slots).
    e = random_bundle((1, 0), 2, 3).tensor(random_bundle((1, -1), 2, 3))
    updates, pairs, attempts, bases = [0], [0], [0], []
    sub_mul, recon_pair = lmatrix._sub_mul, lmatrix._rat_recon_pair
    reconstruct, kernel = lmatrix._reconstruct, cech.kernel_basis

    def sub_mul_spy(row, f, other, p):
        updates[0] += len(other)
        return sub_mul(row, f, other, p)

    def recon_pair_spy(residue, modulus):
        pairs[0] += 1
        return recon_pair(residue, modulus)

    def reconstruct_spy(residues, modulus):
        attempts[0] += 1
        return reconstruct(residues, modulus)

    def kernel_spy(m):
        bases.append(kernel(m))
        return bases[-1]

    monkeypatch.setattr(lmatrix, "_sub_mul", sub_mul_spy)
    monkeypatch.setattr(lmatrix, "_rat_recon_pair", recon_pair_spy)
    monkeypatch.setattr(lmatrix, "_reconstruct", reconstruct_spy)
    monkeypatch.setattr(cech, "kernel_basis", kernel_spy)
    assert cech.h0_dim(e) == 6
    (basis,) = bases
    assert len(basis) == 6
    assert updates[0] <= 4_200
    nonzero = sum(sum(1 for x in v if x) - 1 for v in basis)
    assert nonzero == 8
    assert 1 <= pairs[0] <= attempts[0] * nonzero


def test_rat_recon_returns_reduced_pair():
    # Exhaustive at small primes: every residue gives the one reduced (n, d)
    # with |n|, d <= sqrt(m/2), d > 0 and n = c*d (mod m), or None if none.
    for m in (101, 1009, 8191):
        bound = math.isqrt(m // 2)
        pairs = {}
        for d in range(1, bound + 1):
            for n in range(-bound, bound + 1):
                if math.gcd(n, d) == 1:
                    pairs.setdefault(n * pow(d, -1, m) % m, []).append((n, d))
        assert len(pairs) < m  # some residues have no reconstruction
        for c in range(m):
            (expected,) = pairs.get(c, [None])
            assert lmatrix._rat_recon(c, m) == expected
    # At the modulus of three engine primes: random values inside the Wang
    # bound, negative numerators included, and the Q(i) pair built from two.
    primes = lmatrix._primes_with_i()
    m = math.prod(next(primes)[0] for _ in range(3))
    bound = math.isqrt(m // 2)
    rng = random.Random(3)
    for _ in range(200):
        n, d = rng.randint(-bound, bound), rng.randint(1, bound)
        g = math.gcd(n, d)
        n, d = n // g, d // g
        c = n * pow(d, -1, m)
        assert lmatrix._rat_recon(c, m) == (n, d)
        assert lmatrix._rat_recon(c - m * rng.randint(1, 9), m) == (n, d)
        value = lmatrix._rat_recon_pair((c % m, (-c) % m), m)
        assert value == GaussianRational(Fraction(n, d), Fraction(-n, d))
        assert math.gcd(value.num_re, value.num_im, value.den) == 1


def test_scalar_matrix_rejects_bad_entry():
    with pytest.raises(TypeError):
        ScalarMatrix([[gq(1), "2"]])
    with pytest.raises(TypeError):
        ScalarMatrix([[0.5]])


def test_kernel_empty_shapes():
    assert kernel_basis(ScalarMatrix([], cols=3)) == [
        (gq(1), gq(0), gq(0)),
        (gq(0), gq(1), gq(0)),
        (gq(0), gq(0), gq(1)),
    ]
    assert kernel_basis(ScalarMatrix([], cols=0)) == []


def test_det_of_unimodular_product():
    # Every term of the product z*1 - (-1)*(1 - z) cancels but the constant.
    both = lm([[z_power(1), -constant(1)], [constant(1) - z_power(1), ONE_POLY]])
    assert both.det() == ONE_POLY


def test_inverse_of_unimodular():
    # A unit of GL_k over the chart ring: u and its inverse both have every
    # entry on the chart.
    rng = random.Random(5)
    for chart in (Z_CHART, W_CHART):
        for _ in range(10):
            k = rng.randint(1, 4)
            u = random_unimodular(k, chart, 2, rng, moves=3)
            assert u * u.inverse() == LaurentMatrix.identity(k)
            for m in (u, u.inverse()):
                assert all(chart_contains(p, chart) for row in m.entries for p in row)


def _cofactor_inverse(t):
    # Independent oracle for k <= 3: adj(T) / det(T), minors written out.
    g = t.entries
    k = t.rows
    if k == 1:
        cof = [[ONE_POLY]]
    else:

        def minor(i, j):
            sub = [[g[r][c] for c in range(k) if c != j] for r in range(k) if r != i]
            if k == 2:
                return sub[0][0]
            return sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]

        cof = [
            [minor(i, j) if (i + j) % 2 == 0 else -minor(i, j) for j in range(k)]
            for i in range(k)
        ]
    det = ZERO_POLY
    for j in range(k):
        det = det + g[0][j] * cof[0][j]
    c, e = det.is_unit()
    dinv = monomial(c.inverse(), -e)
    return LaurentMatrix([[dinv * cof[j][i] for j in range(k)] for i in range(k)])


def test_inverse_on_shear_products(unit_det):
    # Arbitrary Laurent shears with Q(i) denominators, and tensor products
    # of them: inputs the chart-move scrambler never produces.
    rng = random.Random(2026)
    for _ in range(24):
        k = rng.choice((1, 2, 3, 4, 0))
        if k:
            t = unit_det(rng, k, rng.randint(1, 3))
        else:  # a rank-4 tensor product
            t = kron(unit_det(rng, 2, 1), unit_det(rng, 2, 1))
        inv = t.inverse()
        ident = LaurentMatrix.identity(t.rows)
        assert t * inv == ident
        assert inv * t == ident
        if t.rows <= 3:
            assert inv == _cofactor_inverse(t)


def test_kernel_of_tall_small_system(monkeypatch):
    # 300-digit Gaussian rationals: the echelon entries outgrow 256 primes.
    rng = random.Random(300)

    def tall():
        return GaussianRational(
            Fraction(rng.randrange(10**299, 10**300), rng.randrange(1, 10**5)),
            rng.randrange(-(10**300), 10**300),
        )

    a = [[tall() for _ in range(3)] for _ in range(2)]
    # a budget too small for these heights is refused, never answered wrongly
    with monkeypatch.context() as patch:
        patch.setattr(lmatrix, "_prime_budget", lambda rows: (2, 3))
        with pytest.raises(ArithmeticError):
            kernel_basis(ScalarMatrix(a))
    (v,) = kernel_basis(ScalarMatrix(a))
    # the cross product of the two rows spans the kernel of a rank-2 2x3
    cross = [
        a[0][1] * a[1][2] - a[0][2] * a[1][1],
        a[0][2] * a[1][0] - a[0][0] * a[1][2],
        a[0][0] * a[1][1] - a[0][1] * a[1][0],
    ]
    assert v == tuple(x / cross[2] for x in cross)


def _reduction_inputs(unit_det):
    # Seeded scrambles, Kronecker tensors and Q(i) shear products.
    rng = random.Random(1903)
    for _ in range(8):
        degrees = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
        yield random_bundle(degrees, rng.randint(0, 3), rng.randint(0, 10**6)).transition
    for _ in range(4):
        a, b = (random_bundle([rng.randint(-2, 2)] * 2, 2, rng.randint(0, 99)) for _ in "ab")
        yield kron(a.transition, b.transition)
        yield kron(unit_det(rng, 2, 2), unit_det(rng, 2, 1))
    for _ in range(8):
        yield unit_det(rng, rng.randint(1, 4), rng.randint(1, 4))


def _pivot_rows(q):
    # The last row of each column that reaches the column's degree.
    rows = []
    for j in range(q.cols):
        col = q.column(j)
        top = max(p.degree for p in col if p)
        rows.append(max(i for i, p in enumerate(col) if p and p.degree == top))
    return rows


def test_column_reduce_reaches_weak_popov_form(monkeypatch, unit_det):
    # z^N*T*V = Q with distinct pivot rows, so a nonsingular
    # leading-coefficient matrix; V unimodular (det a nonzero constant);
    # at most k*cap + k*(k-1) transformations, each charged once.
    charges = []
    charge = lmatrix.check_size
    monkeypatch.setattr(
        lmatrix, "check_size", lambda cells, what: charges.append(what) or charge(cells, what)
    )
    for t in _reduction_inputs(unit_det):
        charges.clear()
        n, degs, v, q = lmatrix.column_reduce(t)
        k = t.rows
        assert lm([[p.shift(n) for p in row] for row in t.entries]) * v == q
        assert degs == [max(p.degree for p in q.column(j) if p) for j in range(k)]
        assert sorted(_pivot_rows(q)) == list(range(k))
        lead = [[q[i, j].coeff(degs[j]) for j in range(k)] for i in range(k)]
        assert kernel_basis(ScalarMatrix(lead)) == []
        c, e = v.det().is_unit()
        assert c and e == 0
        cap = sum(
            max(p.degree for p in col if p) - min(p.order for p in col if p)
            for col in map(t.column, range(k))
        )
        assert len(charges) <= k * cap + k * (k - 1)
        assert set(charges) <= {"a column reduction"}


def test_column_reduce_refuses_singular_input():
    # The second column is z times the first, so it reduces to zero; the
    # 3 x 3 has rank 2 with no column a monomial multiple of another.
    one, z = ONE_POLY, z_power(1)
    zero_column = lm([[one, z], [z_power(-1), one]])
    rank_two = lm(
        [
            [one, z, one + z],
            [z_power(-1), z + one, z_power(-1) + z + one],
            [z, constant(2), z + constant(2)],
        ]
    )
    for t in (zero_column, rank_two):
        with pytest.raises(ValueError, match="singular"):
            lmatrix.column_reduce(t)


def _rank_deficient_products(n):
    # A 4 x 3 times a 3 x 4 Laurent matrix, so of rank at most 3: 1-3
    # terms per entry, integer coefficients in [-5, 5], exponents within 6.
    rng = random.Random(1)
    coeffs = [c for c in range(-5, 6) if c]

    def factor(rows, cols):
        return lm(
            [
                [
                    LaurentPoly(
                        {rng.randint(-6, 6): rng.choice(coeffs) for _ in range(rng.randint(1, 3))}
                    )
                    for _ in range(cols)
                ]
                for _ in range(rows)
            ]
        )

    return [factor(4, 3) * factor(3, 4) for _ in range(n)]


def test_singular_inverse_past_the_work_charge_is_a_value_error(monkeypatch):
    # A singular matrix whose reduction reaches the work charge before a
    # column reduces to zero is refused as singular, not as too large: one
    # determinant decides it before SystemTooLarge would be raised.  At the
    # real limit 27 of these 300 products reach the charge, after up to
    # about 0.45 s CPU each; at a lowered limit every one reaches it at its
    # first transformation.  A nonsingular matrix that reaches it is still
    # too large.
    charged = []
    det = LaurentMatrix.det
    monkeypatch.setattr(LaurentMatrix, "det", lambda t: charged.append(1) or det(t))
    monkeypatch.setattr(lmatrix, "MAX_SYSTEM_CELLS", 100)
    for t in _rank_deficient_products(300):
        with pytest.raises(ValueError, match="singular") as refused:
            t.inverse()
        assert not isinstance(refused.value, SystemTooLarge)
    assert len(charged) == 300
    with pytest.raises(SystemTooLarge):
        random_bundle([3, 0, -3], 3, seed=4).transition.inverse()


def test_reduction_runs_no_kernel_and_a_split_runs_one(monkeypatch):
    # The reduction solves nothing, and neither does the w-adic series (its
    # A_0^-1 is a back substitution); a split checks U(0), and nothing more.
    from p1bundles import grothendieck_split, splitter

    solves = []
    solve = lmatrix.kernel_basis
    spy = lambda m: solves.append(m) or solve(m)  # noqa: E731
    monkeypatch.setattr(lmatrix, "kernel_basis", spy)
    monkeypatch.setattr(splitter, "kernel_basis", spy)
    e = random_bundle([3, 1, 0, -2], 3, seed=77)
    lmatrix.column_reduce(e.transition)
    assert solves == []
    grothendieck_split(e)
    assert len(solves) == 1


def _w_unimodular_inputs(unit_det):
    # Winv = Q*diag(z^-r_j) of each reduction input: w-unimodular, with
    # the weak Popov leading-coefficient matrix as its constant term.
    for t in _reduction_inputs(unit_det):
        _, degs, _, q = lmatrix.column_reduce(t)
        yield lmatrix.shift_columns(q, [-r for r in degs])


def test_leading_matrix_inverse_by_back_substitution(unit_det):
    # A_0 * A_0^-1 = I exactly, and the inverse is the one read off the
    # kernel of [A_0 | -I], whose canonical vector at free column k+m is
    # (A_0^-1 e_m, e_m).  Row j of A_0^-1 comes back as the polynomial
    # sum_m A_0^-1[j][m] * z^m.
    for a in _w_unimodular_inputs(unit_det):
        k = a.rows
        a0 = [[p.coeff(0) for p in row] for row in a.entries]
        rows = lmatrix._triangular_inverse(a0)
        assert all(0 <= e < k for row in rows for e in row.support)
        inv = [[row.coeff(m) for m in range(k)] for row in rows]
        ident = [[gq(int(i == m)) for m in range(k)] for i in range(k)]
        product = [
            [sum((a0[i][j] * inv[j][m] for j in range(k)), gq(0)) for m in range(k)]
            for i in range(k)
        ]
        assert product == ident
        null = kernel_basis(
            ScalarMatrix([row + [-x for x in e] for row, e in zip(a0, ident)])
        )
        assert [[v[i] for v in null] for i in range(k)] == inv


def test_w_adic_inverse_refuses_a_constant_term_out_of_weak_popov_form():
    # A zero column of A_0, or two columns with the same last nonzero row,
    # raise ValueError, singular or not.
    one, zero, w = ONE_POLY, ZERO_POLY, z_power(-1)
    zero_column = lm([[one, zero], [zero, w]])
    shared_singular = lm([[one, one + w], [zero, w]])
    shared_nonsingular = lm([[one, zero], [one, one]])
    for a in (zero_column, shared_singular, shared_nonsingular):
        with pytest.raises(ValueError, match="singular constant matrix"):
            lmatrix.w_adic_inverse(a)
        with pytest.raises(ValueError, match="singular constant matrix"):
            lmatrix._triangular_inverse([[p.coeff(0) for p in row] for row in a.entries])


def _series_calls(a, inv, cap):
    # The _dot calls of the series under a cap, read off its exact inverse:
    # one per row of A_0^-1, of each M_j = -A_0^-1 * A_j for the nonzero A_j
    # (j >= 1) and of each term B_n (1 <= n <= cap); s zero terms in a row
    # end the series.
    js = {-e for row in a.entries for p in row for e, _ in p.items() if e}
    support = {-e for row in inv.entries for p in row for e, _ in p.items()}
    s = max(js, default=0)
    zeros = n = 0
    while zeros < s and n < cap:
        n += 1
        zeros = 0 if n in support else zeros + 1
    return a.rows * (1 + len(js) + n)


def test_series_stops_at_the_column_degree_cap(monkeypatch, unit_det):
    # With s_j the w-degree of column j, the inverse has w-degree at most
    # sum s_j - min s_j, and the series stops there: its _dot calls are
    # exactly those of that cap, never more than under the adjugate bound
    # (k-1)*max s_j, and fewer on some input.
    calls = []
    dot = lmatrix._dot
    monkeypatch.setattr(lmatrix, "_dot", lambda pairs: calls.append(1) or dot(pairs))
    saved = 0
    for a in _w_unimodular_inputs(unit_det):
        k = a.rows
        calls.clear()
        inv = lmatrix.w_adic_inverse(a)
        made = len(calls)
        assert a * inv == LaurentMatrix.identity(k)
        s = [max(-p.order for p in col if p) for col in zip(*a.entries)]
        cap = sum(s) - min(s)
        assert max(-p.order for row in inv.entries for p in row if p) <= cap
        assert made == _series_calls(a, inv, cap)
        old = _series_calls(a, inv, (k - 1) * max(s))
        assert made <= old
        saved += old - made
    assert saved > 0


def test_full_column_rank_takes_one_elimination(monkeypatch):
    # A pivot in every column under the first embedding proves the kernel
    # trivial: no second embedding, reconstruction or verification.
    calls = []
    rref = lmatrix._rref_mod_p
    monkeypatch.setattr(
        lmatrix, "_rref_mod_p", lambda rows, p: calls.append(p) or rref(rows, p)
    )
    rng = random.Random(12)
    tall = [[gq(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(3)] for _ in range(6)]
    tall[0:3] = [[gq(1), gq(2), gq(0, 1)], [gq(0), gq(3), gq(1)], [gq(0), gq(0), gq(5, 2)]]
    assert kernel_basis(ScalarMatrix(tall)) == []
    assert len(calls) == 1


def test_kept_factorization_hides_no_error(monkeypatch):
    # A matrix keeps its factorization only when computing it, and proving
    # it by W*T*U = D, succeeds, so each error comes back on every call.
    reductions = []
    reduce = lmatrix.column_reduce
    monkeypatch.setattr(
        lmatrix, "column_reduce", lambda t: reductions.append(1) or reduce(t)
    )
    non_unit = lm([[ONE_POLY + z_power(1), ZERO_POLY], [ZERO_POLY, ONE_POLY]])
    singular = lm([[ONE_POLY, z_power(1)], [z_power(-1), ONE_POLY]])
    huge = lm([[z_power(1000000), ONE_POLY], [ZERO_POLY, z_power(-1000000)]])
    for t, error, reduced in (
        (non_unit, ValueError, 2),  # the proof fails, nothing is kept
        (singular, ValueError, 2),  # the reduction raises, nothing is kept
        (huge, SystemTooLarge, 2),  # the series is refused, nothing is kept
    ):
        reductions.clear()
        for _ in range(2):
            with pytest.raises(error):
                t.inverse()
            assert t._wiener_hopf is None
        assert len(reductions) == reduced


def test_failed_proof_on_a_unit_determinant_is_an_internal_error(monkeypatch):
    # W*T*U = D is proven where the factorization is made: a wrong W on a
    # transition with a unit determinant raises InternalCheckError, from
    # the splitter and from inverse(), and nothing is kept.
    from p1bundles import grothendieck_split

    series = lmatrix.w_adic_inverse
    monkeypatch.setattr(lmatrix, "w_adic_inverse", lambda a: series(a).scale(2))
    e = random_bundle([2, 0, -1], 2, seed=31)
    for call in (lambda: grothendieck_split(e), e.transition.inverse, e.dual):
        with pytest.raises(InternalCheckError):
            call()
        assert e.transition._wiener_hopf is None


# -- the fused products against a schoolbook (Fraction, Fraction) model -------

_ints = st.one_of(st.integers(-3, 3), st.integers(-(10**300), 10**300))
_dens = st.one_of(st.integers(1, 6), st.integers(1, 10**300))
_polys = st.dictionaries(
    st.integers(-2, 2),
    st.builds(lambda a, b, d: GaussianRational(Fraction(a, d), b), _ints, _ints, _dens),
    max_size=3,
).map(LaurentPoly)


def _grids(rows, cols):
    return st.lists(
        st.lists(_polys, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@st.composite
def _matrix_pairs(draw):
    r, k, c = (draw(st.integers(1, 3)) for _ in range(3))
    return lm(draw(_grids(r, k))), lm(draw(_grids(k, c)))


def _model_product(polys):
    # sum of a*b over (a, b) pairs, term by term on (re, im) Fractions.
    out = {}
    for a, b in polys:
        for e1, x in a.items():
            for e2, y in b.items():
                r, i = out.get(e1 + e2, (0, 0))
                out[e1 + e2] = (
                    r + x.re * y.re - x.im * y.im,
                    i + x.re * y.im + x.im * y.re,
                )
    return {e: c for e, c in out.items() if c != (0, 0)}


def _check_entry(p, expected):
    assert {e: (c.re, c.im) for e, c in p.items()} == expected
    for c in p._coeffs.values():
        assert c and c.den > 0 and math.gcd(c.num_re, c.num_im, c.den) == 1


@settings(max_examples=100, deadline=None)
@given(_matrix_pairs())
def test_matrix_product_matches_schoolbook(ab):
    a, b = ab
    prod = a * b
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    for i in range(a.rows):
        for j in range(b.cols):
            _check_entry(prod[i, j], _model_product(zip(a.row(i), b.column(j))))


@settings(max_examples=60, deadline=None)
@given(_matrix_pairs(), _matrix_pairs())
def test_kron_is_entrywise_products(ab, cd):
    a, b = ab[0], cd[1]
    k = kron(a, b)
    for i1 in range(a.rows):
        for i2 in range(b.rows):
            for j1 in range(a.cols):
                for j2 in range(b.cols):
                    _check_entry(
                        k[i1 * b.rows + i2, j1 * b.cols + j2],
                        _model_product([(a[i1, j1], b[i2, j2])]),
                    )


def test_product_entries_that_cancel_to_zero():
    p = z_power(1) + constant(gq(1, 2))
    q = monomial(gq(Fraction(1, 3)), -1) - constant(7)
    row, col = lm([[p, p, q]]), lm([[q], [-q], [ONE_POLY]])
    (entry,) = (row * col).row(0)
    assert entry == q and len(entry) == 2
    assert (lm([[p, p]]) * lm([[q], [-q]]))[0, 0].is_zero()
    # (z + 1) * (z - 1) + 1 * 1: the z terms cancel, the constants too
    row = lm([[z_power(1) + ONE_POLY, ONE_POLY]])
    zz = row * lm([[z_power(1) - ONE_POLY], [ONE_POLY]])
    assert zz[0, 0] == z_power(2)


def test_equal_matrices_built_apart_hash_equal():
    # Equal matrices built separately, by a product or by the splitter,
    # compare and hash equal, also once one keeps its factorization.
    a = lm([[z_power(1), constant(2)], [ZERO_POLY, z_power(-1)]])
    first = hash(a)
    b = lm([[monomial(gq(1), 1), constant(gq(2, 0))], [ZERO_POLY, z_power(-1)]])
    c = I2 * b
    a.inverse()  # keeps the factorization on a
    for m in (b, c, a):
        assert m == a and hash(m) == first
    bundles = {VectorBundle(a): "a"}
    assert bundles[VectorBundle(c)] == "a"
    assert hash(VectorBundle(b)) == hash(VectorBundle(a)) == first


def test_sums_carry_the_lcm_of_their_denominators(monkeypatch):
    # dual of a Q(i) bundle whose series and products add terms of many
    # distinct denominators.  Each sum that _dot normalises, in a product
    # or in the w-adic series, has a denominator dividing the lcm of its
    # terms' (a sum over the product of the distinct denominators grew to
    # thousands of digits).
    e = parse_bundle(
        "rank: 3\n"
        "(0,1)*z^40, (-2/1,-1)*z^3, z^-3 + -5/4*z^-2 + z^0 ;\n"
        "0, (0,1)*z^-2, z^1 + z^-3 + 1 ;\n"
        "0, 0, (0,1)*z^-40\n"
    )
    dens, seen = [], {"dot": 0, "series": 0}
    canonical, dot, series = laurent._canonical, laurent._dot, lmatrix.w_adic_inverse

    def spy_canonical(re, im, den):
        dens.append(den)
        return canonical(re, im, den)

    def spy_dot(pairs):
        pairs = list(pairs)
        terms = [(a._coeffs.values(), b._coeffs.values()) for a, b in pairs]
        bound = math.lcm(*(x.den * y.den for a, b in terms for x in a for y in b))
        dens.clear()
        out = dot(pairs)
        assert all(bound % d == 0 for d in dens)
        seen["dot"] += len(dens)
        return out

    def spy_series(a):
        before = seen["dot"]
        out = series(a)
        seen["series"] += seen["dot"] - before
        return out

    monkeypatch.setattr(laurent, "_canonical", spy_canonical)
    monkeypatch.setattr(laurent, "_dot", spy_dot)
    monkeypatch.setattr(lmatrix, "_dot", spy_dot)
    monkeypatch.setattr(lmatrix, "w_adic_inverse", spy_series)
    dual = e.dual()
    assert e.transition * dual.transition.transpose() == LaurentMatrix.identity(3)
    assert seen["dot"] > seen["series"] > 0
