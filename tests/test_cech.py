import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import cech_counts
from p1bundles import (
    GaussianRational,
    LaurentMatrix,
    LaurentPoly,
    P1BundlesError,
    Section,
    SplittingType,
    SystemTooLarge,
    VectorBundle,
    WindowUnstable,
    constant,
    diagonal_bundle,
    euler_char,
    grothendieck_split,
    h0_dim,
    h0_profile,
    h0_sections,
    h1_dim_oracle,
    is_section,
    kron,
    line_bundle,
    monomial,
    parse_bundle,
    random_bundle,
    z_power,
)
from p1bundles.laurent import ONE_POLY, ZERO_POLY
from p1bundles.lmatrix import SparseSystem, kernel_basis
import p1bundles.cech as cech
import p1bundles.lmatrix as lmatrix
import p1bundles.splitter as splitter


def euler_extension():
    return VectorBundle(
        LaurentMatrix([[z_power(1), ONE_POLY], [ZERO_POLY, z_power(-1)]])
    )


def test_h0_line_bundles():
    for m in range(0, 11):
        assert h0_dim(line_bundle(m)) == m + 1
    for m in range(-10, 0):
        # below degree 0 only the zero section remains
        assert h0_dim(line_bundle(m)) == 0


def test_h0_constants_only_on_trivial():
    assert h0_dim(line_bundle(0)) == 1


def test_h0_direct_sum_additivity():
    assert h0_dim(diagonal_bundle([2, -1])) == 3


def test_h0_sections_of_o3_window5():
    secs = h0_sections(line_bundle(3))
    assert len(secs) == 4
    for s in secs:
        assert is_section(line_bundle(3), s)
        assert s.components[0].degree <= 3
    # Not sections: two components on a line bundle, a component off C[z],
    # and z^4, whose T*s = z^-3 * z^4 is not holomorphic at infinity.
    for s in ((ONE_POLY, ONE_POLY), (z_power(-1),), (z_power(4),)):
        assert not is_section(line_bundle(3), Section(s))


def test_h0_sections_negative_line_bundle_empty():
    assert h0_sections(line_bundle(-1)) == []


def test_h0_sections_of_a_far_diagonal_is_refused():
    # h0 of O(10^20) + O(-10^20) is one 1 x 1 solve, but its basis would
    # list 10^20 + 1 free monomials: refused before the solve.
    far = 10**20
    e = VectorBundle(LaurentMatrix([[z_power(-far), ZERO_POLY], [ZERO_POLY, z_power(far)]]))
    assert h0_dim(e) == far + 1
    with pytest.raises(SystemTooLarge):
        h0_sections(e)


def test_h0_sections_euler_extension():
    e = euler_extension()
    secs = h0_sections(e)
    assert len(secs) == 2
    for s in secs:
        assert is_section(e, s)
    # the stated spanning vectors really are sections
    stated = [
        Section((constant(1), -z_power(1))),
        Section((ZERO_POLY, ONE_POLY)),
    ]
    for s in stated:
        assert is_section(e, s)


def test_h1_line_bundles():
    assert h1_dim_oracle(line_bundle(-2)) == 1
    for d in range(-1, 6):
        assert h1_dim_oracle(line_bundle(d)) == 0
    for d in range(-10, 11):
        assert h1_dim_oracle(line_bundle(d)) == max(0, -d - 1)


def test_h1_additivity_on_scrambles():
    rng = random.Random(52)
    for _ in range(8):
        degrees = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
        e = random_bundle(degrees, rng.randint(0, 3), rng.randint(0, 10**6))
        assert h1_dim_oracle(e) == sum(max(0, -d - 1) for d in degrees)
        assert h0_dim(e) == sum(max(0, d + 1) for d in degrees)


def test_euler_char(forced):
    # euler_char is the Riemann-Roch formula; h0 and h1, each solved on its
    # own side, must give it.
    assert euler_char(line_bundle(-1)) == 0
    for d in range(-3, 4):
        assert euler_char(line_bundle(d)) == d + 1
    e = random_bundle([2, -1], 3, seed=77)
    assert euler_char(e) == e.degree + e.rank == 3
    for e in (e, random_bundle([3, 0, -3], 2, seed=4), random_bundle([2, 0, -1], 2, seed=21)):
        h0, h1 = forced(e)
        assert h0 - h1 == euler_char(e)


def test_riemann_roch_on_scrambles(forced):
    # h0 solved on E and h1 solved on the Serre partner: two systems, so
    # Riemann-Roch checks one against the other; each chosen count agrees.
    rng = random.Random(404)
    for _ in range(10):
        degrees = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        e = random_bundle(degrees, rng.randint(0, 2), rng.randint(0, 10**6))
        h0, h1 = forced(e)
        assert h0 - h1 == e.degree + e.rank
        assert (h0_dim(e), h1_dim_oracle(e)) == (h0, h1)


def test_profile_examples():
    prof = h0_profile(line_bundle(1), -3, 1)
    assert [h for _, h in prof] == [0, 0, 1, 2, 3]
    db = diagonal_bundle([2, -1])
    prof = dict(h0_profile(db, -3, -2))
    assert prof[-3] == 0 and prof[-2] == 1


def test_profile_gauge_invariance():
    base = diagonal_bundle([2, 0, -1])
    scr = random_bundle([2, 0, -1], 3, seed=9)
    assert h0_profile(base, -4, 3) == h0_profile(scr, -4, 3)


def test_profile_monotone():
    e = random_bundle([3, -2], 2, seed=13)
    values = [h for _, h in h0_profile(e, -5, 5)]
    assert values == sorted(values)


def test_profile_rejects_empty_range():
    with pytest.raises(ValueError):
        h0_profile(line_bundle(0), 2, 1)


def test_explicit_window_and_instability():
    # The guard on the proven windows, both halves.  O(3) at window 1: its
    # slot of degree 2 is free by structure, past the window + 1 = 2 that
    # is solved.  z^-2, 0 ; z^12, z^10 (type (2, -10)) at window 1: a
    # kernel vector touches the slot of degree 2.  Each raises, never a
    # wrong count.
    o3 = line_bundle(3)
    with pytest.raises(WindowUnstable):
        cech._tail_solve(cech._sides(o3)[0], _plan(o3, 0, 1))
    e = parse_bundle("z^-2, 0 ; z^12, z^10")
    plan = _plan(e, 0, 1)
    assert all(lo <= top for lo, top in plan[1])
    with pytest.raises(WindowUnstable):
        cech._tail_solve(cech._sides(e)[0], plan)


def _plan(e, cutoff, window=None):
    # The plan of the one tail solve on E at this cutoff: at the library's
    # column windows, or at one window shared by every column.
    side, _ = cech._sides(e)
    if window is not None:
        side = side._replace(his=[window - cutoff] * e.rank)
    return cech._tail_plan(side, cutoff)


def _top(e):
    # The largest column window bound hi_j of T: cutoffs below -_top(e)
    # have no section.
    return max(cech._sides(e)[0].his)


# Counts by the Cech solves alone (conftest.cech_counts), for the oracles.
def _cech_h0(e):
    return cech_counts(e, 0, 0)[0]


def _cech_h1(e):
    return _cech_h0(e) - euler_char(e)


def _cech_profile(e, lo, hi):
    return list(zip(range(lo, hi + 1), cech_counts(e, lo, hi)))


def test_explicit_window_past_the_bound_counts_at_the_bound():
    # Sections with cutoff c have degree <= c + hi, so each count runs at
    # c + hi, and the twists below -hi are answered with no system at all.
    o3 = line_bundle(3)
    assert h0_dim(o3) == 4
    assert h0_profile(o3, -6, 1) == [(m, max(0, 4 + m)) for m in range(-6, 2)]
    assert h1_dim_oracle(line_bundle(-5)) == 4


def test_stability_counters_move():
    # every count is solved and stability-checked on the call that returns
    # it.  A line bundle's counts are read off the band with no solve, so a
    # scrambled bundle with sections and H1 runs the checks.
    e = random_bundle([3, 0, -3], 2, seed=4)
    for count in (h0_dim, h1_dim_oracle):
        before = cech.STABILITY_CHECKS
        count(e)
        assert cech.STABILITY_CHECKS > before


def test_sections_satisfy_constraints_exactly():
    rng = random.Random(6)
    for _ in range(6):
        degrees = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        e = random_bundle(degrees, rng.randint(0, 2), rng.randint(0, 10**6))
        sections = h0_sections(e)
        assert len(sections) == h0_dim(e) == sum(max(0, d + 1) for d in degrees)
        for s in sections:
            assert is_section(e, s)


def test_rank_one_goes_through_generic_path():
    # no line-bundle special casing: the same engine handles k = 1
    assert h0_dim(VectorBundle(LaurentMatrix([[constant(5)]]))) == 1
    assert h1_dim_oracle(VectorBundle(LaurentMatrix([[constant(5)]]))) == 0


def _tall_coefficient_bundle():
    # O(3) + O + O(-3) under shears whose coefficients have 350 digits.
    c = [10**350 + 7 + 13 * n for n in range(4)]

    def shear(i, j, coeffs):
        return LaurentMatrix.identity(3).with_entry(i, j, LaurentPoly(coeffs))

    t = LaurentMatrix.diagonal([z_power(-3), ONE_POLY, z_power(3)])
    t = shear(0, 1, {0: c[0], -1: c[1]}) * shear(2, 0, {-1: c[2]}) * t
    return VectorBundle(t * shear(1, 0, {0: c[3], 1: c[0]}) * shear(0, 2, {1: c[1]}))


def test_h0_of_tall_coefficient_bundle(monkeypatch):
    # The echelon entries of the tall bundle's Cech system need more than
    # 256 primes, so this pins the prime budget to the input's height.
    e = _tall_coefficient_bundle()
    consumed = []  # primes drawn, one count per kernel solve
    primes = lmatrix._primes_with_i

    def spy():
        consumed.append(0)
        for pair in primes():
            consumed[-1] += 1
            yield pair

    monkeypatch.setattr(lmatrix, "_primes_with_i", spy)
    assert h0_dim(e) == 4 + 1 + 0
    assert max(consumed) > 256


def test_tall_coefficient_reconstruction_work(monkeypatch):
    # Euclid runs only at the scheduled attempts, at most twice per echelon
    # entry at each: the tall bundle's solve makes 60 _rat_recon calls.
    calls = []
    recon = lmatrix._rat_recon

    def spy(c, m):
        calls.append(c)
        return recon(c, m)

    monkeypatch.setattr(lmatrix, "_rat_recon", spy)
    assert h0_dim(_tall_coefficient_bundle()) == 4 + 1 + 0
    assert len(calls) < 200


def _dense_constraint_rows(e, cutoff, ranges):
    # Independent per-cell assembly: every cell is T_ij.coeff(t - s), a row
    # is kept when any cell is nonzero, and a kept row is scaled by the lcm
    # of its denominators.
    t = e.transition
    unknowns = [(j, s) for j, (lo, hi) in enumerate(ranges) for s in range(lo, hi + 1)]
    top = max(hi for _, hi in ranges) + e.max_exponent
    rows = []
    for i in range(e.rank):
        for exp in range(cutoff + 1, top + 1):
            row = [t[i, j].coeff(exp - s) for j, s in unknowns]
            if any(row):
                denom = math.lcm(*(x.denominator for c in row for x in (c.re, c.im)))
                rows.append(
                    [
                        (col, int(c.re * denom), int(c.im * denom))
                        for col, c in enumerate(row)
                        if c
                    ]
                )
    return rows, unknowns


def _assembly_inputs(unit_det):
    rng = random.Random(31337)
    for _ in range(4):
        degrees = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        yield random_bundle(degrees, rng.randint(0, 2), rng.randint(0, 10**6))
    a = random_bundle([1, -1], 1, rng.randint(0, 10**6))
    yield a.tensor(random_bundle([1, 0], 1, rng.randint(0, 10**6)))
    for k in (1, 2, 3):
        yield VectorBundle(unit_det(rng, k, 2))
    yield VectorBundle(kron(unit_det(rng, 2, 1), unit_det(rng, 2, 1)))


def test_sparse_assembly_matches_dense_oracle(unit_det):
    for e in _assembly_inputs(unit_det):
        k, n = e.rank, e.max_exponent
        window = k * (n + 1)
        cases = [(0, [(0, window)] * k)]
        for cutoff in (-2, 0, 3):
            dw = max(0, cutoff) + window + 1
            cases.append((cutoff, [(max(0, cutoff + n + 1 - m), dw) for m in range(k)]))
        for cutoff, ranges in cases:
            system, unknowns = cech._constraint_system(cech._sides(e)[0], cutoff, ranges)
            rows, expected_unknowns = _dense_constraint_rows(e, cutoff, ranges)
            assert unknowns == expected_unknowns
            assert system.int_rows == rows
            assert (system.rows, system.cols) == (len(rows), len(unknowns))


def test_system_shape_counts_built_rows(unit_det):
    # The shape counted before assembly is the shape built, so the cell
    # limit refuses no system that would fit.  On T and on its Serre
    # partner: at every cutoff of the band at the library's windows, and at
    # three cutoffs at shared windows.  Two far files at small windows have
    # a row whose spans lie far apart, at the band's ends and around 0.
    cases = [(e, None) for e in _assembly_inputs(unit_det)]
    cases += [(parse_bundle(text), (0, 2)) for text in _FAR_FILES[1::2]]
    for e, windows in cases:
        sides = cech._sides(e)
        lo, hi = -max(sides[0].his) - 1, max(sides[1].his) + 1
        runs = [((lo, lo + 1, -1, 0, 1, hi - 1, hi), windows)]
        if windows is None:
            runs = [(range(lo, hi + 1), [None])]
            runs.append(((-2, 0, 3), (0, 2, e.rank * (e.max_exponent + 1))))
        for cutoffs, shared in runs:
            for c, window in itertools.product(cutoffs, shared):
                for side, cutoff in zip(sides, (c, -c)):
                    if window is not None:
                        side = side._replace(his=[window - cutoff] * e.rank)
                    plan = cech._tail_plan(side, cutoff)
                    system, _ = cech._constraint_system(side, *plan)
                    assert plan[2] == (system.rows, system.cols), (e, cutoff, window)


def test_riemann_roch_profile_and_dual_on_shear_products(unit_det, forced):
    # Arbitrary Laurent shears with Q(i) denominators, and a tensor product
    # of them: inputs the gauge scrambler never produces.  h0 and h1 are
    # each solved on their own side, so Riemann-Roch compares two systems.
    rng = random.Random(8088)
    inputs = [
        VectorBundle(unit_det(rng, k, rng.randint(1, 3))) for k in (1, 2, 2, 3, 3)
    ]
    inputs.append(VectorBundle(kron(unit_det(rng, 2, 1), unit_det(rng, 2, 1))))
    for e in inputs:
        h0, h1 = forced(e)
        assert h0 - h1 == e.degree + e.rank
        assert (h0_dim(e), h1_dim_oracle(e)) == (h0, h1)
        d = list(grothendieck_split(e)[0])
        lo, hi = -d[0] - 1, -d[-1]
        assert h0_profile(e, lo, hi) == [
            (m, sum(max(0, x + m + 1) for x in d)) for m in range(lo, hi + 1)
        ]
        dual = e.dual()
        assert dual.det_unit == dual.transition.det().is_unit()


def _oracle_window(e, cutoff, window):
    # The full system, every slot an unknown, solved at window and window+1.
    dims = []
    for w in (window, window + 1):
        rows, unknowns = _dense_constraint_rows(e, cutoff, [(0, w)] * e.rank)
        dims.append(len(kernel_basis(SparseSystem(rows, len(unknowns)))))
    return dims[0] if dims[0] == dims[1] else WindowUnstable


def _blanket_oracle(e, cutoff):
    # The full-system count at a window proven from N (the largest
    # |exponent| of T) alone: a section with cutoff c has degree at most
    # c + hi <= c + (2k-1)*N, as a cofactor's exponents are at most
    # (k-1)*N and -e <= k*N.  No cofactor bound of the library is read.
    k, n = e.rank, e.max_exponent
    return _oracle_window(e, cutoff, (2 * k - 1) * n + max(0, cutoff))


# Small files with sections past degree W + 1 for a small window W, which a
# check of W against W + 1 alone does not see: the sections of the first
# are (a, c - a*z^5), and at W = 2 both counts see only (0, c).
_TABLE = ("z^5, 1 ; 0, z^-5", "z^-3, 0 ; z^2, z^7", "z^-2, 0 ; z^12, z^10")


def test_explicit_windows_match_full_system_oracle(unit_det):
    # The default h0 and profile counts against the full system at the
    # blanket window, on small bundles and inputs the scrambler never makes.
    rng = random.Random(5150)
    inputs = [line_bundle(3), euler_extension(), diagonal_bundle([2, -1])]
    inputs += [parse_bundle(text) for text in _TABLE]
    for k in (1, 2, 3):
        degrees = [rng.randint(-3, 3) for _ in range(k)]
        inputs.append(random_bundle(degrees, rng.randint(0, 2), rng.randint(0, 10**6)))
    inputs += [VectorBundle(unit_det(rng, k, 2)) for k in (2, 3)]
    # The h0 of this scramble is counted on the Serre partner, whose system
    # is the smaller, so the oracle checks the choice of side too.
    chosen = random_bundle([2, 0, -1], 2, seed=21)
    e_side, p_side = cech._sides(chosen)
    on_p = cech._tail_plan(p_side, 0)
    assert cech._cells(on_p) < cech._cells(cech._tail_plan(e_side, 0))
    inputs.append(chosen)
    for e in inputs:
        assert h0_dim(e) == _blanket_oracle(e, 0)
        assert h0_profile(e, -2, 2) == [(m, _blanket_oracle(e, m)) for m in range(-2, 3)]


def test_explicit_window_solves_once_and_builds_no_bundle(monkeypatch):
    # h0 of this scramble is one solve on the Serre partner, and its profile
    # one chain on each side of the crossover (a top system and a rank
    # system each).  The partner is a transition, never a bundle.
    e = random_bundle([2, 0, -1], 2, seed=21)
    solves, built = [], []
    solve, fill = cech.kernel_basis, VectorBundle._fill
    monkeypatch.setattr(cech, "kernel_basis", lambda m: solves.append(m) or solve(m))
    monkeypatch.setattr(
        VectorBundle, "_fill", lambda self, *args: built.append(1) or fill(self, *args)
    )
    assert h0_dim(e) == 4
    assert len(solves) == 1
    solves.clear()
    assert h0_profile(e, -3, 2) == [
        (m, sum(max(0, d + m + 1) for d in (2, 0, -1))) for m in range(-3, 3)
    ]
    assert len(solves) == 4
    assert built == []


# -- default windows against proven blanket windows ----------------------------

# Unit-determinant shear products with Q(i) denominators, and tensor
# products of two of them: inputs the gauge scrambler never produces.
_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_scalars = st.builds(GaussianRational, _fractions, _fractions).filter(bool)
_entries = st.dictionaries(st.integers(-3, 3), _scalars, min_size=1, max_size=3).map(
    LaurentPoly
)


@st.composite
def _shear_products(draw, max_rank=3):
    # A monomial diagonal times elementary shears with arbitrary Laurent
    # entries: det is the diagonal's c*z^e.
    k = draw(st.integers(1, max_rank))
    t = LaurentMatrix.diagonal(
        [monomial(draw(_scalars), draw(st.integers(-3, 3))) for _ in range(k)]
    )
    for _ in range(draw(st.integers(0, 3)) if k > 1 else 0):
        i, j = draw(st.permutations(range(k)))[:2]
        shear = LaurentMatrix.identity(k).with_entry(i, j, draw(_entries))
        t = shear * t if draw(st.booleans()) else t * shear
    return VectorBundle(t)


_bundles = st.one_of(
    _shear_products(),
    st.tuples(_shear_products(2), _shear_products(2)).map(lambda ab: ab[0].tensor(ab[1])),
)


def _far_inverse(n):
    # z^-n, z^3 ; 0, z^-n, of type (n, n): T^-1 = [[z^n, -z^(2n+3)], [0, z^n]]
    # reaches degree 2n + 3, past k*(N+1) = 2n + 2 for n >= 3.
    return VectorBundle(
        LaurentMatrix([[z_power(-n), z_power(3)], [ZERO_POLY, z_power(-n)]])
    )


@settings(deadline=None, max_examples=40, derandomize=True)
@given(_bundles)
@example(_far_inverse(4))
@example(parse_bundle(_TABLE[0]))
@example(parse_bundle(_TABLE[1]))
@example(parse_bundle(_TABLE[2]))
def test_default_windows_match_blanket_windows(e):
    # Oracles that share no window with the library: h0 by the full system
    # at the blanket window (2k-1)*N, and h1 by the truncated cokernel,
    # which never builds the Serre partner.
    assert _cech_h0(e) == _blanket_oracle(e, 0)
    assert _cech_h1(e) == _cokernel_h1(e)
    d = list(grothendieck_split(e)[0])
    lo, hi = -d[0] - 1, -d[-1]
    assert _cech_profile(e, lo, hi) == [
        (m, sum(max(0, x + m + 1) for x in d)) for m in range(lo, hi + 1)
    ]
    # Riemann-Roch at both ends: no sections at lo, no H1 at hi.
    for m, h0 in ((lo, 0), (hi, _cech_h0(e.twist(hi)))):
        twisted = e.twist(m)
        assert h0 - _cech_h1(twisted) == twisted.degree + twisted.rank


@pytest.mark.parametrize("n", [4, 5])
def test_sections_past_the_old_blanket_window_are_counted(n):
    # The sections of z^-n, z^3 ; 0, z^-n reach degree 2n + 3; a default
    # window capped at k*(N+1) = 2n + 2 was refused as unstable.
    e = _far_inverse(n)
    assert grothendieck_split(e)[0] == (n, n)
    assert (h0_dim(e), h1_dim_oracle(e), euler_char(e)) == (2 * n + 2, 0, 2 * n + 2)
    assert h0_profile(e, -6, 0) == [(m, 2 * max(0, n + m + 1)) for m in range(-6, 1)]


def test_h1_system_is_bounded_before_its_solve(monkeypatch):
    # h1 is one system, the smaller of the Serre partner's and E's, at its
    # column windows; one cell over the limit is refused before anything
    # is solved.
    e = random_bundle([2, 0, -3], 2, seed=4242)
    cells = min(cech._cells(cech._tail_plan(side, 0)) for side in cech._sides(e))
    assert cells > 1
    monkeypatch.setattr(lmatrix, "MAX_SYSTEM_CELLS", cells - 1)
    monkeypatch.setattr(cech, "MAX_SYSTEM_CELLS", cells - 1)
    _, solves = _count_solves(monkeypatch)
    with pytest.raises(SystemTooLarge):
        h1_dim_oracle(e)
    assert solves == []


@pytest.mark.parametrize(
    "degrees, gauge, seed", [([3, 1, 0, -2, -4], 3, 0), ([4, 1, -1, -3, -5, 0], 2, 2)]
)
def test_profile_over_type_range_is_answered(degrees, gauge, seed):
    # Both were refused (over MAX_SYSTEM_CELLS summed) at the blanket window.
    e = random_bundle(degrees, gauge, seed)
    d = sorted(degrees, reverse=True)
    lo, hi = -d[0] - 1, -d[-1]
    assert _cech_profile(e, lo, hi) == [
        (m, sum(max(0, x + m + 1) for x in d)) for m in range(lo, hi + 1)
    ]


def test_no_section_twists_run_no_solve(monkeypatch):
    # Below -hi, hi the largest cofactor bound on the exponents of a row of
    # T^-1, a section has no unknowns left: nothing is solved.
    e = random_bundle([2, 0, -1], 2, seed=23)
    solves = []
    solve = cech.kernel_basis
    monkeypatch.setattr(cech, "kernel_basis", lambda m: solves.append(m) or solve(m))
    lo = -_top(e) - 1
    assert h0_profile(e, lo - 3, lo) == [(m, 0) for m in range(lo - 3, lo + 1)]
    assert solves == []


def _count_solves(monkeypatch):
    # Record every Cech system built (by its cutoff) and every kernel solve.
    systems, solves = [], []
    build, solve = cech._constraint_system, cech.kernel_basis
    monkeypatch.setattr(
        cech, "_constraint_system", lambda e, c, *a: systems.append(c) or build(e, c, *a)
    )
    monkeypatch.setattr(cech, "kernel_basis", lambda m: solves.append(1) or solve(m))
    return systems, solves


def test_profile_sets_up_each_twist_once(monkeypatch):
    # The count that bounds a profile before its first solve sets up each
    # twist once on each side.  No twist is then built or solved on its
    # own: one top system and one rank system answer the whole chain, here
    # on E, whose systems are the smaller at every twist of this profile.
    e = random_bundle([2, 0, -1], 2, seed=21)
    systems, solves = _count_solves(monkeypatch)
    shapes = []
    shape = cech._system_shape
    monkeypatch.setattr(cech, "_system_shape", lambda *a: shapes.append(1) or shape(*a))
    expected = [(m, sum(max(0, d + m + 1) for d in (2, 0, -1))) for m in range(-6, -1)]
    assert h0_profile(e, -6, -2) == expected
    assert systems == [-2] and len(solves) == 2
    # One shape per side for each twist with a section window: m >= -hi.
    hi = _top(e)
    assert len(shapes) == 2 * (-2 + hi + 1)


def test_chain_guard_picks_the_cheaper_path(monkeypatch):
    # The chain runs only when it builds no more cells than the per-cutoff
    # solves.  Tiny systems with a wide band of free slots stay separate:
    # O(1000) + O(-1000) has one 1-cell system at each of the 1999 twists
    # of its band [-1000, 998].  O(-10^6) has no twist in its band, so its
    # h1 is the Riemann-Roch formula with no solve.  A scrambled rank-3
    # bundle chains its profile on the Serre partner, one twist on E, and
    # its h1 is one solve.  Each count runs the Cech solves alone, as the
    # wide profile's 2,002 planned cells would take the certificate route.
    systems, solves = _count_solves(monkeypatch)
    wide = diagonal_bundle([1000, -1000])
    assert _cech_profile(wide, -1001, 1000) == [
        (m, max(0, m + 1001) + max(0, m - 999)) for m in range(-1001, 1001)
    ]
    assert len(solves) == 1999
    solves.clear()
    assert _cech_h1(VectorBundle(LaurentMatrix([[z_power(1000000)]]))) == 999999
    assert len(solves) == 0
    e = random_bundle([2, 0, -3], 2, seed=4242)
    profile = [(m, sum(max(0, d + m + 1) for d in (2, 0, -3))) for m in range(-3, 4)]
    for call, expected, solved in (
        (lambda: _cech_profile(e, -3, 3), profile, 3),
        (lambda: _cech_h1(e), 2, 1),
    ):
        solves.clear()
        assert call() == expected
        assert len(solves) == solved


def _chain_and_separate(e, cutoffs):
    # Counts on E at the consecutive ascending cutoffs, each at its column
    # windows, by both paths: one chain from the top cutoff, and one solve
    # per cutoff.
    side, plans = cech._sides(e)[0], [_plan(e, c) for c in cutoffs]
    chain = cech._nested_dims(side, plans[0], plans[-1])
    separate = [cech._sections_dim(side, p) for p in plans]
    return chain, separate


def test_chain_matches_separate_solves(unit_det):
    # Inputs the seeded scrambler never produces: a wide diagonal, a direct
    # sum with a far line bundle, a tensor of two shear products, and
    # 350-digit coefficients.  Both paths run over each profile's twists.
    rng = random.Random(6021)
    shears = VectorBundle(unit_det(rng, 2, 2)).tensor(VectorBundle(unit_det(rng, 2, 1)))
    cases = [
        (diagonal_bundle([9, 0, -9]), [9, 0, -9], None),
        (random_bundle([2, -1], 2, seed=7).dsum(line_bundle(-6)), [2, -1, -6], None),
        (shears, list(grothendieck_split(shears)[0]), None),
        (_tall_coefficient_bundle(), [3, 0, -3], (-5, 4)),
    ]
    for e, d, span in cases:
        lo, hi = span or (-d[0] - 1, -d[-1])
        inv_hi = _top(e)
        # Only the cutoffs with a section window have a system to solve.
        live = [c for c in range(lo, hi + 1) if c + inv_hi >= 0]
        expected = [sum(max(0, x + c + 1) for x in d) for c in live]
        assert list(_chain_and_separate(e, live)) == [expected, expected]
        assert h1_dim_oracle(e) == sum(max(0, -x - 1) for x in d)


@pytest.mark.parametrize(
    "query",
    [
        pytest.param(h0_dim, id="h0_dim"),
        pytest.param(h1_dim_oracle, id="h1_dim_oracle"),
        pytest.param(lambda e: h0_profile(e, -4, 3), id="h0_profile"),
    ],
)
def test_repeated_query_solves_and_checks_again(monkeypatch, query):
    # Nothing is kept between calls: a second call on an equal bundle built
    # apart runs as many kernel solves and stability checks as the first,
    # and each call reads the exponent bounds of both sides (E and its
    # Serre partner) once, in one pass over T.
    a = random_bundle([2, 0, -1], 2, seed=77)
    b = VectorBundle(LaurentMatrix(a.transition.entries))
    _, solves = _count_solves(monkeypatch)
    bounds = []
    sides = cech._sides
    monkeypatch.setattr(cech, "_sides", lambda e: bounds.append(1) or sides(e))
    runs = []
    for e in (a, b):
        solves.clear()
        bounds.clear()
        checks = cech.STABILITY_CHECKS
        answer = query(e)
        runs.append((answer, len(solves), cech.STABILITY_CHECKS - checks, len(bounds)))
    assert b == a and runs[1] == runs[0]
    _, solved, checked, read = runs[0]
    assert solved > 0 and checked > 0 and read == 1


def test_band_too_long_for_len_is_refused_or_answered():
    # Windows near 10^20, longer than len() takes.  z^n, 1 ; 0, z^-n (type
    # (0, 0)) has a column window near n on E and on its Serre partner, so
    # both counts are refused as too large, at n = 10^6 and at 10^20.  Each
    # column of O(10^20) + O(-10^20) has its own window, and its one
    # unknown on the chosen side answers h0 = 10^20 + 1 and h1 = 10^20 - 1.
    # The partner of O is O(-2), answered with no system.
    for n in (10**6, 10**20):
        e = VectorBundle(LaurentMatrix([[z_power(n), ONE_POLY], [ZERO_POLY, z_power(-n)]]))
        for count in (h0_dim, h1_dim_oracle):
            with pytest.raises(SystemTooLarge):
                count(e)
    far = 10**20
    e = VectorBundle(LaurentMatrix([[z_power(-far), ZERO_POLY], [ZERO_POLY, z_power(far)]]))
    assert (h0_dim(e), h1_dim_oracle(e)) == (far + 1, far - 1)
    assert h1_dim_oracle(VectorBundle(LaurentMatrix([[constant(5)]]))) == 0


def _cokernel_h1(e):
    # The truncated-cokernel count, written over twisted bundles and Cech h0
    # alone, independent of the Serre partner: overlap tails with exponents
    # in [-D, D] modulo coboundaries number k*D - h0(E(D)) + h0(E), which is
    # h1(E) - h1(E(D)) by Riemann-Roch on E and E(D).  At D = k*(N+1), N
    # the largest |exponent| of T, h1(E(D)) = 0: every splitting degree
    # lies in [-N, N].  The count must not move between D and D + 1.
    k = e.rank
    d = k * (e.max_exponent + 1)
    at_d, past_d = (k * w - _cech_h0(e.twist(w)) + _cech_h0(e) for w in (d, d + 1))
    assert at_d == past_d
    return at_d


def _answer(call):
    try:
        return call()
    except P1BundlesError:
        return None


def _fuzz_bundles(seeds, per_seed):
    # Valid bundles among the grammar fuzz's generated files.
    from test_cli_fuzz import _bundle_text

    for seed in seeds:
        rng = random.Random(seed)
        for _ in range(per_seed):
            bundle = _answer(lambda: parse_bundle(_bundle_text(rng)))
            if bundle is not None:
                yield bundle


def test_serre_partner_agrees_with_cokernel_and_type(unit_det):
    # Three routes to h1: h0 of the Serre partner, the cokernel count on
    # E and E(D), and sum max(0, -d - 1) over the column-reduction type.
    # They must agree wherever they answer, on fuzz files (exponents up to
    # 10^20, 30-digit and Q(i) coefficients) and on inputs the seeded
    # scrambler never produces.
    rng = random.Random(2121)
    inputs = list(_fuzz_bundles(range(1, 11), 20))
    inputs += [VectorBundle(unit_det(rng, k, rng.randint(2, 4))) for k in (2, 3, 3, 4)]
    inputs.append(VectorBundle(unit_det(rng, 2, 2)).tensor(VectorBundle(unit_det(rng, 2, 1))))
    inputs.append(random_bundle([2, -1], 2, seed=7).dsum(line_bundle(-6)))
    compared = 0
    for e in inputs:
        partner = _answer(lambda: _cech_h1(e))
        cokernel = _answer(lambda: _cokernel_h1(e))
        split = _answer(lambda: sum(max(0, -d - 1) for d in grothendieck_split(e)[0]))
        answers = {x for x in (partner, cokernel, split) if x is not None}
        assert len(answers) <= 1, (e, partner, cokernel, split)
        compared += partner is not None and cokernel is not None
    assert compared >= 0.6 * len(inputs)


def test_split_type_and_cech_counts_agree_on_fuzz_files():
    # Two independent routes on the grammar fuzz's valid files (Laurent
    # entries, Q(i) and 30-digit coefficients, exponents up to 10^20): the
    # verified column-reduction type d and the Cech counts.  Wherever both
    # answer, h0(E(m)) = sum max(0, d_j + m + 1) over m in -4..4 and h1 =
    # sum max(0, -d_j - 1).  The files each route answers are counted by
    # class, so a file moving from answered to refused shows here.
    names = {
        (1, 1): "both", (1, 0): "split only", (0, 1): "cech only", (0, 0): "neither"
    }
    classes = dict.fromkeys(names.values(), 0)
    disagree = []
    for e in _fuzz_bundles([5], 1000):
        split = _answer(lambda: grothendieck_split(e)[0])
        counts = _answer(lambda: (_cech_profile(e, -4, 4), _cech_h1(e)))
        classes[names[split is not None, counts is not None]] += 1
        if split is not None and counts is not None:
            h0 = [(m, sum(max(0, d + m + 1) for d in split)) for m in range(-4, 5)]
            if counts != (h0, sum(max(0, -d - 1) for d in split)):
                disagree.append((e, split, counts))
    assert disagree == []
    assert classes == {"both": 497, "split only": 0, "cech only": 42, "neither": 30}


def test_type_arithmetic_holds_on_fuzz_pairs():
    # Type arithmetic on the grammar fuzz's valid files, each file E paired
    # with the next file F: E.dual() has the negated reverse of E's type,
    # E.dsum(F) the union of the types and E.tensor(F) the pairwise sums.
    # An op is compared when both factors split ("both"); the classes are
    # counted, so a file moving from answered to refused shows here.
    files = list(_fuzz_bundles([5], 300))
    types = [_answer(lambda: grothendieck_split(e)[0]) for e in files]
    ops = {
        "dual": (1, lambda e: e.dual(), lambda d: [-x for x in d]),
        "dsum": (2, lambda e, f: e.dsum(f), lambda d, d2: d + d2),
        "tensor": (2, lambda e, f: e.tensor(f), lambda d, d2: [a + b for a in d for b in d2]),
    }
    classes = {op: dict.fromkeys(("both", "derived refused", "factor refused"), 0) for op in ops}
    disagree = []
    for op, (arity, build, predict) in ops.items():
        for i in range(len(files) - arity + 1):
            factors = types[i : i + arity]
            if None in factors:
                classes[op]["factor refused"] += 1
                continue
            derived = _answer(lambda: grothendieck_split(build(*files[i : i + arity]))[0])
            if derived is None:
                classes[op]["derived refused"] += 1
                continue
            classes[op]["both"] += 1
            if derived != SplittingType(predict(*factors)):
                disagree.append((op, i, factors, derived))
    assert len(files) == 170
    assert disagree == []
    assert classes == {
        "dual": {"both": 143, "derived refused": 0, "factor refused": 27},
        "dsum": {"both": 118, "derived refused": 0, "factor refused": 51},
        "tensor": {"both": 117, "derived refused": 1, "factor refused": 51},
    }


def test_h1_runs_no_factorization(monkeypatch):
    # The partner is read off T's exponents: no column reduction, w-adic
    # series or inverse runs for h1, on a transition never factorized.
    def refuse(*args):
        raise AssertionError("h1 ran a factorization")

    for name in ("wiener_hopf", "column_reduce", "w_adic_inverse"):
        monkeypatch.setattr(lmatrix, name, refuse)
    monkeypatch.setattr(LaurentMatrix, "inverse", refuse)
    for degrees, gauge, seed in (([2, 0, -3], 2, 4242), ([-1, -4], 3, 9), ([1], 0, 1)):
        e = random_bundle(degrees, gauge, seed)
        assert h1_dim_oracle(e) == sum(max(0, -d - 1) for d in degrees)


_FAR = "100000000000000000000"
# Far-exponent files: two whose h1 and one whose h0 and h1 have a small
# system on one side once each column has its own window, and one that
# both sides refuse.
_FAR_FILES = (
    f"0, 129689824753715365306003630764*z^{_FAR} ; (-3/1,-1/3)*z^{_FAR}, -1*z^3 + 3/1*z^0",
    f"5/4*z^-20, 2*z^-20 + -1/5*z^-{_FAR} ; 0, (1/2,1/1)*z^1",
    f"z^-{_FAR}, 0 ; 0, z^{_FAR}",
    "z^1000000, 1 ; 0, z^-1000000",
)


def test_both_sides_agree_across_the_band(unit_det, forced):
    # At every twist c in [-hi_E - 1, hi_P + 1] (hi_E, hi_P the largest
    # column window bounds of T and of its Serre partner), h0(E(c)) solved
    # on E and h1(E(c)) solved on the partner satisfy Riemann-Roch.  Just
    # outside the band one side is 0 with no solve, so the other side's
    # solve checks the band rule at both ends; the profile, which picks a
    # side per twist, must match.  Far files are checked at the band's
    # ends and at 0, wherever both sides answer: at 9 of those 20 twists,
    # as one side of each far file but the diagonal one is near 10^20 wide
    # at most of them.
    rng = random.Random(7340)
    inputs = [VectorBundle(unit_det(rng, k, rng.randint(1, 3))) for k in (2, 2, 3, 3)]
    inputs.append(VectorBundle(kron(unit_det(rng, 2, 1), unit_det(rng, 2, 1))))
    for e in inputs:
        hi_e, hi_p = (side.his for side in cech._sides(e))
        twists = range(-max(hi_e) - 1, max(hi_p) + 2)
        counts = [forced(e, c) for c in twists]
        for c, (h0, h1) in zip(twists, counts):
            assert h0 - h1 == e.degree + e.rank * (c + 1), (e, c)
        assert counts[0][0] == 0 and counts[-1][1] == 0
        assert h0_profile(e, twists[0], twists[-1]) == [
            (c, h0) for c, (h0, _) in zip(twists, counts)
        ]
    compared = 0
    for text in _FAR_FILES:
        e = parse_bundle(text)
        hi_e, hi_p = (side.his for side in cech._sides(e))
        for c in (-max(hi_e) - 1, -max(hi_e), 0, max(hi_p), max(hi_p) + 1):
            both = _answer(lambda: forced(e, c))
            if both is not None:
                h0, h1 = both
                assert h0 - h1 == e.degree + e.rank * (c + 1), (text, c)
                compared += 1
    assert compared >= 9


# -- which route answers -----------------------------------------------------


def _split_calls(monkeypatch):
    # Records each grothendieck_split call: None when it returned, else the
    # class of what it raised.
    calls = []
    split = splitter.grothendieck_split

    def spy(e):
        try:
            out = split(e)
        except P1BundlesError as exc:
            calls.append(type(exc))
            raise
        calls.append(None)
        return out

    monkeypatch.setattr(splitter, "grothendieck_split", spy)
    return calls


def test_counts_over_the_threshold_read_the_splitting_type(monkeypatch, unit_det):
    # A count whose Cech plan charges more than _CERTIFICATE_CELLS makes one
    # split and answers as the Cech solves do; any other count makes none.
    # On tensors of the bench ladder's sizes, Q(i) shear products and the
    # wide diagonal profile of O(1000) + O(-1000).
    rng = random.Random(3737)
    bundles = [
        random_bundle([1, 0], g, 2 * g).tensor(random_bundle(b, g, 2 * g + 1))
        for b, g in (([1, -1], 2), ([1, -1], 3), ([1, 0, -1], 1), ([1, 0, -1], 2))
    ]
    bundles += [VectorBundle(unit_det(rng, k, 6)) for k in (3, 3, 4, 4)]
    queries = (
        (0, 0, lambda e: [h0_dim(e)]),
        (0, 0, lambda e: [h1_dim_oracle(e) + euler_char(e)]),
        (-4, 4, lambda e: [h for _, h in h0_profile(e, -4, 4)]),
    )
    calls = _split_calls(monkeypatch)
    routed = []
    for e in bundles:
        for lo, hi, count in queries:
            over = cech._plan(e, lo, hi).cells > cech._CERTIFICATE_CELLS
            calls.clear()
            assert count(e) == cech_counts(e, lo, hi)
            assert calls == [None] * over
            routed.append(over)
    assert 5 <= sum(routed) <= len(routed) - 5
    wide = diagonal_bundle([1000, -1000])
    calls.clear()
    assert h0_profile(wide, -1001, 1000) == list(
        zip(range(-1001, 1001), cech_counts(wide, -1001, 1000))
    )
    assert calls == [None]
    # The rule at its edge: a plan of exactly the threshold is solved.
    e = bundles[0]
    cells = cech._plan(e, -4, 4).cells
    for threshold, splits in ((cells, 0), (cells - 1, 1)):
        monkeypatch.setattr(cech, "_CERTIFICATE_CELLS", threshold)
        calls.clear()
        assert h0_profile(e, -4, 4) == list(zip(range(-4, 5), cech_counts(e, -4, 4)))
        assert len(calls) == splits


def test_routed_count_falls_back_to_cech_when_the_split_is_too_large(monkeypatch):
    # Every count routed: the split of this far-exponent file is refused
    # (its w-adic series is charged about 10^20 terms), so its h0 of 21 is
    # still answered, by the Cech solves.
    monkeypatch.setattr(cech, "_CERTIFICATE_CELLS", 0)
    calls = _split_calls(monkeypatch)
    assert h0_dim(parse_bundle(_FAR_FILES[1])) == 21
    assert calls == [SystemTooLarge]


@settings(deadline=None, max_examples=40)
@given(_shear_products())
def test_routed_profile_equals_the_cech_profile(e):
    # Every count routed: wherever the Cech solves answer a profile, the
    # profile read off the splitting type (or, if the split is refused, the
    # solves again) is the same, and each refusal is the same.
    with mock.patch.object(cech, "_CERTIFICATE_CELLS", 0):
        routed = _answer(lambda: h0_profile(e, -6, 6))
    assert routed == _answer(lambda: list(zip(range(-6, 7), cech_counts(e, -6, 6))))
