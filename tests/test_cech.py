import random

import pytest

from p1bundles import (
    LaurentMatrix,
    LaurentPoly,
    Section,
    VectorBundle,
    WindowUnstable,
    constant,
    diagonal_bundle,
    euler_char,
    h0_dim,
    h0_profile,
    h0_sections,
    h1_dim_oracle,
    is_section,
    line_bundle,
    random_bundle,
    z_power,
)
from p1bundles.laurent import ONE_POLY, ZERO_POLY
import p1bundles.cech as cech


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
    secs = h0_sections(line_bundle(3), 5)
    assert len(secs) == 4
    for s in secs:
        assert is_section(line_bundle(3), s)
        assert s.components[0].degree <= 3


def test_h0_sections_negative_line_bundle_empty():
    assert h0_sections(line_bundle(-1), 5) == []


def test_h0_sections_euler_extension():
    e = euler_extension()
    secs = h0_sections(e, 3)
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


def test_euler_char():
    assert euler_char(line_bundle(-1)) == 0
    for d in range(-3, 4):
        assert euler_char(line_bundle(d)) == d + 1
    e = random_bundle([2, -1], 3, seed=77)
    assert euler_char(e) == e.degree + e.rank == 3


def test_riemann_roch_on_scrambles():
    rng = random.Random(404)
    for _ in range(10):
        degrees = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        e = random_bundle(degrees, rng.randint(0, 2), rng.randint(0, 10**6))
        assert h0_dim(e) - h1_dim_oracle(e) == e.degree + e.rank


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
    # a window far too small for O(3) must fail loudly, never silently
    assert h0_dim(line_bundle(3), window=5) == 4
    with pytest.raises(WindowUnstable):
        h0_dim(line_bundle(3), window=1)


def test_stability_counters_move():
    # dimensions are cached per bundle, so use degrees nothing else touches
    before = cech.STABILITY_CHECKS
    h0_dim(line_bundle(17))
    h1_dim_oracle(line_bundle(-17))
    assert cech.STABILITY_CHECKS > before


def test_sections_satisfy_constraints_exactly():
    rng = random.Random(6)
    for _ in range(6):
        degrees = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        e = random_bundle(degrees, rng.randint(0, 2), rng.randint(0, 10**6))
        window = e.rank * (e.max_exponent + 1)
        for s in h0_sections(e, window):
            assert is_section(e, s)


def test_rank_one_goes_through_generic_path():
    # no line-bundle special casing: the same engine handles k = 1
    assert h0_dim(VectorBundle(LaurentMatrix([[constant(5)]]))) == 1
    assert h1_dim_oracle(VectorBundle(LaurentMatrix([[constant(5)]]))) == 0


def test_h0_of_tall_coefficient_bundle(monkeypatch):
    # O(3) + O + O(-3) under shears whose coefficients have 350 digits: the
    # Cech system is 55 x 50 and its echelon entries need more than 256
    # primes, so this pins the prime budget to the input's height.
    c = [10**350 + 7 + 13 * n for n in range(4)]

    def shear(i, j, coeffs):
        return LaurentMatrix.identity(3).with_entry(i, j, LaurentPoly(coeffs))

    t = LaurentMatrix.diagonal([z_power(-3), ONE_POLY, z_power(3)])
    t = shear(0, 1, {0: c[0], -1: c[1]}) * shear(2, 0, {-1: c[2]}) * t
    t = t * shear(1, 0, {0: c[3], 1: c[0]}) * shear(0, 2, {1: c[1]})
    shapes = []
    solve = cech.kernel_basis

    def spy(matrix):
        shapes.append((matrix.rows, matrix.cols))
        return solve(matrix)

    monkeypatch.setattr(cech, "kernel_basis", spy)
    assert h0_dim(VectorBundle(t)) == 4 + 1 + 0
    assert max(r * c for r, c in shapes) > 2400
