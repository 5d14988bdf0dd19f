import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from p1bundles import (
    GaussianRational,
    LaurentPoly,
    W_CHART,
    Z_CHART,
    chart_contains,
    constant,
    monomial,
    parse_poly,
    z_power,
)
from p1bundles.laurent import ONE_POLY, ZERO_POLY, _add_monomial_times


def lp(d):
    return LaurentPoly(d)


small_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.builds(
        GaussianRational,
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
    ),
    max_size=5,
).map(LaurentPoly)


def test_arith_examples():
    assert (z_power(-1) + constant(1)) * (z_power(1) - constant(1)) == lp(
        {1: 1, -1: -1}
    )
    p = lp({-3: 2, 0: 5})
    assert p + ZERO_POLY == p
    assert z_power(-1) * z_power(1) == ONE_POLY


def test_invariants_purge_zeros():
    p = lp({2: 1}) - lp({2: 1})
    assert p.is_zero()
    with pytest.raises(ValueError):
        p.degree
    with pytest.raises(ValueError):
        p.order


def test_is_unit():
    assert monomial(3, -2).is_unit() == (GaussianRational(3), -2)
    assert (z_power(1) + constant(1)).is_unit() is None
    assert ZERO_POLY.is_unit() is None


def test_chart_membership():
    assert chart_contains(z_power(3), Z_CHART)
    assert not chart_contains(z_power(-1), Z_CHART)
    assert chart_contains(z_power(-3), W_CHART)


def test_poly_parse_print_roundtrip():
    p = lp({-2: GaussianRational(0, 1), 0: GaussianRational(3, 0) / 4, 5: 1})
    assert str(p) == "(0, 1)*z^-2 + 3/4 + z^5"
    assert parse_poly(str(p)) == p
    assert parse_poly("0") == ZERO_POLY


@given(small_polys)
def test_poly_roundtrip_property(p):
    assert parse_poly(str(p)) == p


# -- the fused products against a schoolbook (Fraction, Fraction) model -------

# Small and up-to-300-digit parts, each part with its own denominator.
_ints = st.one_of(st.integers(-3, 3), st.integers(-(10**300), 10**300))
_dens = st.one_of(st.integers(1, 6), st.integers(1, 10**300))
wide_scalars = st.builds(
    lambda a, b, d, e: GaussianRational(Fraction(a, d), Fraction(b, e)),
    _ints, _ints, _dens, _dens,
)
wide_polys = st.dictionaries(st.integers(-3, 3), wide_scalars, max_size=4).map(
    LaurentPoly
)


def model(p):
    return {e: (c.re, c.im) for e, c in p.items()}


def schoolbook(x, y):
    # The product of two models, term by term, cancelled terms dropped.
    out = {}
    for e1, (a, b) in x.items():
        for e2, (c, d) in y.items():
            r, i = out.get(e1 + e2, (0, 0))
            out[e1 + e2] = (r + a * c - b * d, i + a * d + b * c)
    return {e: c for e, c in out.items() if c != (0, 0)}


def check_poly(p, expected):
    # Same terms as the model, each a nonzero canonical triple.
    assert model(p) == expected
    for c in p._coeffs.values():
        assert c and c.den > 0 and math.gcd(c.num_re, c.num_im, c.den) == 1


@settings(max_examples=200, deadline=None)
@given(wide_polys, wide_polys)
def test_product_matches_schoolbook(a, b):
    check_poly(a * b, schoolbook(model(a), model(b)))
    assert a * b == b * a


@settings(max_examples=200, deadline=None)
@given(wide_polys, wide_scalars, st.integers(-3, 3), st.integers(-(10**30), 10**30))
def test_one_term_and_scalar_operands(p, c, e, n):
    mono = monomial(c, e)
    check_poly(mono * p, schoolbook(model(mono), model(p)))
    check_poly(p * mono, schoolbook(model(p), model(mono)))
    for s in (c, n):
        scaled = schoolbook(model(constant(s)), model(p))
        check_poly(p * s, scaled)
        check_poly(s * p, scaled)


def test_products_that_cancel():
    z, one, i = z_power(1), constant(1), constant(GaussianRational(0, 1))
    assert (z + one) * (z - one) == z_power(2) - one
    assert ((z + one) * (z - one)).support == [0, 2]
    assert (z + i) * (z - i) == z_power(2) + one
    half, third = GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(1, 3))
    p = monomial(half, 1) + constant(third)
    q = monomial(half, 1) - constant(third)
    check_poly(p * q, {2: (Fraction(1, 4), 0), 0: (Fraction(-1, 9), 0)})
    assert (z - one) * ZERO_POLY == ZERO_POLY


@settings(max_examples=200, deadline=None)
@given(wide_polys, st.integers(-3, 3), wide_scalars.filter(bool), wide_polys, st.booleans())
def test_add_monomial_times_matches_schoolbook(a, e, x, b, cancel):
    # a + x*z^e*b; with ``cancel`` a holds -x*z^e*b as well, so terms cancel.
    if cancel:
        a = a - monomial(x, e) * b
    expected = model(a)
    for exp, (r, i) in schoolbook(model(monomial(x, e)), model(b)).items():
        r0, i0 = expected.pop(exp, (0, 0))
        if (r0 + r, i0 + i) != (0, 0):
            expected[exp] = (r0 + r, i0 + i)
    check_poly(_add_monomial_times(a, e, x, b), expected)
    check_poly(_add_monomial_times(ZERO_POLY, e, x, b), model(monomial(x, e) * b))
