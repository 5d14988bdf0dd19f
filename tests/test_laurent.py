import pytest
from hypothesis import given, strategies as st

from p1bundles import (
    GaussianRational,
    LaurentPoly,
    W_CHART,
    Z_CHART,
    chart_contains,
    chart_degree,
    constant,
    monomial,
    parse_poly,
    z_power,
)
from p1bundles.laurent import ONE_POLY, ZERO_POLY


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


def test_chart_membership_and_degree():
    assert chart_contains(z_power(3), Z_CHART)
    assert not chart_contains(z_power(-1), Z_CHART)
    assert chart_contains(z_power(-3), W_CHART)
    assert chart_degree(lp({-4: 1, 0: 2}), W_CHART) == 4
    assert chart_degree(lp({0: 2, 5: 1}), Z_CHART) == 5


def test_poly_parse_print_roundtrip():
    p = lp({-2: GaussianRational(0, 1), 0: GaussianRational(3, 0) / 4, 5: 1})
    assert str(p) == "(0, 1)*z^-2 + 3/4 + z^5"
    assert parse_poly(str(p)) == p
    assert parse_poly("0") == ZERO_POLY


@given(small_polys)
def test_poly_roundtrip_property(p):
    assert parse_poly(str(p)) == p
