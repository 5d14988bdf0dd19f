import math
import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from p1bundles import GaussianRational, parse_scalar


def gq(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
scalars = st.builds(GaussianRational, rationals, rationals)
nonzero_scalars = scalars.filter(bool)


def test_worked_products():
    assert gq(Fraction(1, 2), 1) * gq(Fraction(1, 2), -1) == gq(Fraction(5, 4))
    assert gq(Fraction(3, 4)) / gq(Fraction(3, 4)) == gq(1)
    x = gq(Fraction(-7, 3), Fraction(2, 5))
    assert x + gq(0) == x


def test_inverse_examples():
    assert gq(2).inverse() == gq(Fraction(1, 2))
    assert gq(0, 1).inverse() == gq(0, -1)
    inv = gq(1, 1).inverse()
    assert inv == gq(Fraction(1, 2), Fraction(-1, 2))
    assert gq(1, 1) * inv == gq(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gq(1) / gq(0)
    with pytest.raises(ZeroDivisionError):
        gq(0).inverse()


def test_int_mixing_and_hash():
    assert gq(2) + 1 == gq(3)
    assert 2 * gq(0, 1) == gq(0, 2)
    assert 1 - gq(Fraction(1, 2)) == gq(Fraction(1, 2))
    assert hash(gq(1, 0)) == hash(gq(1))
    assert gq(1, 2).conjugate() == gq(1, -2)


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(nonzero_scalars)
def test_inverse_roundtrip(a):
    assert a * a.inverse() == GaussianRational(1)


@given(scalars)
def test_parse_print_roundtrip(a):
    assert parse_scalar(str(a)) == a


def test_text_forms():
    assert str(gq(3)) == "3"
    assert str(gq(Fraction(3, 4))) == "3/4"
    assert str(gq(Fraction(1, 2), Fraction(-2, 7))) == "(1/2, -2/7)"


# -- the integer triple against a (Fraction, Fraction) pair model -------------

# Small and up-to-300-digit parts, negatives included.
_ints = st.one_of(st.integers(-60, 60), st.integers(-(10**300), 10**300))
_dens = st.one_of(st.integers(1, 12), st.integers(1, 10**300))


@st.composite
def _model_pairs(draw):
    """Two values as (re, im) Fraction pairs: parts with their own
    denominators, one denominator per value, or one for all four parts."""
    mode = draw(st.sampled_from(["free", "per value", "common"]))
    common = draw(_dens)
    parts = []
    for _ in range(2):
        shared = draw(_dens) if mode == "per value" else common
        for _ in range(2):
            den = draw(_dens) if mode == "free" else shared
            parts.append(Fraction(draw(_ints), den))
    return (parts[0], parts[1]), (parts[2], parts[3])


def _mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def _inv(x):
    a, b = x
    n = a * a + b * b
    return a / n, -b / n


def _check(g, model):
    # Same value as the model, held as the canonical triple.
    assert type(g) is GaussianRational
    assert (g.re, g.im) == model
    assert g.den > 0 and math.gcd(g.num_re, g.num_im, g.den) == 1
    assert g == GaussianRational(*model)
    assert hash(g) == hash(GaussianRational(*model))


@settings(max_examples=300, deadline=None)
@given(_model_pairs())
def test_operations_match_fraction_pair_model(xy):
    x, y = xy
    gx, gy = GaussianRational(*x), GaussianRational(*y)
    _check(gx, x)
    _check(gx + gy, (x[0] + y[0], x[1] + y[1]))
    _check(gx - gy, (x[0] - y[0], x[1] - y[1]))
    _check(gx * gy, _mul(x, y))
    _check(-gx, (-x[0], -x[1]))
    _check(gx.conjugate(), (x[0], -x[1]))
    norm = gx.norm()
    assert type(norm) is Fraction and norm == x[0] ** 2 + x[1] ** 2
    assert (gx == gy) == (x == y)
    assert (gx != gy) == (x != y)
    assert bool(gx) == (x != (0, 0))
    if y != (0, 0):
        _check(gy.inverse(), _inv(y))
        _check(gx / gy, _mul(x, _inv(y)))
        # The same value by another route: equal, and equal hashes.
        _check((gx * gy) / gy, x)
    else:
        with pytest.raises(ZeroDivisionError):
            gy.inverse()
        with pytest.raises(ZeroDivisionError):
            gx / gy
    _check((gx + gy) - gy, x)


@settings(max_examples=300, deadline=None)
@given(_model_pairs(), st.one_of(_ints, st.builds(Fraction, _ints, _dens)))
def test_int_and_fraction_operands_on_either_side(xy, n):
    x, _ = xy
    g, q = GaussianRational(*x), Fraction(n)
    _check(g + n, (x[0] + q, x[1]))
    _check(n + g, (x[0] + q, x[1]))
    _check(g - n, (x[0] - q, x[1]))
    _check(n - g, (q - x[0], -x[1]))
    _check(g * n, (x[0] * q, x[1] * q))
    _check(n * g, (x[0] * q, x[1] * q))
    if n:
        _check(g / n, (x[0] / q, x[1] / q))
    else:
        with pytest.raises(ZeroDivisionError):
            g / n
    if x != (0, 0):
        _check(n / g, _mul((q, Fraction(0)), _inv(x)))
    else:
        with pytest.raises(ZeroDivisionError):
            n / g
    assert (g == n) == (x == (q, 0))
    assert (n == g) == (x == (q, 0))
    real = GaussianRational(n)
    _check(real, (q, 0))
    assert real == n and n == real


def test_equal_values_from_different_inputs():
    a = GaussianRational(Fraction(2, 4), Fraction(3, 6))
    b = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    # Raw triples with a common factor: (3, 3, 6), (2, 2, 4) and (2, 2, 4).
    c = GaussianRational(Fraction(1, 6), Fraction(1, 6)) * 3
    d = gq(Fraction(1, 4)) + gq(Fraction(1, 4), Fraction(1, 2))
    e = GaussianRational(1, 1) / 2
    for x in (a, c, d, e):
        assert x == b and hash(x) == hash(b)
        assert (x.num_re, x.num_im, x.den) == (1, 1, 2)
    # (5, 2, 6) - (5, 2, 6), the second reached as (10, 4, 12) by a sum.
    zero = gq(Fraction(5, 6), Fraction(1, 3)) - (
        b + gq(Fraction(1, 3), Fraction(-1, 6))
    )
    assert not zero and zero == 0 and hash(zero) == hash(GaussianRational(0))
    assert (zero.num_re, zero.num_im, zero.den) == (0, 0, 1)


def test_pinned_repr_and_type_errors():
    assert repr(gq(3)) == "GaussianRational(Fraction(3, 1), Fraction(0, 1))"
    assert repr(gq(Fraction(1, 2), Fraction(-2, 7))) == (
        "GaussianRational(Fraction(1, 2), Fraction(-2, 7))"
    )
    assert repr(gq(0, -1)) == "GaussianRational(Fraction(0, 1), Fraction(-1, 1))"
    assert repr(gq(Fraction(-(10**30), 3), Fraction(5, 9))) == (
        "GaussianRational(Fraction(-1000000000000000000000000000000, 3), "
        "Fraction(5, 9))"
    )
    assert str(gq(Fraction(-(10**30), 3), Fraction(5, 9))) == (
        "(-1000000000000000000000000000000/3, 5/9)"
    )
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        GaussianRational(1, "2")
    x = gq(1, 2)
    for name in ("re", "im", "num_re", "den"):
        with pytest.raises(AttributeError):
            setattr(x, name, 3)
