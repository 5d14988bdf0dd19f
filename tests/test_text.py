import ast
import re
from functools import cache

import pytest
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from p1bundles import (
    GaussianRational,
    InvalidBundle,
    LaurentMatrix,
    LaurentPoly,
    ParseError,
    SystemTooLarge,
    VectorBundle,
    diagonal_bundle,
    format_bundle,
    format_factorization,
    format_matrix,
    format_poly,
    format_scalar,
    grothendieck_split,
    line_bundle,
    monomial,
    parse_bundle,
    parse_factorization,
    parse_matrix,
    parse_poly,
    parse_scalar,
    random_bundle,
    verify_factorization,
    z_power,
)
from p1bundles.laurent import ONE_POLY, ZERO_POLY


def test_parse_matrix_examples():
    m = parse_matrix("z^-2, 0 ; 0, z^1")
    assert m == LaurentMatrix([[z_power(-2), ZERO_POLY], [ZERO_POLY, z_power(1)]])
    e = parse_bundle("z^1, 1 ; 0, z^-1")
    assert e.rank == 2 and e.degree == 0


def test_parse_bundle_rejects_degenerate():
    with pytest.raises(InvalidBundle):
        parse_bundle("z^1, 0 ; 0, z^1 + 1")


def test_header_rank_checked():
    e = parse_bundle("rank: 1\nz^-5")
    assert e.rank == 1 and e.degree == 5
    with pytest.raises(ParseError):
        parse_bundle("rank: 3\nz^1, 0 ; 0, z^-1")


def test_whitespace_insignificant():
    a = parse_matrix("z^1,1;0,z^-1")
    b = parse_matrix(" z^1 , 1 ;\n 0 , z^-1 ")
    assert a == b


def test_scalar_grammar():
    assert parse_scalar("-3/4") == GaussianRational(Fraction(-3, 4))
    assert parse_scalar("(1/2, -2)") == GaussianRational(Fraction(1, 2), -2)
    with pytest.raises(ParseError):
        parse_scalar("3/0")


def test_complex_coefficient_terms():
    p = parse_poly("(0,1)*z^-2 + 3/4 + z^5")
    assert p.coeff(-2) == GaussianRational(0, 1)
    assert p.coeff(0) == GaussianRational(Fraction(3, 4))
    assert p.coeff(5) == GaussianRational(1)
    assert format_poly(p) == "(0, 1)*z^-2 + 3/4 + z^5"


def test_repeated_exponents_collect():
    assert parse_poly("z^2 + z^2") == parse_poly("2*z^2")
    assert parse_poly("z^2 + -1*z^2") == parse_poly("0")


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_matrix("z^1, 1 ;\n0, z^-1 @")
    assert err.value.line == 2
    assert err.value.column == 9
    with pytest.raises(ParseError):
        parse_matrix("z^1, ; 1, 0")  # empty entry
    with pytest.raises(ParseError):
        parse_matrix("z^1, 1 ; 0")  # ragged rows


def test_matrix_roundtrip():
    e = random_bundle([2, 0, -3], 3, seed=10)
    assert parse_matrix(format_matrix(e.transition)) == e.transition
    assert parse_bundle(format_bundle(e)) == e
    assert parse_matrix(format_matrix(e.transition, multiline=True)) == e.transition


def test_factorization_roundtrip_and_tamper():
    e = random_bundle([1, -1, 0], 2, seed=3)
    _, fact = grothendieck_split(e)
    text = format_factorization(fact)
    back = parse_factorization(text)
    assert verify_factorization(e, back)
    tampered = text.replace("W:\n", "W:\n9 + ", 1)
    assert not verify_factorization(e, parse_factorization(tampered))
    with pytest.raises(ParseError):
        parse_factorization("W:\n1\nD:\n1")  # missing U block


def test_identity_factorization_blocks():
    _, fact = grothendieck_split(diagonal_bundle([0, 0]))
    text = format_factorization(fact)
    assert "W:" in text and "U:" in text and "D:" in text
    assert "1, 0" in text


def test_zero_and_one_render():
    assert format_poly(ZERO_POLY) == "0"
    assert format_poly(ONE_POLY) == "1"
    assert format_poly(-ONE_POLY) == "-1"
    assert format_poly(z_power(-1)) == "z^-1"
    assert format_poly(-z_power(2)) == "-1*z^2"
    assert parse_poly(format_poly(-z_power(2))) == -z_power(2)


def test_numbers_over_the_print_limit_are_refused():
    # Python converts ints of at most 4300 digits to text, and the parser
    # reads no longer ones back: a longer part or exponent is refused.
    top = GaussianRational(-(10**4299), Fraction(1, 10**4299 + 1))
    assert parse_scalar(format_scalar(top)) == top
    big = 10**5000
    for c in (
        GaussianRational(big),
        GaussianRational(1, Fraction(-1, big)),
        GaussianRational(Fraction(3, big + 1), 7),
    ):
        with pytest.raises(SystemTooLarge, match="5001-digit"):
            format_scalar(c)
    with pytest.raises(SystemTooLarge, match="5001-digit"):
        format_poly(z_power(-big))


# -- generated inputs ----------------------------------------------------------

_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12)
_scalars = st.builds(GaussianRational, _fractions, _fractions).filter(bool)
_exponents = st.integers(-(10**6), 10**6)
_entries = st.dictionaries(_exponents, _scalars, min_size=1, max_size=3).map(
    LaurentPoly
)


@st.composite
def _shear_products(draw):
    # A monomial diagonal times elementary shears with arbitrary Laurent
    # entries: det is the diagonal's c*z^e, exponent gaps up to 10^6.
    k = draw(st.integers(1, 3))
    t = LaurentMatrix.diagonal(
        [monomial(draw(_scalars), draw(_exponents)) for _ in range(k)]
    )
    for _ in range(draw(st.integers(0, 3)) if k > 1 else 0):
        i, j = draw(st.permutations(range(k)))[:2]
        shear = LaurentMatrix.identity(k).with_entry(i, j, draw(_entries))
        t = shear * t if draw(st.booleans()) else t * shear
    return VectorBundle(t)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(_shear_products())
def test_format_parse_roundtrip_on_shear_products(e):
    assert parse_bundle(format_bundle(e)) == e


_PIECES = ["rank: 2\n", "z^", "z^-3", "z^7", "1", "-2/3", "0", "/0", "(", ")",
           ",", ";", "+", "*", " ", "\n", "5/", "(1,2)", "7" * 4400]
_texts = st.one_of(
    st.text(alphabet="0123456789z^+-*/(),; \nrank:", max_size=40),
    st.lists(st.sampled_from(_PIECES), max_size=16).map("".join),
)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(_texts)
def test_grammar_text_raises_only_typed_errors(text):
    try:
        parse_bundle(text)
    except (ParseError, InvalidBundle):
        pass


# -- positions and signs -------------------------------------------------------


def test_positions_are_counted_in_the_whole_text():
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_bundle("rank: 2\nz^1, 1 ;\n0, $")
    assert (err.value.line, err.value.column) == (3, 4)
    text = "W:\n1, 0 ;\n0, 1\nU:\n1, 0 ;\n0, 1\nD:\n1, 0 ;\n0, $"
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_factorization(text)
    assert (err.value.line, err.value.column) == (9, 4)


def test_text_before_the_w_block_is_refused_where_it_stands():
    for text, at in (
        ("junk here!! W:\n1\nU:\n1\nD:\n1\n", (1, 1)),
        ("\n  12 W:\n1\nU:\n1\nD:\n1\n", (2, 3)),
    ):
        with pytest.raises(ParseError) as err:
            parse_factorization(text)
        assert (err.value.line, err.value.column) == at
    # whitespace alone is still allowed there
    blank = parse_factorization(" \n\tW:\n1\nU:\n1\nD:\n1\n")
    assert blank.w == LaurentMatrix.identity(1)


def test_numbers_are_ascii_digits():
    # Arabic-Indic 3 and 1, and 2 in a header: not digits of the grammar.
    for text in ("z^\u0663, 0 ; 0, \u0661", "rank: \u0662\nz^1, 0 ; 0, z^-1"):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_bundle(text)
    with pytest.raises(ParseError):
        parse_poly("\uff11")  # fullwidth 1


def test_declared_rank_mismatch_points_at_the_rank():
    with pytest.raises(ParseError, match="declared rank 3") as err:
        parse_bundle("rank: 3\nz^1, 0 ; 0, z^-1")
    assert (err.value.line, err.value.column) == (1, 7)


def test_signs_are_tokens():
    assert parse_poly("1+2") == parse_poly("1 + 2")
    assert parse_poly("z^1 +3") == parse_poly("z^1 + 3")
    assert parse_scalar("- 3") == parse_scalar("-3")
    assert parse_scalar("( - 1 / 2 , + 3 )") == GaussianRational(Fraction(-1, 2), 3)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(_shear_products())
@example(VectorBundle(parse_matrix("z^1, 1 + 3/4*z^2 ; 0, z^-1")))
def test_format_parse_roundtrip_without_spaces(e):
    assert parse_bundle(format_bundle(e).replace(" ", "")) == e


@cache
def _certificate() -> str:
    _, fact = grothendieck_split(random_bundle([1, -1, 0], 2, seed=3))
    return format_factorization(fact)


@st.composite
def _stray_characters(draw):
    # A valid certificate, or bundle file with or without its header, with
    # one character that starts no token put in somewhere.
    if draw(st.booleans()):
        parse, text = parse_factorization, _certificate()
    else:
        parse, text = parse_bundle, format_bundle(draw(_shear_products()))
        if draw(st.booleans()):
            text = text.split("\n", 1)[1]
    pos = draw(st.integers(0, len(text)))
    return parse, text[:pos] + draw(st.sampled_from("$@#!?x")) + text[pos:]


@settings(deadline=None, max_examples=150, derandomize=True)
@given(st.one_of(_stray_characters(), _texts.map(lambda t: (parse_bundle, t))))
def test_unexpected_character_is_reported_where_it_stands(case):
    parse, text = case
    try:
        parse(text)
    except (ParseError, InvalidBundle) as exc:
        found = re.match(r"unexpected character (.+) \(line", str(exc))
        if found:
            line = text.split("\n")[exc.line - 1]
            assert line[exc.column - 1] == ast.literal_eval(found.group(1))
