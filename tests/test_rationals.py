from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unidiv.rationals import as_rat, factor_small_int, rat_pair

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(fractions, fractions, fractions)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


@given(fractions)
def test_canonical_form(a):
    from math import gcd

    assert a.denominator > 0
    assert gcd(abs(a.numerator), a.denominator) == 1


def test_as_rat():
    assert as_rat("3/4") == Fraction(3, 4)
    assert as_rat(-2) == Fraction(-2)
    assert as_rat(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        as_rat(1.5)
    with pytest.raises(TypeError):
        as_rat(True)


def test_as_rat_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        as_rat("1/0")


@pytest.mark.parametrize("text", ["1e5", "0.5", "1_0", " 1", "1 ", "١", "1/-2", "+", "1/"])
def test_as_rat_rejects_other_string_syntax(text):
    # Fraction reads the first six (the last is an Arabic-Indic one); only
    # [+-]?digits(/digits)? with ASCII digits is accepted
    with pytest.raises(ValueError, match="^not a rational p or p/q: ") as from_as_rat:
        as_rat(text)
    with pytest.raises(ValueError) as from_rat_pair:
        rat_pair(text)
    assert str(from_rat_pair.value) == str(from_as_rat.value)


def test_as_rat_reads_signed_p_and_p_q():
    assert as_rat("+3") == 3
    assert as_rat("-007/14") == Fraction(-1, 2)


# "p" or "p/q" with a sign or none, leading zeros, and numerator and denominator scaled by k >= 1
rat_strings = st.builds(
    lambda sign, pad, p, q, k: sign + "0" * pad + str(p * k) + (f"/{q * k}" if q else ""),
    st.sampled_from(["", "+", "-"]),
    st.integers(0, 3),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(1, 12),
)


@given(st.one_of(st.integers(-(10**30), 10**30), rat_strings))
def test_rat_pair_matches_as_rat(value):
    p, q = rat_pair(value)
    assert type(p) is int and type(q) is int and q > 0
    assert Fraction(p, q) == as_rat(value) == Fraction(value)


def test_rat_pair_keeps_the_written_pair():
    assert rat_pair("-006/4") == (-6, 4)
    assert rat_pair("+3") == (3, 1)
    assert rat_pair(-7) == (-7, 1)


@pytest.mark.parametrize(
    "value, error, message",
    [
        (True, TypeError, "cannot interpret True as a rational"),
        (None, TypeError, "cannot interpret None as a rational"),
        (1.5, TypeError, "cannot interpret 1.5 as a rational"),
        ([1], TypeError, "cannot interpret [1] as a rational"),
        ("1/0", ValueError, "zero denominator in '1/0'"),
        ("-0/00", ValueError, "zero denominator in '-0/00'"),
        ("1" * 4301, ValueError, "Exceeds the limit (4300 digits) for integer string conversion"),
    ],
    ids=["true", "none", "float", "list", "1/0", "-0/00", "4301-digits"],
)
def test_rat_pair_rejects_as_as_rat_does(value, error, message):
    for read in (rat_pair, as_rat):
        with pytest.raises(error) as err:
            read(value)
        assert str(err.value).startswith(message)


def test_rat_pair_refuses_a_fraction():
    with pytest.raises(TypeError, match="cannot interpret Fraction"):
        rat_pair(Fraction(1, 2))


def test_rat_str_round_trip():
    # str renders "p" or "p/q", which as_rat reads back
    assert str(Fraction(-10, 19)) == "-10/19"
    assert as_rat(str(Fraction(7, 2))) == Fraction(7, 2)


def test_factor_table_discriminants():
    assert factor_small_int(564) == [(2, 2), (3, 1), (47, 1)]
    assert factor_small_int(7249) == [(11, 1), (659, 1)]
    assert factor_small_int(1) == []


def test_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        factor_small_int(0)


@given(st.integers(min_value=1, max_value=10**7))
def test_factor_remultiplies(n):
    prod = 1
    last = 0
    for p, e in factor_small_int(n):
        assert p > last
        last = p
        prod *= p**e
    assert prod == n
