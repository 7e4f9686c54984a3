from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unidiv.rationals import as_rat, factor_small_int

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
    with pytest.raises(ValueError):
        as_rat(text)


def test_as_rat_reads_signed_p_and_p_q():
    assert as_rat("+3") == 3
    assert as_rat("-007/14") == Fraction(-1, 2)


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
