"""Arbitrary-precision rational scalars and small-integer factorization.

``Rat`` is the coefficient scalar used everywhere in this package.  It is
the standard library ``fractions.Fraction``, which already keeps the
canonical reduced form (gcd(|numerator|, denominator) = 1, denominator > 0)
that structural equality of field and algebra elements relies on.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

Rat = Fraction

# What str(Fraction) writes.  Fraction also reads decimals, exponents (so
# "1e999999999" would build 10**999999999), underscores and whitespace.
_RAT_STRING = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def as_rat(value: int | str | Fraction) -> Fraction:
    """Coerce ints, "p" or "p/q" strings and Fractions to a canonical rational.

    A string must match [+-]?digits(/digits)?.  Raises ValueError for any
    other string or a zero denominator, and TypeError for anything else,
    including bool (JSON true is not 1).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"cannot interpret {value!r} as a rational")
    if isinstance(value, str) and _RAT_STRING.fullmatch(value) is None:
        raise ValueError(f"not a rational p or p/q: {value!r}")
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as a rational")


def clear_denominators(values) -> tuple[list[int], int]:
    """Integers n_i and the least common denominator q of rational values (ints, Fractions): v_i = n_i/q."""
    values = list(values)
    q = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (q // v.denominator) for v in values], q


def factor_small_int(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 by trial division, increasing primes.

    Returns [] for n = 1.  Meant for the small discriminants produced here;
    anything in comfortable trial-division range (say below 2**64) works.
    """
    if n < 1:
        raise ValueError("factor_small_int requires n >= 1")
    out: list[tuple[int, int]] = []
    for p in _trial_divisors():
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out


def _trial_divisors():
    yield 2
    yield 3
    d = 5
    while True:
        yield d
        yield d + 2
        d += 6
