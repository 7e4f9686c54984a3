"""Arbitrary-precision rational scalars and small-integer factorization.

``Rat``, the coefficient scalar of the field layer, is ``fractions.Fraction``: its canonical
reduced form (gcd(|numerator|, denominator) = 1, denominator > 0) is what structural equality
of field elements relies on.  CLI input enters as integers, not as ``Rat``: `rat_pair` reads
each coordinate as a pair (p, q), and the algebra layer keeps integers over one denominator.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

Rat = Fraction

# What str(Fraction) writes.  Fraction also reads decimals, exponents (so
# "1e999999999" would build 10**999999999), underscores and whitespace.
_RAT_STRING = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rat_pair(value: int | str) -> tuple[int, int]:
    """Integers (p, q), q > 0 and not necessarily reduced, with p/q = value: a non-bool int or a string
    [+-]?digits(/digits)?.  ValueError for any other string or a zero denominator, TypeError for
    anything else, including bool (JSON true is not 1)."""
    if isinstance(value, str):
        if _RAT_STRING.fullmatch(value) is None:
            raise ValueError(f"not a rational p or p/q: {value!r}")
        p, _, q = value.partition("/")
        p, q = int(p), int(q or 1)
        if q == 0:
            raise ValueError(f"zero denominator in {value!r}")
        return p, q
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    raise TypeError(f"cannot interpret {value!r} as a rational")


def as_rat(value: int | str | Fraction) -> Fraction:
    """A Fraction as it is, or the canonical rational of what `rat_pair` reads, with its errors."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*rat_pair(value))


def clear_denominators(values) -> tuple[list[int], int]:
    """Integers n_i and the least common denominator q of rational values (ints, Fractions): v_i = n_i/q."""
    values = list(values)
    q = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (q // v.denominator) for v in values], q


def factor_small_int(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 by trial division, increasing primes.

    Returns [] for n = 1.  Meant for the small discriminants produced here
    (below 10**6); every trial divisor up to sqrt(n) is tried, so its cost
    grows as sqrt(n).
    """
    if n < 1:
        raise ValueError("factor_small_int requires n >= 1")
    out: list[tuple[int, int]] = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out
