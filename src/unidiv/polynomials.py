"""Dense univariate polynomials over an exact coefficient ring.

Coefficients are stored lowest degree first.  The coefficient ring can be
``Rat`` (Fraction) or any exact ring type supporting +, -, *, unary - and
equality against 0 (KElem qualifies).  The zero polynomial is the empty
coefficient tuple.  All operations are pure; instances are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Optional

from .rationals import Rat, clear_denominators


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + -other

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial(())
        zero = self.coeffs[0] - self.coeffs[0]
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return Polynomial(out)

    def __call__(self, x):
        """Horner evaluation at x (x must multiply/add with the coefficients)."""
        if self.is_zero():
            return 0 * x
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            if k >= len(self.coeffs) or self.coeffs[k] == 0:
                continue
            sign, body = _signed_body(self.coeffs[k])
            if k == 0:
                term = body
            else:
                var = "X" if k == 1 else f"X^{k}"
                term = var if body == "1" else body + var
            parts.append(sign + term)
        return "".join(parts).removeprefix("+")

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


def _signed_body(c) -> tuple[str, str]:
    """Split a coefficient into a sign and a positive-looking rendering."""
    s = str(c)
    if s.startswith("-") and not any(op in s[1:] for op in "+-"):
        return "-", s[1:]
    if any(op in s[1:] for op in "+-"):
        return "+", f"({s})"
    return "+", s


def _require_rational_cubic(p: Polynomial) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    if p.degree != 3:
        raise ValueError(f"expected a cubic, got degree {p.degree}")
    cs = []
    for c in p.coeffs:
        if not isinstance(c, (Fraction, int)):
            raise ValueError("expected rational coefficients")
        cs.append(Fraction(c))
    return cs[0], cs[1], cs[2], cs[3]


def discriminant_cubic(p: Polynomial) -> Rat:
    """Discriminant 18abc - 4a^3c + a^2b^2 - 4b^3 - 27c^2 of monic X^3+aX^2+bX+c."""
    c0, b, a, lead = _require_rational_cubic(p)
    if lead != 1:
        raise ValueError("expected a monic cubic")
    c = c0
    return 18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c


def has_rational_root(p: Polynomial) -> Optional[Rat]:
    """First rational root of a rational cubic, or None.

    Uses the rational root theorem after clearing denominators; a cubic is
    irreducible over the rationals iff this returns None.
    """
    c0, c1, c2, c3 = _require_rational_cubic(p)
    (a0, _, _, a3), _ = clear_denominators((c0, c1, c2, c3))
    if a0 == 0:
        return Fraction(0)
    candidates = []
    for num in _divisors(abs(a0)):
        for den in _divisors(abs(a3)):
            candidates.append(Fraction(num, den))
            candidates.append(Fraction(-num, den))
    for r in sorted(set(candidates), key=lambda f: (abs(f), f < 0)):
        if c3 * r**3 + c2 * r**2 + c1 * r + c0 == 0:
            return r
    return None


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
