"""Exact arithmetic in K = Q(zeta3) and L = K(theta), theta = 2cos(2pi/7).

K elements are a0 + a1*zeta3, reduced by zeta3^2 = -1 - zeta3.  L elements
are c0 + c1*theta + c2*theta^2 with KElem coefficients, reduced by the
minimal polynomial theta^3 + theta^2 - 2*theta - 1 = 0 (theta = zeta7 +
1/zeta7; the polynomial is pinned once numerically in the test suite).

The degree-3 Galois action of L over K is generated by theta -> theta^2 - 2
and fixes K pointwise.  Complex conjugation acts on the K coefficients
(zeta3 -> zeta3^2) and fixes theta; it commutes with the Galois action.

The product in K, and the product, Galois action, conjugation, norm and
trace in L, exist once: as the closed forms on rational coordinates at the
end of this module.  KElem and LElem apply them to their own coordinates,
the algebra's closed forms build on them, and the witness search splits
the norm's monomial table.  The inverse in L is sigma(a)*sigma^2(a)/N(a).

All values are immutable and all operations pure, so everything can be
shared freely across threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Union

from .rationals import as_rat

LCoercible = Union["LElem", "KElem", Fraction, int]

# Complex values of the generators: zeta3 = exp(2i*pi/3) and the three real
# conjugates of theta; index k holds 2*cos(2*pi*2^k/7), so that applying the
# Galois generator shifts the embedding index by one.
ZETA3_COMPLEX = complex(-0.5, math.sqrt(3.0) / 2.0)
THETA_EMBEDDINGS = tuple(2.0 * math.cos(2.0 * math.pi * (2**k) / 7.0) for k in range(3))


class KElem:
    """a0 + a1*zeta3 with rational a0, a1 (unique representation)."""

    __slots__ = ("a0", "a1")

    def __init__(self, a0: Fraction | int | str = 0, a1: Fraction | int | str = 0):
        self.a0 = as_rat(a0)
        self.a1 = as_rat(a1)

    @staticmethod
    def _coerce(value) -> Optional["KElem"]:
        if isinstance(value, KElem):
            return value
        if isinstance(value, (int, Fraction)):
            return KElem(value)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return KElem(self.a0 + o.a0, self.a1 + o.a1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return KElem(self.a0 - o.a0, self.a1 - o.a1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return KElem(-self.a0, -self.a1)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return KElem(*_k_mul_coords(self.a0, self.a1, o.a0, o.a1))

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a0 == o.a0 and self.a1 == o.a1

    def __hash__(self):
        return hash((self.a0, self.a1))

    def is_zero(self) -> bool:
        return self.a0 == 0 and self.a1 == 0

    def is_rational(self) -> bool:
        return self.a1 == 0

    def conj(self) -> "KElem":
        """zeta3 -> zeta3^2 = -1 - zeta3 (complex conjugation on K)."""
        return KElem(self.a0 - self.a1, -self.a1)

    def norm_q(self) -> Fraction:
        """Norm down to the rationals: self * conj(self), a0^2 - a0*a1 + a1^2."""
        return (self * self.conj()).a0

    def inv(self) -> "KElem":
        n = self.norm_q()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(zeta3)")
        c = self.conj()
        return KElem(c.a0 / n, c.a1 / n)

    def to_complex(self) -> complex:
        return complex(self.a0) + complex(self.a1) * ZETA3_COMPLEX

    def __str__(self):
        if self.a1 == 0:
            return str(self.a0)
        zpart = {1: "zeta3", -1: "-zeta3"}.get(self.a1, f"{self.a1}*zeta3")
        if self.a0 == 0:
            return zpart
        joiner = "+" if not zpart.startswith("-") else ""
        return f"{self.a0}{joiner}{zpart}"

    def __repr__(self):
        return f"KElem({self.a0!r}, {self.a1!r})"


K_ZERO = KElem(0)
K_ONE = KElem(1)
ZETA3 = KElem(0, 1)

def _as_k(value) -> KElem:
    k = KElem._coerce(value)
    if k is None:
        raise TypeError(f"cannot interpret {value!r} as an element of Q(zeta3)")
    return k


class LElem:
    """c0 + c1*theta + c2*theta^2 with KElem coefficients (unique representation)."""

    __slots__ = ("c0", "c1", "c2")

    def __init__(self, c0: LCoercible = 0, c1: LCoercible = 0, c2: LCoercible = 0):
        self.c0 = _as_k(c0)
        self.c1 = _as_k(c1)
        self.c2 = _as_k(c2)

    @staticmethod
    def _coerce(value) -> Optional["LElem"]:
        if isinstance(value, LElem):
            return value
        if isinstance(value, (KElem, int, Fraction)):
            return LElem(value)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LElem(self.c0 + o.c0, self.c1 + o.c1, self.c2 + o.c2)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LElem(self.c0 - o.c0, self.c1 - o.c1, self.c2 - o.c2)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return LElem(-self.c0, -self.c1, -self.c2)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LElem.from_six_tuple(l_mul_coords(self.six_tuple(), o.six_tuple()))

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.c0 == o.c0 and self.c1 == o.c1 and self.c2 == o.c2

    def __hash__(self):
        return hash((self.c0, self.c1, self.c2))

    def is_zero(self) -> bool:
        return self.c0.is_zero() and self.c1.is_zero() and self.c2.is_zero()

    def is_in_k(self) -> bool:
        return self.c1.is_zero() and self.c2.is_zero()

    def sigma(self, power: int = 1) -> "LElem":
        """Apply the Galois generator (theta -> theta^2 - 2) power mod 3 times."""
        coords = self.six_tuple()
        for _ in range(power % 3):
            coords = l_sigma_coords(coords)
        return LElem.from_six_tuple(coords)

    def conj(self) -> "LElem":
        """Complex conjugation: zeta3 -> zeta3^2 on every coefficient, theta fixed."""
        return LElem.from_six_tuple(l_conj_coords(self.six_tuple()))

    def norm_to_k(self) -> KElem:
        """Product of the three Galois conjugates; always lands in K."""
        return KElem(*l_norm_coords(self.six_tuple()))

    def inv(self) -> "LElem":
        """sigma(a) * sigma^2(a) / N(a), since a * sigma(a) * sigma^2(a) = N(a) lies in K."""
        n = self.norm_to_k()
        if n.is_zero():
            raise ZeroDivisionError("division by zero in K(theta)")
        s = self.sigma(1)
        return s * s.sigma(1) * n.inv()

    def to_complex(self, conj_index: int = 0) -> complex:
        """Complex value with zeta3 -> exp(2i*pi/3) and theta -> its conj_index-th conjugate."""
        t = THETA_EMBEDDINGS[conj_index]
        return self.c0.to_complex() + self.c1.to_complex() * t + self.c2.to_complex() * (t * t)

    def six_tuple(self) -> tuple[Fraction, ...]:
        """Rational coordinates in basis order (1, zeta3, theta, theta*zeta3, theta^2, theta^2*zeta3)."""
        return (self.c0.a0, self.c0.a1, self.c1.a0, self.c1.a1, self.c2.a0, self.c2.a1)

    @classmethod
    def from_six_tuple(cls, values: Sequence[Fraction | int | str]) -> "LElem":
        vals = [as_rat(v) for v in values]
        if len(vals) != 6:
            raise ValueError("expected six rational coordinates")
        return cls(KElem(vals[0], vals[1]), KElem(vals[2], vals[3]), KElem(vals[4], vals[5]))

    def __str__(self):
        parts = []
        for coeff, var in ((self.c0, ""), (self.c1, "theta"), (self.c2, "theta^2")):
            if coeff.is_zero():
                continue
            if not var:
                parts.append(str(coeff))
                continue
            if coeff == 1:
                parts.append(var)
            elif coeff == -1:
                parts.append("-" + var)
            else:
                body = str(coeff)
                if "+" in body[1:] or "-" in body[1:]:
                    body = f"({body})"
                parts.append(f"{body}*{var}")
        if not parts:
            return "0"
        return "".join(p if p.startswith("-") else "+" + p for p in parts).removeprefix("+")

    def __repr__(self):
        return f"LElem({self.c0!r}, {self.c1!r}, {self.c2!r})"


L_ZERO = LElem(0)
L_ONE = LElem(1)
THETA = LElem(0, 1, 0)
THETA_SQ = LElem(0, 0, 1)


# ---------------------------------------------------------------------------
# Closed forms on six coordinates
# ---------------------------------------------------------------------------
# An element of L as six rational coordinates in `LElem.six_tuple` order.
# These are the only implementation of the products, the Galois action,
# the conjugation, the norm and the trace: KElem and LElem call them on
# Fractions, the algebra's closed forms on the polynomials that trace their
# tables, the witness search on integer arrays and its hit on Python ints.
# So they use only +, - and * (integers stay integers), in straight-line code:
# on Python ints, per-call lists and loops would cost more than the arithmetic.


def _k_mul_coords(x0, x1, y0, y1):
    """(x0 + x1*zeta3)(y0 + y1*zeta3) with zeta3^2 = -1 - zeta3."""
    square = x1 * y1
    return x0 * y0 - square, x0 * y1 + x1 * y0 - square


def l_mul_coords(a: Sequence, b: Sequence) -> tuple:
    """Product in L, reduced by theta^3 = 1+2*theta-theta^2 and theta^4 = -1-theta+3*theta^2."""
    (a0, a1, a2, a3, a4, a5), (b0, b1, b2, b3, b4, b5) = a, b
    # xij + yij*zeta3: the K product of a's theta^i and b's theta^j coefficients
    x00, y00 = _k_mul_coords(a0, a1, b0, b1)
    x01, y01 = _k_mul_coords(a0, a1, b2, b3)
    x02, y02 = _k_mul_coords(a0, a1, b4, b5)
    x10, y10 = _k_mul_coords(a2, a3, b0, b1)
    x11, y11 = _k_mul_coords(a2, a3, b2, b3)
    x12, y12 = _k_mul_coords(a2, a3, b4, b5)
    x20, y20 = _k_mul_coords(a4, a5, b0, b1)
    x21, y21 = _k_mul_coords(a4, a5, b2, b3)
    x22, y22 = _k_mul_coords(a4, a5, b4, b5)
    x3, y3 = x12 + x21, y12 + y21  # theta^3's coefficient unreduced; theta^4's is x22 + y22*zeta3
    return (x00 + x3 - x22, y00 + y3 - y22, x01 + x10 + 2 * x3 - x22, y01 + y10 + 2 * y3 - y22,
            x02 + x11 + x20 - x3 + 3 * x22, y02 + y11 + y20 - y3 + 3 * y22)


def l_sigma_coords(a: Sequence) -> tuple:
    """The Galois generator: (c0, c1, c2) -> (c0 - 2*c1 + 3*c2, -c2, c1 - c2)."""
    x0, y0, x1, y1, x2, y2 = a
    return x0 - 2 * x1 + 3 * x2, y0 - 2 * y1 + 3 * y2, -x2, -y2, x1 - x2, y1 - y2


def l_conj_coords(a: Sequence) -> tuple:
    """Complex conjugation, a0 + a1*zeta3 -> (a0 - a1) - a1*zeta3 on each K coefficient."""
    x0, y0, x1, y1, x2, y2 = a
    return x0 - y0, -y0, x1 - y1, -y1, x2 - y2, -y2


def l_norm_coords(a: Sequence) -> tuple:
    """N_{L/K}(a) = a * sigma(a) * sigma^2(a) as its two K coordinates."""
    s = l_sigma_coords(a)
    return l_mul_coords(l_mul_coords(a, s), l_sigma_coords(s))[:2]


def l_trace_coords(a: Sequence) -> tuple:
    """Tr_{L/K}(a) = 3*c0 - c1 + 5*c2 as its two K coordinates (Tr theta = -1, Tr theta^2 = 5)."""
    x0, y0, x1, y1, x2, y2 = a
    return 3 * x0 - x1 + 5 * x2, 3 * y0 - y1 + 5 * y2


def minimal_polynomial_coeffs() -> tuple[Fraction, ...]:
    """Coefficients (lowest first) of the pinned minimal polynomial of theta."""
    return (Fraction(-1), Fraction(-2), Fraction(1), Fraction(1))
