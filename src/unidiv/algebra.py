"""The cubic cyclic algebra built on L/K with a chosen unit gamma of K.

Elements are x = x0 + E*x1 + E^2*x2 with L coefficients, where the
generator E satisfies E^3 = gamma and lambda*E = E*sigma(lambda) for
lambda in L.  The module provides the 3x3 matrix embedding over L, the
involution whose matrix shadow is the conjugate transpose (available
exactly when z = gamma*conj(gamma) = 1), reduced norms and characteristic
polynomials as closed forms in the L coordinates, inversion through them,
and the fixed-point test for the involution together with its
coefficientwise conditions.

Everything is immutable and pure; an AlgebraSpec can be shared read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .fields import (
    K_ONE,
    KElem,
    L_ONE,
    L_ZERO,
    LElem,
    ZETA3,
    _as_k,
    l_mul_coords,
    l_norm_coords,
    l_sigma_coords,
    l_trace_coords,
)
from .polynomials import Polynomial
from .rationals import as_rat

Scalar = Union[KElem, Fraction, int]


class InvolutionUnavailable(ValueError):
    """Raised when gamma*conj(gamma) != 1 but an involution is requested."""


class InversionError(ArithmeticError):
    """A nonzero element turned out to have zero reduced norm.

    This cannot happen in a division algebra; it is surfaced rather than
    hidden so a bad gamma choice is caught immediately.
    """


class AlgebraSpec:
    """Structure constants of the algebra: gamma and z = gamma*conj(gamma)."""

    __slots__ = ("gamma", "z")

    def __init__(self, gamma: Scalar = ZETA3):
        g = _as_k(gamma)
        if g.is_zero():
            raise ValueError("gamma must be a nonzero element of K")
        self.gamma = g
        self.z = g * g.conj()

    @property
    def supports_involution(self) -> bool:
        """True iff z = 1, the only case where the involution mirrors the conjugate transpose."""
        return self.z == K_ONE

    def zero(self) -> "AlgElem":
        return AlgElem(self, L_ZERO, L_ZERO, L_ZERO)

    def one(self) -> "AlgElem":
        return AlgElem(self, L_ONE, L_ZERO, L_ZERO)

    def gen(self) -> "AlgElem":
        """The generator E (E^3 = gamma)."""
        return AlgElem(self, L_ZERO, L_ONE, L_ZERO)

    def from_l(self, value: LElem | Scalar) -> "AlgElem":
        return AlgElem(self, _as_l(value), L_ZERO, L_ZERO)

    def element(self, x0, x1, x2) -> "AlgElem":
        return AlgElem(self, _as_l(x0), _as_l(x1), _as_l(x2))

    def __eq__(self, other):
        if not isinstance(other, AlgebraSpec):
            return NotImplemented
        return self.gamma == other.gamma

    def __hash__(self):
        return hash(self.gamma)

    def __repr__(self):
        return f"AlgebraSpec(gamma={self.gamma})"


def _as_l(value) -> LElem:
    if isinstance(value, LElem):
        return value
    if isinstance(value, (KElem, int, Fraction)):
        return LElem(value)
    raise TypeError(f"cannot interpret {value!r} as an element of L")


class AlgElem:
    """x0 + E*x1 + E^2*x2 with LElem coordinates (unique representation)."""

    __slots__ = ("spec", "x0", "x1", "x2")

    def __init__(self, spec: AlgebraSpec, x0: LElem, x1: LElem, x2: LElem):
        self.spec = spec
        self.x0 = x0
        self.x1 = x1
        self.x2 = x2

    def coords(self) -> tuple[LElem, LElem, LElem]:
        return (self.x0, self.x1, self.x2)

    def _check_spec(self, other: "AlgElem"):
        if self.spec != other.spec:
            raise ValueError("elements live in algebras with different gamma")

    def __add__(self, other):
        if not isinstance(other, AlgElem):
            return NotImplemented
        self._check_spec(other)
        return AlgElem(self.spec, self.x0 + other.x0, self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other):
        if not isinstance(other, AlgElem):
            return NotImplemented
        self._check_spec(other)
        return AlgElem(self.spec, self.x0 - other.x0, self.x1 - other.x1, self.x2 - other.x2)

    def __neg__(self):
        return AlgElem(self.spec, -self.x0, -self.x1, -self.x2)

    def __mul__(self, other):
        if isinstance(other, (KElem, int, Fraction)):
            return self.scale(other)
        if not isinstance(other, AlgElem):
            return NotImplemented
        self._check_spec(other)
        # (E^i a)(E^j b) = E^(i+j) sigma^j(a) b, with E^3 folded into gamma
        gamma_l = LElem(self.spec.gamma)
        acc = [L_ZERO, L_ZERO, L_ZERO]
        for i, a in enumerate(self.coords()):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coords()):
                if b.is_zero():
                    continue
                term = a.sigma(j) * b
                k = i + j
                if k >= 3:
                    k -= 3
                    term = term * gamma_l
                acc[k] = acc[k] + term
        return AlgElem(self.spec, *acc)

    def __rmul__(self, other):
        if isinstance(other, (KElem, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, k: Scalar) -> "AlgElem":
        """Multiply by a central scalar (an element of K commutes with E)."""
        kk = _as_k(k)
        return AlgElem(self.spec, self.x0 * kk, self.x1 * kk, self.x2 * kk)

    def __pow__(self, n: int) -> "AlgElem":
        if n < 0:
            return inverse(self) ** (-n)
        out = self.spec.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, AlgElem):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.x0 == other.x0
            and self.x1 == other.x1
            and self.x2 == other.x2
        )

    def __hash__(self):
        return hash((self.spec.gamma, self.x0, self.x1, self.x2))

    def is_zero(self) -> bool:
        return self.x0.is_zero() and self.x1.is_zero() and self.x2.is_zero()

    def is_in_k(self) -> bool:
        return self.x1.is_zero() and self.x2.is_zero() and self.x0.is_in_k()

    def __str__(self):
        parts = []
        for coeff, prefix in ((self.x0, ""), (self.x1, "e*"), (self.x2, "e^2*")):
            if coeff.is_zero():
                continue
            if prefix and coeff == L_ONE:
                parts.append(prefix[:-1])
                continue
            body = str(coeff)
            if prefix and ("+" in body[1:] or "-" in body[1:]):
                body = f"({body})"
            parts.append(prefix + body)
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"AlgElem({self.x0!r}, {self.x1!r}, {self.x2!r})"


STANDARD_ALGEBRA = AlgebraSpec(ZETA3)


class MatL:
    """A 3x3 matrix with LElem entries, for rendering; the tests compare `.rows`."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[LElem]]):
        self.rows = tuple(tuple(_as_l(v) for v in row) for row in rows)
        if len(self.rows) != 3 or any(len(r) != 3 for r in self.rows):
            raise ValueError("expected a 3x3 grid")

    def det(self) -> LElem:
        r = self.rows
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )

    def to_complex(self, conj_index: int = 0) -> list[list[complex]]:
        return [[v.to_complex(conj_index) for v in row] for row in self.rows]

    def render(self) -> list[list[str]]:
        return [[str(v) for v in row] for row in self.rows]

    def __repr__(self):
        return f"MatL({[[str(v) for v in row] for row in self.rows]})"


def matrix_embed(x: AlgElem) -> MatL:
    """The 3x3 matrix of left multiplication by x in the basis {1, E, E^2}.

    Columns hold the coordinates of x*1, x*E and x*E^2; the upper triangle
    picks up a gamma factor from folding E^3.
    """
    g = LElem(x.spec.gamma)
    x0, x1, x2 = x.coords()
    return MatL(
        [
            [x0, g * x2.sigma(1), g * x1.sigma(2)],
            [x1, x0.sigma(1), g * x2.sigma(2)],
            [x2, x1.sigma(1), x0.sigma(2)],
        ]
    )


def involution(x: AlgElem) -> AlgElem:
    """The involution x0 + E*x1 + E^2*x2 -> conj(x0) + E*g1*sigma(conj(x2)) + E^2*g2*sigma^2(conj(x1)).

    Here g1 = g2 = 1/gamma; the form comes from rewriting E^(-1) = E^2/gamma
    and conj(gamma) = 1/gamma.  Requires z = 1, the only case in which the
    matrix embedding turns this map into the conjugate transpose.
    """
    spec = x.spec
    if not spec.supports_involution:
        raise InvolutionUnavailable(
            f"involution requires gamma*conj(gamma) = 1, got {spec.z}"
        )
    g_inv = spec.gamma.inv()
    y0 = x.x0.conj()
    y1 = x.x2.conj().sigma(1) * g_inv
    y2 = x.x1.conj().sigma(2) * g_inv
    return AlgElem(spec, y0, y1, y2)


def reduced_char_poly(x: AlgElem) -> Polynomial:
    """Monic characteristic polynomial of the embedded matrix, over KElem.

    With N and Tr the norm and trace of L/K it is

        X^3 - t*X^2 + s*X - Nrd(x),
        t = Tr(x0),  s = Tr(x0*sigma(x0)) - gamma*Tr(x1*sigma(x2)),

    t being the matrix trace and s the sum of its principal 2x2 minors.
    Every coefficient lies in K by construction.
    """
    a, b, c = (part.six_tuple() for part in x.coords())
    t = KElem(*l_trace_coords(a))
    s0 = KElem(*l_trace_coords(l_mul_coords(a, l_sigma_coords(a))))
    s1 = KElem(*l_trace_coords(l_mul_coords(b, l_sigma_coords(c))))
    return Polynomial([-reduced_norm(x), s0 - x.spec.gamma * s1, -t, K_ONE])


def char_poly_rational(x: AlgElem) -> Polynomial:
    """reduced_char_poly with all coefficients asserted rational."""
    chi = reduced_char_poly(x)
    out = []
    for c in chi.coeffs:
        if not c.is_rational():
            raise ValueError(f"characteristic polynomial is not rational: {chi}")
        out.append(c.a0)
    return Polynomial(out)


def reduced_norm(x: AlgElem) -> KElem:
    """Determinant of the embedded matrix, an element of K.

    With N and Tr the norm and trace of L/K (Sethuraman, Rajan and
    Shashidhar, IEEE Trans. IT 49(10), 2003) it is

        Nrd(x) = N(x0) + gamma*N(x1) + gamma^2*N(x2)
                 - gamma*Tr(x0*sigma(x1)*sigma^2(x2)).
    """
    a, b, c = (part.six_tuple() for part in x.coords())
    cross = l_mul_coords(l_mul_coords(a, l_sigma_coords(b)), l_sigma_coords(l_sigma_coords(c)))
    n0, n1, n2 = (KElem(*l_norm_coords(v)) for v in (a, b, c))
    g = x.spec.gamma
    return n0 + g * (n1 + g * n2 - KElem(*l_trace_coords(cross)))


def inverse(x: AlgElem) -> AlgElem:
    """Inverse via the characteristic polynomial: -(x^2 + a*x + b)/c.

    Here X^3 + a*X^2 + b*X + c is `reduced_char_poly(x)`, so c = -Nrd(x) and
    Cayley-Hamilton gives x*(x^2 + a*x + b) = -c.

    The exact postcondition x*y = 1 is asserted.  It is one-sided on
    purpose: in a finite-dimensional algebra a right inverse is also a left
    inverse (left multiplication by x is onto, as x*(y*a) = a, hence
    injective, and x*(y*x - 1) = 0), so checking y*x = 1 adds nothing.
    """
    if x.is_zero():
        raise ZeroDivisionError("zero element of the algebra")
    chi = reduced_char_poly(x)
    c, b, a = chi.coeffs[0], chi.coeffs[1], chi.coeffs[2]
    if c.is_zero():
        raise InversionError(
            "nonzero element with zero reduced norm; gamma does not give a division algebra"
        )
    y = (x * x + x.scale(a) + x.spec.one().scale(b)).scale(-c.inv())
    assert x * y == x.spec.one(), "inverse postcondition failed"
    return y


def is_involution_fixed(x: AlgElem) -> bool:
    return involution(x) == x


def fixed_point_conditions(x: AlgElem) -> tuple[bool, bool, bool]:
    """The three coefficientwise conditions equivalent to x = involution(x).

    Writing x_i = v_i + zeta3*w_i with v_i, w_i in the real subfield Q(theta):
    (1) x0 is real, (2) v1 = -sigma(v2), (3) w1 = sigma(w2) + v1.
    """
    v1, w1 = x.x1.real_imag_parts()
    v2, w2 = x.x2.real_imag_parts()
    cond1 = x.x0 == x.x0.conj()
    cond2 = v1 == -(v2.sigma(1))
    cond3 = w1 == w2.sigma(1) + v1
    return (cond1, cond2, cond3)


def subfield_element(spec: AlgebraSpec, c0: Scalar, c1: Scalar, c2: Scalar) -> AlgElem:
    """c0 + E*c1 + E^2*c2 with K coefficients.

    These elements form a commutative subfield (the Galois action fixes K),
    isomorphic to Q(zeta9) for the standard gamma = zeta3 via E <-> zeta9.
    """
    return AlgElem(spec, LElem(c0), LElem(c1), LElem(c2))


def from_zeta9(coeffs: Sequence[Fraction | int | str]) -> AlgElem:
    """Element of the E-subfield from coefficients of 1, z9, ..., z9^5.

    Dictionary: z9 -> E and z9^3 -> zeta3, so coefficient j >= 3 lands on
    E^(j-3) scaled by zeta3.
    """
    vals = [as_rat(v) for v in coeffs]
    if len(vals) != 6:
        raise ValueError("expected six rational coefficients")
    return subfield_element(
        STANDARD_ALGEBRA,
        KElem(vals[0], vals[3]),
        KElem(vals[1], vals[4]),
        KElem(vals[2], vals[5]),
    )


def to_zeta9(x: AlgElem) -> tuple[Fraction, ...]:
    """Coefficients of 1, z9, ..., z9^5 for an element of the E-subfield."""
    for part in x.coords():
        if not part.is_in_k():
            raise ValueError("element is not in the E-subfield")
    ks = [part.c0 for part in x.coords()]
    return (ks[0].a0, ks[1].a0, ks[2].a0, ks[0].a1, ks[1].a1, ks[2].a1)


def zeta9_str(coeffs: Sequence[Fraction]) -> str:
    """Human-readable rendering like (-10+16*z9+z9^2-4*z9^3+14*z9^4+8*z9^5)/19."""
    denom = math.lcm(*(c.denominator for c in coeffs))
    nums = [int(c * denom) for c in coeffs]
    parts = []
    for j, n in enumerate(nums):
        if n == 0:
            continue
        var = "" if j == 0 else ("z9" if j == 1 else f"z9^{j}")
        mag = abs(n)
        body = str(mag) if not var else (var if mag == 1 else f"{mag}*{var}")
        sign = "-" if n < 0 else "+"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    s = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        s += sign + body
    return s if denom == 1 else f"({s})/{denom}"


@dataclass(frozen=True)
class WorkedExample:
    """The built-in golden data for the unit (1+zeta3) + E + E^2*zeta3."""

    x: AlgElem
    involution_image: AlgElem
    unit_coeffs: tuple[Fraction, ...]


def worked_example() -> WorkedExample:
    """x = 1 + z9 + z9^3 + z9^5 and the exact values derived from it."""
    x = from_zeta9([1, 1, 0, 1, 0, 1])
    ax = subfield_element(STANDARD_ALGEBRA, KElem(0, -1), ZETA3, ZETA3 * ZETA3)
    unit = tuple(
        Fraction(n, 19) for n in (-10, 16, 1, -4, 14, 8)
    )
    return WorkedExample(x=x, involution_image=ax, unit_coeffs=unit)
