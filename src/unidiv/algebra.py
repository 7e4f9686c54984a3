"""The cubic cyclic algebra (L/K, sigma, gamma) for a nonzero gamma in Z[zeta3].

Elements are x = x0 + E*x1 + E^2*x2 with L coefficients, where the
generator E satisfies E^3 = gamma and lambda*E = E*sigma(lambda) for
lambda in L.  The module provides the 3x3 matrix embedding over L, the
involution whose matrix shadow is the conjugate transpose (available
exactly when z = gamma*conj(gamma) = 1), reduced norms and characteristic
polynomials, inversion through the reduced adjugate, and `_expand3`, the one
3x3 cofactor expansion, on exact or float arrays.  The product, the
involution, the embedding, chi (t, s and Nrd in one table) and the reduced
adjugate x^# = x^2 - t*x + s (x * x^# = Nrd(x)) exist once, as closed forms
on the 18 rational coordinates at the end of this module, each evaluated
from a monomial table traced from it once per gamma.  Three more tables
are traced from those bodies: x * involution(x) joined with the embedding,
x * involution(x) - involution(x) * x, and u * involution(w) with the K
part of u * w, which for w = u^# give the unit u * involution(u)^(-1)
after one scaling in K.  Constants are built from their integer
coordinates.  Everything is immutable and pure; an AlgebraSpec can be shared read-only.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .fields import (
    K_ONE,
    KElem,
    L_ONE,
    LElem,
    ZETA3,
    _as_k,
    _k_mul_coords,
    l_conj_coords,
    l_mul_coords,
    l_norm_coords,
    l_sigma_coords,
    l_trace_coords,
)
from .polynomials import Polynomial
from .rationals import as_rat, clear_denominators

Scalar = Union[KElem, Fraction, int]


class InvolutionUnavailable(ValueError):
    """Raised when gamma*conj(gamma) != 1 but an involution is requested."""


class InversionError(ArithmeticError):
    """A nonzero element turned out to have zero reduced norm.

    This cannot happen in a division algebra; it is surfaced rather than
    hidden so a bad gamma choice is caught immediately.
    """


class AlgebraSpec:
    """gamma (nonzero, in Z[zeta3]), `gamma_coords` its two integers, and z = gamma*conj(gamma).  A
    rational G/d is refused: G*d^2 gives the same algebra, as gamma*N(c) does for c in L^* and N(d) = d^3.
    Specs compare and hash by `gamma_coords`; `supports_involution` is z = 1, the only case where the
    involution mirrors the conjugate transpose."""

    __slots__ = ("gamma", "z", "gamma_coords", "supports_involution")

    def __init__(self, gamma: Scalar = ZETA3):
        g = _as_k(gamma)
        coords, d = clear_denominators((g.a0, g.a1))
        if g.is_zero() or d != 1:
            same = f"; gamma = G/{d} gives the same algebra as G*{d}^2 = {g * d**3}" if d != 1 else ""
            raise ValueError(f"gamma must be a nonzero element of Z[zeta3], got {g}{same}")
        self.gamma = g
        self.z = g * g.conj()
        self.gamma_coords = tuple(coords)
        self.supports_involution = self.z == K_ONE

    def require_involution(self) -> None:
        if not self.supports_involution:
            raise InvolutionUnavailable(f"involution requires gamma*conj(gamma) = 1, got {self.z}")

    def one(self) -> "AlgElem":
        return AlgElem.from_integral(self, (1,), 1)

    def gen(self) -> "AlgElem":
        """The generator E (E^3 = gamma)."""
        return AlgElem.from_integral(self, (0,) * 6 + (1,), 1)

    def __eq__(self, other):
        if not isinstance(other, AlgebraSpec):
            return NotImplemented
        return self.gamma_coords == other.gamma_coords

    def __hash__(self):
        return hash(self.gamma_coords)

    def __repr__(self):
        return f"AlgebraSpec(gamma={self.gamma})"


class AlgElem:
    """x0 + E*x1 + E^2*x2 with L coordinates x0, x1, x2.

    It is stored as 18 integers over one positive denominator in lowest
    terms (`integral`), the six-tuples of x0, x1 and x2 (built when read)
    without trailing zeros, so equal elements store equal values.  gamma is
    integral, so products stay integral; `scale` folds in a scalar's denominator.
    """

    __slots__ = ("spec", "_num", "_den")

    def __init__(self, spec: AlgebraSpec, x0: LElem, x1: LElem, x2: LElem):
        self._set(spec, *clear_denominators(c for part in (x0, x1, x2) for c in part.six_tuple()))

    def _set(self, spec: AlgebraSpec, coords, q) -> None:
        if q == 0:
            raise ZeroDivisionError("zero denominator")
        g = math.gcd(q, *coords) * (1 if q > 0 else -1)
        self.spec = spec
        num = [v // g for v in coords]
        while num and not num[-1]:
            num.pop()
        self._num = tuple(num)
        self._den = q // g

    def coords(self) -> tuple[LElem, LElem, LElem]:
        return (self.x0, self.x1, self.x2)

    def _part(self, i: int) -> LElem:
        return LElem.from_six_tuple([Fraction(v, self._den) for v in self.integral()[0][6 * i : 6 * i + 6]])

    x0 = property(lambda self: self._part(0))
    x1 = property(lambda self: self._part(1))
    x2 = property(lambda self: self._part(2))

    def integral(self) -> tuple[tuple[int, ...], int]:
        """The 18 coordinates as integers over their least common denominator, for the
        closed forms (far faster on integers than on Fractions); `from_integral` divides back."""
        return self._num + (0,) * (18 - len(self._num)), self._den

    @classmethod
    def from_integral(cls, spec: AlgebraSpec, coords, q) -> "AlgElem":
        x = cls.__new__(cls)
        x._set(spec, coords, q)
        return x

    def _check_spec(self, other: "AlgElem"):
        if self.spec != other.spec:
            raise ValueError("elements live in algebras with different gamma")

    def _combine(self, other, sign: int):
        if not isinstance(other, AlgElem):
            return NotImplemented
        self._check_spec(other)
        (a, p), (b, q) = self.integral(), other.integral()
        return AlgElem.from_integral(self.spec, [u * q + sign * v * p for u, v in zip(a, b)], p * q)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, (KElem, int, Fraction)):
            return self.scale(other)
        if not isinstance(other, AlgElem):
            return NotImplemented
        self._check_spec(other)
        (a, p), (b, q) = self.integral(), other.integral()
        return AlgElem.from_integral(self.spec, a_mul_coords(a, b, self.spec.gamma_coords), p * q)

    def __rmul__(self, other):
        if isinstance(other, (KElem, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, k: Scalar) -> "AlgElem":
        """Multiply by a central scalar (an element of K commutes with E); k's denominator joins x's."""
        kk = _as_k(k)
        num, m = clear_denominators((kk.a0, kk.a1))
        a, q = self.integral()
        return AlgElem.from_integral(self.spec, _k_scale(num, a), q * m)

    def __eq__(self, other):
        if not isinstance(other, AlgElem):
            return NotImplemented
        return self.spec == other.spec and self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash((self.spec.gamma_coords, self._num, self._den))

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_in_k(self) -> bool:
        return len(self._num) <= 2

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

    def __init__(self, rows: tuple[tuple[LElem, ...], ...]):
        self.rows = rows

    def det(self) -> LElem:
        return _expand3(np.array(self.rows, dtype=object), -1)

    def render(self) -> list[list[str]]:
        return [[str(v) for v in row] for row in self.rows]

    def __repr__(self):
        return f"MatL({[[str(v) for v in row] for row in self.rows]})"


def matrix_embed(x: AlgElem) -> MatL:
    """The 3x3 matrix of left multiplication by x in the basis {1, E, E^2}.

    Columns hold the coordinates of x*1, x*E and x*E^2 (`a_embed_coords`).
    """
    a, q = x.integral()
    e = [Fraction(v, q) for v in a_embed_coords(a, x.spec.gamma_coords)]
    return MatL(tuple(tuple(LElem.from_six_tuple(e[i:i + 6]) for i in range(r, r + 18, 6)) for r in (0, 18, 36)))


def _expand3(m: np.ndarray, sign: int) -> np.ndarray:
    """Determinant (sign = -1) or permanent (sign = +1) of stacked 3x3 matrices."""
    return (
        m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] + sign * m[..., 1, 2] * m[..., 2, 1])
        + sign * m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] + sign * m[..., 1, 2] * m[..., 2, 0])
        + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] + sign * m[..., 1, 1] * m[..., 2, 0])
    )


def involution(x: AlgElem) -> AlgElem:
    """The involution x0 + E*x1 + E^2*x2 -> conj(x0) + E*g1*sigma(conj(x2)) + E^2*g2*sigma^2(conj(x1)).

    Here g1 = g2 = 1/gamma; the form comes from rewriting E^(-1) = E^2/gamma
    and conj(gamma) = 1/gamma.  Requires z = 1, the only case in which the
    matrix embedding turns this map into the conjugate transpose.
    """
    x.spec.require_involution()
    a, q = x.integral()
    return AlgElem.from_integral(x.spec, a_involution_coords(a, x.spec.gamma_coords), q)


def reduced_char_poly(x: AlgElem) -> Polynomial:
    """Monic characteristic polynomial X^3 - t*X^2 + s*X - Nrd(x) of the embedded matrix, over KElem: t is
    its trace and s the sum of its principal 2x2 minors, all three from one `a_char_coords` call."""
    a, q = x.integral()
    t0, t1, s0, s1, n0, n1 = a_char_coords(a, x.spec.gamma_coords)
    return Polynomial([KElem(Fraction(-n0, q**3), Fraction(-n1, q**3)), KElem(Fraction(s0, q * q), Fraction(s1, q * q)),
                       KElem(Fraction(-t0, q), Fraction(-t1, q)), K_ONE])


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
    """Determinant of the embedded matrix, an element of K: the last two outputs of `a_char_coords`."""
    a, q = x.integral()
    return KElem(*(Fraction(v, q**3) for v in a_char_coords(a, x.spec.gamma_coords)[4:]))


def inverse(x: AlgElem) -> AlgElem:
    """x^(-1) = q * a^# * conj(n)/N(n) for x = a/q, a integral, n = Nrd(a): the reduced adjugate
    (`a_adjugate_coords`, a * a^# = n) scaled by conj(n) in `a_k_scale_coords`, as N(n) = n * conj(n).

    The exact postcondition x*y = 1 raises AssertionError, under `python -O`
    too.  It is one-sided on purpose: in a finite-dimensional algebra a right
    inverse is also a left inverse (left multiplication by x is onto, as
    x*(y*a) = a, hence injective, and x*(y*x - 1) = 0), so y*x = 1 adds nothing.
    """
    if x.is_zero():
        raise ZeroDivisionError("zero element of the algebra")
    a, q = x.integral()
    gamma = x.spec.gamma_coords
    n0, n1 = a_char_coords(a, gamma)[4:]
    *num, d = a_k_scale_coords(a_adjugate_coords(a, gamma), (n0 - n1, -n1), gamma)
    if d == 0:
        raise InversionError("nonzero element with zero reduced norm; gamma does not give a division algebra")
    y = AlgElem.from_integral(x.spec, [q * v for v in num], d)
    if x * y != x.spec.one():
        raise AssertionError("inverse postcondition failed")
    return y


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
    if not all(part.is_in_k() for part in x.coords()):
        raise ValueError("element is not in the E-subfield")
    ks = [part.c0 for part in x.coords()]
    return tuple(k.a0 for k in ks) + tuple(k.a1 for k in ks)


def zeta9_str(coeffs: Sequence[Fraction]) -> str:
    """Human-readable rendering like (-10+16*z9+z9^2-4*z9^3+14*z9^4+8*z9^5)/19."""
    nums, denom = clear_denominators(coeffs)
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
    s = "".join(sign + body for sign, body in parts).removeprefix("+")
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


# ---------------------------------------------------------------------------
# Closed forms on eighteen coordinates
# ---------------------------------------------------------------------------
# x0 + E*x1 + E^2*x2 as 18 coordinates, the six-tuples of x0, x1 and x2,
# and gamma as its two K coordinates.  Each form is written once, with +, -
# and * only, as one flat tuple of outputs; its body runs once per (argument
# sizes, gamma) on _Poly variables, giving one coefficient matrix over its
# distinct monomials (`_table`), which every call evaluates (`_tabulated`)
# into one array of rows, one per output: a tuple of Python numbers for
# AlgElem and the functions above, an (outputs, k) array for the codebook's
# (n, k) arrays.  Both tiers form the same monomials: float64 on integers
# within the table's float limit, where every value formed is an integer
# below 2^53; else object arrays of Python numbers, exact at any size.


class _Poly(dict):
    """A polynomial {sorted tuple of variable indices: integer or rational coefficient}."""

    def __add__(self, other, sign=1):
        out = _Poly(self)
        for m, c in _lift(other).items():
            if c := out.pop(m, 0) + sign * c:
                out[m] = c
        return out

    def __mul__(self, other):
        if not isinstance(other, _Poly):  # a constant scales the coefficients
            return _Poly({m: c * other for m, c in self.items()} if other else {})
        out: dict = {}
        for (m, c), (n, d) in itertools.product(self.items(), _lift(other).items()):
            mn = tuple(sorted(m + n))
            out[mn] = out.get(mn, 0) + c * d
        return _Poly({m: c for m, c in out.items() if c})

    __radd__, __rmul__ = __add__, __mul__
    __sub__ = lambda self, other: self.__add__(other, -1)
    __neg__ = lambda self: self * -1


def _lift(v) -> _Poly:
    return v if isinstance(v, _Poly) else _Poly({(): v} if v else {})


@functools.lru_cache(maxsize=128)
def _table(body, sizes: tuple[int, ...], gamma) -> tuple:
    """body on `sizes` variables as one coefficient matrix over its distinct monomials: per degree, the
    monomials (degree x m); the matrix in float64 (outputs x m); its nonzero entries row by row, by value
    within a row: their columns, the start of each run of one value and that value (a Python number), and
    each nonzero row's first run and that row; and the float limit: the largest t with every output's sum
    of |c| * t^degree below 2^53 (-1 if a coefficient is not an integer), so under 2^ceil(53/the highest degree)."""
    count = itertools.count()
    leaves = [_lift(v) for v in body(*(tuple(_Poly({(next(count),): 1}) for _ in range(n)) for n in sizes), gamma)]
    monomials = sorted({m for leaf in leaves for m in leaf}, key=lambda m: (len(m), m))
    column = {m: j for j, m in enumerate(monomials)}
    outs, coefs, cols = zip(*sorted((k, c, column[m]) for k, leaf in enumerate(leaves) for m, c in leaf.items()))
    top = len(monomials[-1])
    sums = {tuple(sum(abs(c) for m, c in leaf.items() if len(m) == d) for d in range(top + 1)) for leaf in leaves}
    below = lambda t: all(sum(s * t**d for d, s in enumerate(out)) < 2**53 for out in sums)
    low, high = (0, 2**-(-53 // top)) if all(c.denominator == 1 for c in coefs) else (-1, 0)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if below(mid) else (low, mid)
    dense = np.zeros((len(leaves), len(monomials)))
    dense[outs, cols] = coefs
    runs = [k for k in range(len(outs)) if k == 0 or (outs[k], coefs[k]) != (outs[k - 1], coefs[k - 1])]
    rows = [k for k in range(len(runs)) if k == 0 or outs[runs[k]] != outs[runs[k - 1]]]
    coefs = np.array([int(coefs[k]) if coefs[k].denominator == 1 else coefs[k] for k in runs], dtype=object)
    monomials = [np.array(list(group)).T for _, group in itertools.groupby(monomials, key=len)]
    return monomials, dense, (np.array(cols), np.array(runs), coefs, np.array(rows), np.array(outs)[runs][rows]), low


def _tabulated(body):
    """`body` (kept as `__wrapped__`) from `_table`, into one array of rows: (outputs, k) for (n, k) arrays,
    a tuple for Python numbers.  Both tiers form each distinct monomial once.  int64 arrays and tuples of
    Python ints within the float limit take float64 and one matmul by the matrix, exact as every value formed
    is an integer below 2^53; everything else takes object arrays of Python numbers, where each output row
    sums its coefficients times the sums of their monomials, exact at any size."""

    @functools.wraps(body)
    def form(*args):
        *args, gamma = args
        monomials, dense, (cols, runs, coefs, rows, outs), limit = _table(body, tuple(map(len, args)), gamma)
        scalar = not isinstance(args[0][0], np.ndarray)
        if scalar:  # decided on the ints themselves: NumPy makes float64 of mixed signs past 2^63
            x = [v for a in args for v in a]
            fits = set(map(type, x)) == {int} and max(map(abs, x)) <= limit
        else:
            x = np.concatenate(args)
            fits = x.dtype == np.int64 and -limit <= x.min(initial=0) and x.max(initial=0) <= limit
        x = np.asarray(x, dtype=float if fits else object)
        # one work array, the monomials then one gathered row, and no other allocation that grows with the batch:
        # blocks freed together at the top of the heap are returned to the system and faulted back in next call
        n = dense.shape[1]
        work = np.empty((n + max(m.shape[1] for m in monomials), *x.shape[1:]), dtype=x.dtype)
        mono, row, start = work[:n], work[n:], 0
        for m in monomials:
            out = x.take(m[0], axis=0, out=mono[start:start + m.shape[1]], mode="clip")
            for i in m[1:]:
                np.multiply(out, x.take(i, axis=0, out=row[:len(i)], mode="clip"), out=out)
            start += m.shape[1]
        if fits:
            out = (dense @ mono).astype(np.int64)
        else:
            out = np.zeros((len(dense), *x.shape[1:]), dtype=object)
            sums = coefs.reshape(-1, *(1,) * (x.ndim - 1)) * np.add.reduceat(mono[cols], runs)
            out[outs] = np.add.reduceat(sums, rows)
        return tuple(out.tolist()) if scalar else out

    return form


def _parts(flat):
    return flat[0:6], flat[6:12], flat[12:18]


def _l_add(*terms):
    return tuple(map(sum, zip(*terms)))


def _k_scale(k, a):
    """k*a for k in K (two coordinates) and a in L (six) or the algebra (18; k is central): pair by pair."""
    return sum((_k_mul_coords(k[0], k[1], a[i], a[i + 1]) for i in range(0, len(a), 2)), ())


@_tabulated
def a_mul_coords(x, y, gamma) -> tuple:
    """The product: (E^i a)(E^j b) = E^(i+j) sigma^j(a) b, folding E^3 = gamma."""
    x, y = _parts(x), _parts(y)
    sig1 = [l_sigma_coords(v) for v in x]
    sigma = (x, sig1, [l_sigma_coords(v) for v in sig1])
    out = ()
    for k in range(3):
        # the terms with i + j = k, then those with i + j = k + 3 (j > k)
        terms = [l_mul_coords(sigma[j][(k - j) % 3], y[j]) for j in range(3)]
        part = _l_add(*terms[:k + 1])
        if k < 2:
            part = _l_add(part, _k_scale(gamma, _l_add(*terms[k + 1:])))
        out += part
    return out


@_tabulated
def a_embed_coords(x, gamma) -> tuple:
    """The entries of `matrix_embed` row by row, six coordinates each: (r, c) is
    sigma^c(x_t), t = (r - c) mod 3, times gamma above the diagonal (folding E^3)."""
    sig = [_parts(x)]
    for _ in range(2):
        sig.append([l_sigma_coords(v) for v in sig[-1]])
    entry = lambda r, c: _k_scale(gamma, sig[c][(r - c) % 3]) if r < c else sig[c][(r - c) % 3]
    return tuple(v for r in range(3) for c in range(3) for v in entry(r, c))


@_tabulated
def a_involution_coords(x, gamma) -> tuple:
    """The involution, with 1/gamma written as conj(gamma) (valid when z = 1)."""
    g = (gamma[0] - gamma[1], -gamma[1])
    c0, c1, c2 = (l_conj_coords(v) for v in _parts(x))
    return c0 + _k_scale(g, l_sigma_coords(c2)) + _k_scale(g, l_sigma_coords(l_sigma_coords(c1)))


@_tabulated
def a_unit_embed_coords(x, gamma) -> tuple:
    """x * involution(x) (18 coordinates, [1, 0, ...] exactly when x is unitary), then the 54 entries of
    `matrix_embed(x)`: one table traced from the product, involution and embedding bodies."""
    mul, star, embed = (f.__wrapped__ for f in (a_mul_coords, a_involution_coords, a_embed_coords))
    return mul(x, star(x, gamma), gamma) + embed(x, gamma)


@_tabulated
def a_commutator_coords(x, gamma) -> tuple:
    """x * involution(x) - involution(x) * x: one table traced from the involution and product bodies, zero
    exactly when x commutes with its involution."""
    mul, star = (f.__wrapped__ for f in (a_mul_coords, a_involution_coords))
    v = star(x, gamma)
    return tuple(p - q for p, q in zip(mul(x, v, gamma), mul(v, x, gamma)))


def _char_ts(a, b, c, gamma) -> tuple:
    """t = Tr(a) and s = Tr(a*sigma(a)) - gamma*Tr(b*sigma(c)) of chi for x = a + E*b + E^2*c: four coordinates."""
    s0 = l_trace_coords(l_mul_coords(a, l_sigma_coords(a)))
    s1 = _k_mul_coords(*gamma, *l_trace_coords(l_mul_coords(b, l_sigma_coords(c))))
    return l_trace_coords(a) + (s0[0] - s1[0], s0[1] - s1[1])


@_tabulated
def a_char_coords(x, gamma) -> tuple:
    """t, s and Nrd(x) of chi(X) = X^3 - t*X^2 + s*X - Nrd(x), each as two K coordinates.

    With N and Tr the norm and trace of L/K (Sethuraman, Rajan and
    Shashidhar, IEEE Trans. IT 49(10), 2003) they are

        t = Tr(x0),  s = Tr(x0*sigma(x0)) - gamma*Tr(x1*sigma(x2)),
        Nrd(x) = N(x0) + gamma*N(x1) + gamma^2*N(x2)
                 - gamma*Tr(x0*sigma(x1)*sigma^2(x2)).
    """
    a, b, c = _parts(x)
    cross = l_mul_coords(l_mul_coords(a, l_sigma_coords(b)), l_sigma_coords(l_sigma_coords(c)))
    n0, n1, n2 = (l_norm_coords(v) for v in (a, b, c))
    tr = l_trace_coords(cross)
    g_n2 = _k_mul_coords(*gamma, *n2)
    inner = _k_mul_coords(*gamma, n1[0] + g_n2[0] - tr[0], n1[1] + g_n2[1] - tr[1])
    return _char_ts(a, b, c, gamma) + (n0[0] + inner[0], n0[1] + inner[1])


@_tabulated
def a_adjugate_coords(x, gamma) -> tuple:
    """The reduced adjugate x^# = x^2 - t*x + s, with t and s those of chi (traced without its norm terms): by
    Cayley-Hamilton x * x^# = x^# * x = Nrd(x), so x^(-1) = x^#/Nrd(x) whenever Nrd(x) != 0."""
    t0, t1, s0, s1 = _char_ts(*_parts(x), gamma)
    return _l_add(a_mul_coords.__wrapped__(x, x, gamma), _k_scale((-t0, -t1), x), (s0, s1) + (0,) * 16)


@_tabulated
def a_unit_parts_coords(u, w, gamma) -> tuple:
    """u * involution(w) (18 coordinates), then the K part of u * w (two): for w = u^#, that is Nrd(u)."""
    mul, star = (f.__wrapped__ for f in (a_mul_coords, a_involution_coords))
    return mul(u, star(w, gamma), gamma) + mul(u, w, gamma)[:2]


@_tabulated
def a_k_scale_coords(p, n, gamma) -> tuple:
    """n * p for p in the algebra and n in K (18 coordinates), then N(n) = n * conj(n), in Q; gamma is unused."""
    return _k_scale(n, p) + (n[0] * n[0] - n[0] * n[1] + n[1] * n[1],)
