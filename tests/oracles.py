"""Slow exact oracles shared by the tests.

`alg_mul_oracle` is the algebra product as the loop over E-powers that the
18-coordinate closed form replaced, `matrix_embed_oracle` the embedding in
LElem arithmetic, `matl_to_complex` its float rendering entry by entry
(`LElem.to_complex`, which `numeric_embeddings` matches bit for bit),
`inverse_oracle` the inverse from the characteristic polynomial's
coefficients, and `codebook_oracle` over `enumerate_subfield`
the per-candidate Fraction path that `generate_codebook`'s integer arrays
replaced.  `iter_box_tuples` is the reference box order that
`box_chunks` walks on integer arrays, `norm_witness_oracle` the witness
search as `l_norm_coords` on the chunks of `box_chunks`, the body that
one matrix product per stratum replaced, and `pairwise_determinants` the
exact all-pairs determinants that `min_det_report` decides by hashing
under the division certificate.  `subfield_matrix_oracle` is
`SubfieldSpec.matrix` by six `AlgElem.scale` calls, where the matrix maps
each row's K coordinate pairs to the zeta3 row on integers.

`parse_element_oracle` is `cli.parse_element` through Fractions and field
elements (`LElem.from_six_tuple` per part, then `AlgElem`), the path that
reading each coordinate as an integer pair replaced.

`golden_problem_oracle` is the `verify --golden` shape check as a
hand-written table of grid shapes (`_is_grid`), which `cli._golden_problem`
replaced by a walk over the built-in golden value; the tests show both
accept the same overrides.  `matmul3` and `charpoly3_oracle` are the 3x3
tuple arithmetic that `reduce_generator_poly` replaced by object arrays and
`algebra._expand3`.  `fixed_point_conditions` (on `real_imag_parts`) is the
coefficientwise form of involution(x) = x, the criterion-7 oracle that the
tests compare with the definition.

`Magnitude` is the bound arithmetic that `algebra._peak` replaced: one
object per value, carried through the same tables; `magnitude_peak` is its
bound on a formula, the reference for `_peak`.

`solve_k_linear` and `express_in_power_basis` decide membership in a power
basis by Gaussian elimination over K; `SubfieldSpec` decides involution
stability by a commute check instead, and the tests compare the two.  The
`rows_*` helpers are 3x3 matrix arithmetic on `MatL.rows` (tuples of
tuples of LElem), compared with ==.
"""

import math
from fractions import Fraction
from itertools import product
from typing import Iterator, Optional, Sequence

import numpy as np

from unidiv.algebra import STANDARD_ALGEBRA, AlgElem, involution, reduced_char_poly, reduced_norm
from unidiv.cli import _DECIMAL
from unidiv.codebook import _NORM_MASS, box_chunks
from unidiv.fields import K_ONE, K_ZERO, KElem, L_ONE, L_ZERO, LElem, ZETA3, l_norm_coords
from unidiv.rationals import clear_denominators


def _height(f: Fraction) -> int:
    return max(abs(f.numerator), f.denominator) if f else 0


def iter_box_tuples(box) -> Iterator[tuple[Fraction, ...]]:
    """All nonzero six-tuples over the box, stratified by height.

    Tuples of height H come out before any of height H+1; within a stratum
    the order is lexicographic with the first coordinate varying fastest.
    """
    values = box.values()
    for h in sorted({_height(v) for v in values} - {0}):
        allowed = [v for v in values if _height(v) <= h]
        for rev in product(allowed, repeat=6):
            tup = rev[::-1]
            if max(_height(v) for v in tup) == h:
                yield tup


def norm_witness_oracle(target: KElem, box) -> Optional[LElem]:
    """The first u in `box_chunks` order with N(u) = target, or None: N(a) evaluated directly on
    chunks of 2,048 integer tuples, in int64 while _NORM_MASS * m^3 fits and on Python integers beyond."""
    q = box.scale
    goal, d = clear_denominators((target.a0 * q**3, target.a1 * q**3))
    bound = _NORM_MASS * (box.numerator_bound * q) ** 3
    if d != 1 or max(map(abs, goal)) > bound:
        return None
    for a in box_chunks(box, 1 << 11, np.int64 if bound < 2**63 else object):
        norm = l_norm_coords(a)
        hits = np.flatnonzero((norm[0] == goal[0]) & (norm[1] == goal[1]))
        if len(hits):
            return LElem.from_six_tuple([Fraction(int(c[hits[0]]), q) for c in a])
    return None


def parse_element_oracle(data) -> AlgElem:
    """`cli.parse_element` as it was: per-key checks, then six `as_rat` coordinates per LElem."""
    if not isinstance(data, dict):
        raise TypeError("element record is not a JSON object")
    parts = []
    for key in ("x0", "x1", "x2"):
        if key not in data:
            raise ValueError(f"element record is missing {key!r}")
        if not isinstance(data[key], list):
            raise TypeError(f"{key!r} is not a list of coordinates")
        parts.append(LElem.from_six_tuple(data[key]))
    return AlgElem(STANDARD_ALGEBRA, *parts)


def _is_grid(value, shape: tuple[int, ...], leaf) -> bool:
    """True if value is nested lists of the given shape whose leaves satisfy leaf."""
    if not shape:
        return leaf(value)
    return (
        isinstance(value, list)
        and len(value) == shape[0]
        and all(_is_grid(v, shape[1:], leaf) for v in value)
    )


def golden_problem_oracle(loaded) -> Optional[str]:
    """Why a --golden override is malformed, or None if every known key has its shape."""
    if not isinstance(loaded, dict):
        return "top level is not a JSON object"
    text = lambda v: isinstance(v, str)
    decimal = lambda v: isinstance(v, str) and _DECIMAL.fullmatch(v) is not None
    shapes = {
        "matrix": ("a 3x3 grid of strings", lambda v: _is_grid(v, (3, 3), text)),
        "involution": (
            "an object holding x0, x1 and x2 as six strings each",
            lambda v: isinstance(v, dict)
            and sorted(v) == ["x0", "x1", "x2"]
            and all(_is_grid(part, (6,), text) for part in v.values()),
        ),
        "unit_zeta9": ("a list of six strings", lambda v: _is_grid(v, (6,), text)),
        "numeric_transposed": (
            "a 3x3 grid of [re, im] decimal strings",
            lambda v: _is_grid(v, (3, 3, 2), decimal),
        ),
    }
    for key, (shape, ok) in shapes.items():
        if key in loaded and not ok(loaded[key]):
            return f"{key!r} must be {shape}"
    return None


def matmul3(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def charpoly3_oracle(m) -> tuple[int, int, int]:
    """(p, q, r) with X^3 + p*X^2 + q*X + r the characteristic polynomial of 3x3 integer tuples."""
    tr = m[0][0] + m[1][1] + m[2][2]
    s = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    return (-tr, s, -det)


def real_imag_parts(a: LElem) -> tuple[LElem, LElem]:
    """Split a as v + zeta3*w with v, w in the real subfield Q(theta)."""
    v = LElem(*(KElem(c.a0) for c in a.coeffs()))
    w = LElem(*(KElem(c.a1) for c in a.coeffs()))
    return v, w


def fixed_point_conditions(x: AlgElem) -> tuple[bool, bool, bool]:
    """The three coefficientwise conditions equivalent to x = involution(x).

    Writing x_i = v_i + zeta3*w_i with v_i, w_i in the real subfield Q(theta):
    (1) x0 is real, (2) v1 = -sigma(v2), (3) w1 = sigma(w2) + v1.
    """
    v1, w1 = real_imag_parts(x.x1)
    v2, w2 = real_imag_parts(x.x2)
    cond1 = x.x0 == x.x0.conj()
    cond2 = v1 == -(v2.sigma(1))
    cond3 = w1 == w2.sigma(1) + v1
    return (cond1, cond2, cond3)


def alg_mul_oracle(x: AlgElem, y: AlgElem) -> AlgElem:
    """x*y from (E^i a)(E^j b) = E^(i+j) sigma^j(a) b, with E^3 folded into gamma."""
    gamma_l = LElem(x.spec.gamma)
    acc = [L_ZERO, L_ZERO, L_ZERO]
    for i, a in enumerate(x.coords()):
        if a.is_zero():
            continue
        for j, b in enumerate(y.coords()):
            if b.is_zero():
                continue
            term = a.sigma(j) * b
            k = i + j
            if k >= 3:
                k -= 3
                term = term * gamma_l
            acc[k] = acc[k] + term
    return AlgElem(x.spec, *acc)


def inverse_oracle(x: AlgElem) -> AlgElem:
    """-(x^2 + a*x + b)/c, X^3 + a*X^2 + b*X + c = reduced_char_poly(x) (Cayley-Hamilton)."""
    c, b, a = reduced_char_poly(x).coeffs[:3]
    return (x * x + x.scale(a) + x.spec.one().scale(b)).scale(-c.inv())


def pairwise_determinants(elements: Sequence[AlgElem]) -> Iterator[tuple[int, int, KElem]]:
    """Exact determinants of embedded pairwise differences (elements of K)."""
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            yield i, j, reduced_norm(elements[i] - elements[j])


def subfield_matrix_oracle(sub) -> list[list[int]]:
    """q times 1, zeta3, g, zeta3*g, g^2 and zeta3*g^2 as integer rows, q their least common denominator."""
    g = sub.generator
    rows = [b.scale(z).integral() for b in (g.spec.one(), g, g * g) for z in (K_ONE, ZETA3)]
    q = math.lcm(*(d for _, d in rows))
    return [[v * (q // d) for v in r] for r, d in rows]


def matrix_embed_oracle(x: AlgElem) -> list[list[LElem]]:
    """The rows of matrix_embed(x): sigma^c(x_t), t = (r - c) mod 3, times gamma above the diagonal."""
    g = LElem(x.spec.gamma)
    x0, x1, x2 = x.coords()
    return [
        [x0, g * x2.sigma(1), g * x1.sigma(2)],
        [x1, x0.sigma(1), g * x2.sigma(2)],
        [x2, x1.sigma(1), x0.sigma(2)],
    ]


def matl_to_complex(rows, conj_index: int = 0) -> list[list[complex]]:
    """The complex values of 3x3 LElem rows (`MatL.rows` or `matrix_embed_oracle`) at one embedding."""
    return [[v.to_complex(conj_index) for v in row] for row in rows]


def enumerate_subfield(sub, box):
    """The candidates of generate_codebook as AlgElems: c0 + c1*g + c2*g^2 for every
    box tuple (the K coefficients c_i from consecutive pairs), in AlgElem arithmetic."""
    g = sub.generator
    basis = (g.spec.one(), g, g * g)
    for tup in iter_box_tuples(box):
        acc = g.spec.zero()
        for i, b in enumerate(basis):
            acc = acc + b.scale(KElem(tup[2 * i], tup[2 * i + 1]))
        yield acc


def codebook_oracle(stream, size: int) -> tuple[list[AlgElem], int, int]:
    """(elements, candidates scanned, precondition failures) of the first size
    distinct units u * involution(u)^(-1) over a stream of AlgElem candidates."""
    seen: dict[AlgElem, None] = {}
    scanned = failures = 0
    for u in stream:
        scanned += 1
        au = involution(u)
        if u * au != au * u:
            failures += 1
            continue
        seen.setdefault(u * inverse_oracle(au))
        if len(seen) == size:
            break
    return list(seen), scanned, failures


def solve_k_linear(
    rows: Sequence[Sequence[KElem]], rhs: Sequence[KElem]
) -> Optional[list[KElem]]:
    """Solve an m x n linear system over K by exact Gaussian elimination.

    Returns one solution (free variables set to 0) or None if inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if not aug[i][col].is_zero()), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = aug[r][col].inv()
        aug[r] = [v * inv for v in aug[r]]
        for i in range(m):
            if i != r and not aug[i][col].is_zero():
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if not aug[i][n].is_zero():
            return None
    sol = [K_ZERO] * n
    for i, col in enumerate(pivots):
        sol[col] = aug[i][n]
    return sol


def _k_coords(x: AlgElem) -> list[KElem]:
    """The nine K coordinates, L coefficients flattened in order."""
    return [c for part in x.coords() for c in part.coeffs()]


def express_in_power_basis(x: AlgElem, g: AlgElem) -> Optional[tuple[KElem, KElem, KElem]]:
    """Solve x = c0 + c1*g + c2*g^2 with c_i in K; None if x is outside the span."""
    columns = [_k_coords(b) for b in (g.spec.one(), g, g * g)]
    sol = solve_k_linear(list(zip(*columns)), _k_coords(x))
    return None if sol is None else tuple(sol)


IDENTITY_ROWS = tuple(tuple(L_ONE if i == j else L_ZERO for j in range(3)) for i in range(3))


def rows_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def rows_mul(a, b):
    return tuple(
        tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j] for j in range(3))
        for i in range(3)
    )


def rows_conj_transpose(a):
    """Transpose with complex conjugation applied entrywise."""
    return tuple(tuple(a[j][i].conj() for j in range(3)) for i in range(3))


class Magnitude:
    """An upper bound on |value| carried through +, - and * of a formula.

    `peak` also bounds every intermediate value, so a formula evaluated on
    Magnitude(m) inputs bounds every integer that the same formula makes
    from integer inputs of absolute value at most m.
    """

    __slots__ = ("size", "peak")

    def __init__(self, size: int, peak: int = 0):
        self.size = size
        self.peak = max(size, peak)

    def __add__(self, other):
        o = other if isinstance(other, Magnitude) else Magnitude(abs(other))
        return Magnitude(self.size + o.size, max(self.peak, o.peak))

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other):
        o = other if isinstance(other, Magnitude) else Magnitude(abs(other))
        return Magnitude(self.size * o.size, max(self.peak, o.peak))

    __rmul__ = __mul__

    def __neg__(self):
        return self


def magnitude_peak(formula, sizes, gamma) -> int:
    """The Magnitude bound on every integer formula(u, gamma) makes from integers |u_j| <= sizes[j]."""
    return max(v.peak for v in formula([Magnitude(m) for m in sizes], gamma))
