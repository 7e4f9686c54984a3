"""Unitary families from commutative subfields, and their diversity.

A commutative subfield M = K[g] of the algebra that is stable under the
involution turns every nonzero u in M into a unitary element
x = u * involution(u)^(-1) (the quotient construction behind norm-1
elements of cyclic extensions).  Enumerating u over a rational coordinate
box and deduplicating yields reproducible codebooks of certified unitary
3x3 matrices; since the algebra is division, pairwise differences have
nonzero determinant and the family is fully diverse.

Units are built in one place, `_hilbert90_batch`, from candidates scaled
to integer coordinates (x does not change) on int64 or object arrays;
`generate_codebook` runs it on chunks and `hilbert90_unit` on a batch of
one.  It and `first_non_unitary`, which decides x * involution(x) = 1 in
one array pass, evaluate the algebra's closed forms from their monomial
tables, a few array operations per form, each form returning one
(outputs, k) array of rows that the next takes whole, in int64 when
`algebra._peak`, the same tables evaluated on sizes, bounds every value,
and on the tables' exact float64 tier wherever the values lie within a
table's float limit (object arrays otherwise).
`numeric_embeddings` is the one float evaluation of the embedding: every
numeric matrix (codebooks, `embed`, `verify`, the diversity screen) comes
from it, bit-identical to `LElem.to_complex`, its integer entries on the
float tier and divided in float64 when below 2^53.  `generate_codebook` dedupes
units on the AlgElem itself; `algebra._expand3`, the one 3x3 cofactor
expansion, runs on these floats and on the generator table's integers.

Stability under the involution is one commute check: in a division
algebra of prime degree 3, any g outside the center K generates a maximal
subfield K[g], its own centralizer by the double centralizer theorem, so
involution(g) lies in K[g] exactly when it commutes with g.

The division property is certified by `division_certificate`: gamma is a
unit of Z[zeta3] that is not a local norm at the prime 2 - zeta3 above 7,
where L/K is totally and tamely ramified, so it is not a norm from L;
`min_det_report` requires it.  The bounded exhaustive search
`norm_witness_search` stays as a cross-check on the strata of `box_chunks`,
the one box walk (`subfield_candidates` reads it too): with the L norm split
over two coordinate halves, each block of a stratum is one matrix product,
exact under a pinned bound (`_NORM_MASS`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .algebra import (
    AlgElem,
    InversionError,
    STANDARD_ALGEBRA,
    _dtype,
    _expand3,
    _table,
    a_embed_coords,
    a_involution_coords,
    a_mul_coords,
    a_quotient_coords,
    char_poly_rational,
    involution,
    reduced_norm,
)
from .fields import (
    KElem, LElem, THETA, THETA_EMBEDDINGS, ZETA3_COMPLEX, l_norm_coords, minimal_polynomial_coeffs
)
from .polynomials import Polynomial, discriminant_cubic, has_rational_root
from .rationals import as_rat, clear_denominators, factor_small_int


@dataclass(frozen=True, slots=True)
class Box:
    """Coordinate box: canonical numerators in [-B, B], denominators in [1, D]."""

    numerator_bound: int
    denominator_bound: int

    def __post_init__(self):
        if self.numerator_bound < 1 or self.denominator_bound < 1:
            raise ValueError("box bounds must be at least 1")

    def values(self) -> list[Fraction]:
        """Allowed coordinate values, smallest height first, then by magnitude."""
        b, d = self.numerator_bound, self.denominator_bound
        vals = {Fraction(p, q) for q in range(1, d + 1) for p in range(-b, b + 1)}
        return sorted(vals, key=lambda f: (_height(f), abs(f), f < 0))

    @property
    def scale(self) -> int:
        """Q = lcm(1..D), the least positive integer taking every value to an integer."""
        return math.lcm(*range(1, self.denominator_bound + 1))


def _height(f: Fraction) -> int:
    if f == 0:
        return 0
    return max(abs(f.numerator), f.denominator)


def _strata(box: Box, dtype, arity: int, chunk: Optional[int] = None) -> Iterator[tuple[list, np.ndarray]]:
    """Per height H, lowest first, the `arity`-tuples of the box's coordinates of height <= H (times `box.scale`,
    in `Box.values` order) in chunks (default: whole strata), tuple number k holding value number k // n**i % n
    at coordinate i, as one array per coordinate and whether each tuple has a coordinate at height H."""
    values = box.values()
    heights = np.array([_height(v) for v in values])
    coords = np.array([int(v * box.scale) for v in values], dtype=dtype)
    for h in sorted(set(heights.tolist()) - {0}):
        n, top = np.count_nonzero(heights <= h), heights == h
        for start in range(0, n**arity, chunk or n**arity):
            k = np.arange(start, min(start + (chunk or n**arity), n**arity))
            digits = [k // n**i % n for i in range(arity)]
            yield [coords[d] for d in digits], np.logical_or.reduce([top[d] for d in digits])


def box_chunks(box: Box, chunk: int, dtype) -> Iterator[list[np.ndarray]]:
    """All nonzero six-tuples over the box, times `box.scale`, as six integer arrays per chunk.

    Tuples of height H come out before any of height H+1; within a stratum
    the order is lexicographic with the first coordinate varying fastest.
    A chunk holds the height-H tuples among up to `chunk` consecutive ones
    of the stratum's product; it is never empty.
    """
    for cols, keep in _strata(box, dtype, 6, chunk):
        if keep.any():
            yield [c[keep] for c in cols]


@dataclass(frozen=True, slots=True)
class SubfieldSpec:
    """A commutative, involution-stable cubic subfield K[g] of the algebra.

    Elements are c0 + c1*g + c2*g^2 with K coefficients; enumeration runs
    over the six rational parts of (c0, c1, c2).

    The checks, in order: g lies outside K; gamma has a
    `division_certificate`, without which K[g] need not be a field (for
    gamma = 1, (1 - E)(1 + E + E^2) = 0); g commutes with involution(g),
    which under the certificate (double centralizer) puts involution(g)
    in K[g], so the involution maps K[g] onto itself.

    The rows of `matrix` are q times 1, zeta3, g, zeta3*g, g^2 and
    zeta3*g^2, q their least common denominator (so matrix[0][0] = q), and
    a coordinate row c gives c @ matrix = q * element(c).  It is computed
    when read (one product), so a spec holds no more than its generator.
    """

    kind: str
    k: Optional[int]
    generator: AlgElem
    label: str

    def __post_init__(self):
        g = self.generator
        if g.is_in_k():
            raise ValueError("generator must lie outside the center K")
        if division_certificate(g.spec.gamma) is None:
            raise ValueError(f"subfield {self.label} needs a division certificate for gamma = {g.spec.gamma}")
        ag = involution(g)
        if g * ag != ag * g:
            raise ValueError(f"subfield {self.label} is not stable under the involution")

    @property
    def matrix(self) -> list[list[int]]:
        g = self.generator
        rows = [b.integral() for b in (g.spec.one(), g, g * g)]
        q = math.lcm(*(d for _, d in rows))
        rows = [[v * (q // d) for v in r] for r, d in rows]
        # zeta3*(a0 + a1*zeta3) = -a1 + (a0 - a1)*zeta3 on each K coordinate pair, a unimodular integer map
        return [row for r in rows for row in (r, [w for a0, a1 in zip(r[::2], r[1::2]) for w in (-a1, a0 - a1)])]

    def element(self, coords: Sequence[Fraction]) -> AlgElem:
        c, p = clear_denominators(as_rat(v) for v in coords)
        if len(c) != 6:
            raise ValueError("expected six rational coordinates")
        m = self.matrix
        num = [sum(a * b for a, b in zip(c, col)) for col in zip(*m)]
        return AlgElem.from_integral(self.generator.spec, num, m[0][0] * p)


def nu_generator(k: int) -> AlgElem:
    """The involution-fixed generator k*theta + (1+zeta3)*E - E^2."""
    return STANDARD_ALGEBRA.element(LElem(0, k, 0), LElem(KElem(1, 1)), LElem(KElem(-1)))


def subfield(kind: str, k: Optional[int] = None) -> SubfieldSpec:
    """Build one of the named subfields of the standard algebra: "zeta9", "nu" (with k), or "L"."""
    if kind == "zeta9":
        return SubfieldSpec("zeta9", None, STANDARD_ALGEBRA.gen(), "Q(zeta9)")
    if kind == "nu":
        if k is None or k < 1:
            raise ValueError("the nu subfield needs a positive integer k")
        return SubfieldSpec("nu", k, nu_generator(k), f"K(nu_{k})")
    if kind == "L":
        return SubfieldSpec("L", None, STANDARD_ALGEBRA.from_l(THETA), "L")
    raise ValueError(f"unknown subfield kind {kind!r}")


# Candidates per array pass of generate_codebook.
_UNIT_CHUNK = 32


def _hilbert90_coords(u, gamma):
    """The rows u*v, v*u, X (18 coordinates each) and d with u * v^(-1) = X/d, v = involution(u):
    a (55, k) array for an (18, k) array u, a tuple for Python numbers."""
    v = a_involution_coords(u, gamma)
    p = a_mul_coords(u, v, gamma)
    rows = (p, a_mul_coords(v, u, gamma), a_quotient_coords(u, v, p, gamma))
    return np.concatenate(rows) if isinstance(p, np.ndarray) else sum(rows, ())


def _hilbert90_batch(u: np.ndarray, gamma) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The commute mask, X (18 x k) and d for the columns u of an 18 x k integer array
    (any candidate scaled to integers: its rational multiples give the same X/d)."""
    c = _hilbert90_coords(u, gamma)
    return (c[:18] == c[18:36]).all(axis=0), c[36:54], c[54]


def _unit_norm_coords(x, gamma):
    """x * involution(x), 18 coordinates."""
    return a_mul_coords(x, a_involution_coords(x, gamma), gamma)


def first_non_unitary(elements: Sequence[AlgElem]) -> Optional[int]:
    """The least index i with x_i * involution(x_i) != 1, or None.

    With x = X/q, X integral, X * involution(X) = q^2 is decided for all
    elements in one pass on integer arrays (the product's bound covers q^2).
    """
    if not elements:
        return None
    spec = elements[0].spec
    if any(x.spec != spec for x in elements):
        raise ValueError("elements live in algebras with different gamma")
    spec.require_involution()
    gamma = spec.gamma_coords
    nums, dens = zip(*(x.integral() for x in elements))
    top = max(*dens, *(abs(v) for num in nums for v in num))
    dtype = _dtype(_unit_norm_coords, (2 ** top.bit_length(),) * 18, gamma)
    q = np.array(dens, dtype=dtype)
    prod = _unit_norm_coords(np.array(nums, dtype=dtype).T, gamma)
    bad = np.flatnonzero((prod[0] != q * q) | prod[1:].any(axis=0))
    return int(bad[0]) if len(bad) else None


def _unit_matrices(units: Sequence[AlgElem]) -> np.ndarray:
    """The `numeric_embeddings` M of units checked exactly (x * involution(x) = 1);
    max|M M^dagger - I| > 1e-10 would be an embedding bug."""
    assert first_non_unitary(units) is None, "unit postcondition failed"
    m = numeric_embeddings(units)[0]
    defect = np.max(np.abs(m @ m.conj().swapaxes(1, 2) - np.eye(3)), initial=0.0)
    assert defect <= 1e-10, f"numeric unitarity defect {defect}"
    return m


class PreconditionError(ValueError):
    """u does not commute with involution(u), so u * involution(u)^(-1) need not be unitary."""


def hilbert90_unit(u: AlgElem) -> AlgElem:
    """The unitary element u * involution(u)^(-1): `_hilbert90_batch` on a batch of one.

    Requires u nonzero and u commuting with involution(u); a failed commute
    check raises PreconditionError (a ValueError), while the algebra's
    InvolutionUnavailable passes through.  The exact postcondition
    x * involution(x) = 1 is asserted.
    """
    if u.is_zero():
        raise ValueError("u must be nonzero")
    u.spec.require_involution()
    commute, x, d = _hilbert90_batch(np.array(u.integral()[0], dtype=object)[:, None], u.spec.gamma_coords)
    if not commute[0]:
        raise PreconditionError("precondition failed: u does not commute with involution(u)")
    if d[0] == 0:
        raise InversionError("nonzero element with zero reduced norm; gamma does not give a division algebra")
    unit = AlgElem.from_integral(u.spec, x[:, 0].tolist(), d[0])
    _unit_matrices([unit])
    return unit


def numeric_embeddings(elements: Sequence[AlgElem]) -> tuple[np.ndarray, np.ndarray]:
    """Float matrices F of matrix_embed(x) at embedding 0, shape (n, 3, 3), and W.

    F is `LElem.to_complex(0)` of each entry bit for bit: `a_embed_coords`'s
    integers divided correctly rounded, in that method's operation order.
    Coordinates take int64 where `_peak` bounds the embedding, so within
    the table's float limit its float tier, and object arrays otherwise;
    entries and denominators below 2^53 are divided in float64, the rest
    in Python (OverflowError past float range).
    W, which bounds the error in `min_det_report`, sums (|a_m| + |b_m|)|theta|^m
    over the float a_m + b_m*zeta3.
    """
    pairs = [x.integral() for x in elements]
    gammas = [x.spec.gamma_coords for x in elements]
    c = np.empty((54, len(elements)))
    for gamma in set(gammas):
        cols = [i for i, g in enumerate(gammas) if g == gamma]
        nums, dens = zip(*(pairs[i] for i in cols))
        top = max(abs(v) for num in nums for v in num)
        dtype = _dtype(a_embed_coords, (2 ** top.bit_length(),) * 18, gamma)
        entries = a_embed_coords(np.array(nums, dtype=dtype).T, gamma)
        dtype = float if max(abs(entries).max(), *dens) < 2**53 else object  # both divide correctly rounded
        c[:, cols] = entries.astype(dtype) / np.array(dens, dtype=dtype)
    c = c.T.reshape(-1, 3, 3, 6).copy()
    t, z = THETA_EMBEDDINGS[0], ZETA3_COMPLEX
    mul = lambda ar, ai, br, bi: (ar * br - ai * bi, ar * bi + ai * br)  # CPython's complex product
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan as CPython makes them, silently
        # KElem.to_complex: complex(a) + complex(b) * zeta3, for the coefficients of 1, t and t*t
        zb = [mul(c[..., m + 1], 0.0, z.real, z.imag) for m in (0, 2, 4)]
        k = [(c[..., m] + re, 0.0 + im) for m, (re, im) in zip((0, 2, 4), zb)]
        # LElem.to_complex: k0 + k1 * t + k2 * (t * t)
        p1, p2 = mul(*k[1], t, 0.0), mul(*k[2], t * t, 0.0)
        values = np.stack([k[0][0] + p1[0] + p2[0], k[0][1] + p1[1] + p2[1]], axis=-1).view(complex)[..., 0]
        a = np.abs(c)
        sizes = a[..., 0] + a[..., 1] + (a[..., 2] + a[..., 3]) * abs(t) + (a[..., 4] + a[..., 5]) * (t * t)
    return values, sizes


@dataclass(eq=False, slots=True)
class Codebook:
    """An ordered family of certified unitary elements; `matrices` holds their `numeric_embeddings`."""

    subfield_spec: SubfieldSpec
    box: Box
    requested: int
    elements: list[AlgElem]
    matrices: np.ndarray
    complete: bool
    precondition_failures: int
    candidates_scanned: int

    def __len__(self):
        return len(self.elements)


def subfield_candidates(sub: SubfieldSpec, box: Box) -> Iterator[np.ndarray]:
    """The candidates in `box_chunks` order, as 18 x k integer arrays, k <= _UNIT_CHUNK.

    The tuple c becomes the column (Q*c) @ sub.matrix, a positive integer
    multiple of the element c, Q = `box.scale`.  The dtype is int64 if
    `_hilbert90_coords` stays within it, object otherwise.
    """
    m = sub.matrix
    sizes = tuple(box.numerator_bound * box.scale * sum(map(abs, col)) for col in zip(*m))
    basis = np.array(m, dtype=_dtype(_hilbert90_coords, sizes, sub.generator.spec.gamma_coords)).T
    for chunk in box_chunks(box, _UNIT_CHUNK, basis.dtype):
        yield basis @ np.array(chunk)


def generate_codebook(sub: SubfieldSpec, box: Box, size: int) -> Codebook:
    """The first `size` distinct units u * involution(u)^(-1) over the box.

    `_hilbert90_batch` runs on the integer chunks of `subfield_candidates`
    (int64 or object dtype, as their magnitude bound allows).  A walk over
    each chunk keeps the enumeration order: candidates failing the commute
    check are counted in `precondition_failures`, each unit X/d becomes an
    AlgElem (in lowest terms, so equal units are equal keys) deduplicated on
    itself, and the walk stops at the candidate completing `size` units,
    checked exactly in one batch (x * involution(x) = 1) and rendered.  If
    the box runs out first, the codebook is returned with complete=False.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    spec = sub.generator.spec
    seen: dict[AlgElem, None] = {}
    failures = scanned = 0
    for u in subfield_candidates(sub, box):
        commute, x, d = _hilbert90_batch(u, spec.gamma_coords)
        for ok, num, den in zip(commute.tolist(), x.T.tolist(), d.tolist()):
            scanned += 1
            if not ok:
                failures += 1
                continue
            seen[AlgElem.from_integral(spec, num, den)] = None
            if len(seen) == size:
                break
        if len(seen) == size:
            break
    elements = list(seen)
    return Codebook(
        subfield_spec=sub,
        box=box,
        requested=size,
        elements=elements,
        matrices=_unit_matrices(elements),
        complete=len(elements) == size,
        precondition_failures=failures,
        candidates_scanned=scanned,
    )


@dataclass(frozen=True)
class DiversityReport:
    """Minimum-determinant summary of a unitary family."""

    zeta: float
    pair: tuple[int, int]
    min_abs_det: float
    exact_nonzero: bool


@dataclass(frozen=True)
class DivisionCertificate:
    """Why the cyclic algebra (L/K, sigma, gamma) is a division algebra.

    pi is a prime of K with residue field F_p, over which L/K is totally and
    tamely ramified.  gamma is a unit whose residue mod pi is not a cube in
    F_p^*, so by the tame norm-residue criterion gamma is not a local norm
    at pi, hence not a norm from L; as [L:K] = 3 is prime, that makes the
    algebra division.
    """

    gamma: KElem
    prime: KElem
    p: int
    gamma_residue: int
    cubes: frozenset[int]


# The prime of K above 7, the only prime that ramifies in L/K.
_PI = KElem(2, -1)


@functools.cache
def division_certificate(gamma: KElem) -> Optional[DivisionCertificate]:
    """A certificate that (L/K, sigma, gamma) is division, or None if inconclusive.

    Every fact is computed here rather than assumed:
      - p = N(pi) = N(2 - zeta3) is a prime with p = 1 mod 3, so pi has
        residue field F_p and the ramification index 3 is prime to p (tame);
      - zeta3 has one residue z mod pi, a root of X^2 + X + 1 with pi(z) = 0;
      - theta's minimal polynomial f is (X - t)^3 mod p, and (f - (X-t)^3)/p
        does not vanish at t mod p, so by Dedekind's criterion p is totally
        ramified in Q(theta); as K_pi = Q_p, L/K is totally ramified at pi;
      - gamma is a unit of Z[zeta3] and its residue a0 + a1*z mod p is not
        a cube in F_p^*.
    None means only that this criterion does not apply (gamma = 1, -1, 2,
    ...), not that the algebra is split.
    """
    p = int(_PI.norm_q())
    if factor_small_int(p) != [(p, 1)] or p % 3 != 1:
        return None
    a0, a1 = int(_PI.a0), int(_PI.a1)
    zs = [z for z in range(p) if (z * z + z + 1) % p == 0 and (a0 + a1 * z) % p == 0]
    f = Polynomial(minimal_polynomial_coeffs())
    ts = [t for t in range(p) if f(t) % p == 0]
    if len(zs) != 1 or len(ts) != 1:
        return None
    z, t = zs[0], ts[0]
    linear = Polynomial([-t, 1])
    rest = f - linear * linear * linear
    if any(c % p for c in rest.coeffs) or (rest(t) / p) % p == 0:
        return None
    if gamma.a0.denominator != 1 or gamma.a1.denominator != 1 or gamma.norm_q() != 1:
        return None
    residue = int(gamma.a0 + gamma.a1 * z) % p
    cubes = frozenset(pow(c, 3, p) for c in range(1, p))
    if residue in cubes:
        return None
    return DivisionCertificate(gamma, _PI, p, residue, cubes)


# Pairs per array pass of the numeric minimum; bounds its working memory.
_PAIR_CHUNK = 1 << 14
# Per-pair rounding bound factor, in units of per(T); see min_det_report.
_DET_ERROR = 512 * 2.0**-53


def _numeric_pair_dets(elements: Sequence[AlgElem]) -> tuple[np.ndarray, ...]:
    """Pairs (i, j), i < j, in order, with numeric |det(x_i - x_j)| and its error bound."""
    mats, sizes = numeric_embeddings(elements)
    left, right = np.triu_indices(len(elements), 1)
    numeric = np.empty(len(left))
    bound = np.empty(len(left))
    for start in range(0, len(left), _PAIR_CHUNK):
        i, j = left[start:start + _PAIR_CHUNK], right[start:start + _PAIR_CHUNK]
        numeric[start:start + len(i)] = np.abs(_expand3(mats[i] - mats[j], -1))
        bound[start:start + len(i)] = _DET_ERROR * _expand3(sizes[i] + sizes[j], 1)
    return left, right, numeric, bound


def min_det_report(elements: Sequence[AlgElem]) -> DiversityReport:
    """Exact zero/nonzero decision, then the minimum |det| over all pairs.

    gamma must have a `division_certificate` (ValueError otherwise, as in
    `SubfieldSpec`): in a division algebra det(x_i - x_j) = 0 exactly when
    x_i = x_j, so step 1 finds the first zero pair (least i, then least j)
    by hashing the elements, in O(M).

    Step 2 finds the minimum of |det| screened numerically: det(F_i - F_j)
    is expanded for every pair as one array computation on the F and W of
    `numeric_embeddings`.  Writing u = 2^-53, K_m = |a_m| + |b_m| for an
    exact entry's coordinates a_m + b_m*zeta3 of theta^m (gamma enters
    exactly) and T = W_i + W_j, the numeric |det| n of a pair is within
    b = 512u * per(T) (per: the permanent) of its exact |det| e, and of the
    float `abs(det.to_complex())` that the report uses:
      - with the floats t of theta, fl(t*t) and fl(sqrt(3)/2) relatively
        within 2u, 4u and u (pinned by a test), fl(a_m) + fl(b_m)*zeta3 is
        within 4u * K_m of its value, its products with t and fl(t*t) within
        7u * K_1|theta| and 9u * K_2 theta^2, and the two sums add at most
        2u * sum K_m|theta|^m <= 2u(1 + 10u) W; so each entry is within
        12u * W of its exact value and, with the subtraction F_i - F_j (2u),
        each entry of the difference within 14u * T of the exact one, whose
        modulus is at most (1 + 10u) T;
      - det is multilinear with nonnegative expansion in moduli, so that
        moves it by at most per((1 + 24u) T) - per((1 + 10u) T) < 43u * per(T);
      - the cofactor expansion rounds by at most 11u * per(T), the modulus
        by 2u * per(T), and the float of the exact det differs from e by at
        most 15u * per(T);
    in all under 72u * per(T), so 512u leaves a factor 7 for the rounding
    of T and per(T) themselves.  A pair can hold the minimum only if
    n - b <= min(n' + b') over all pairs, i.e. n lies within the two bounds
    of the numeric minimum; exactly those pairs are recomputed with
    `reduced_norm`.  `min_abs_det`, `pair` (the first minimum in pair
    order) and `zeta` come from these exact values alone, so the report
    equals an exact all-pairs pass.
    """
    if len(elements) < 2:
        raise ValueError("need at least two elements")
    spec = elements[0].spec
    if any(x.spec != spec for x in elements):
        raise ValueError("elements live in algebras with different gamma")
    if division_certificate(spec.gamma) is None:
        raise ValueError(f"min_det_report needs a division certificate for gamma = {spec.gamma}")
    first: dict[AlgElem, int] = {}
    for j, x in enumerate(elements):
        first.setdefault(x, j)
    duplicates = [(first[x], j) for j, x in enumerate(elements) if first[x] != j]
    if duplicates:
        return DiversityReport(zeta=0.0, pair=min(duplicates), min_abs_det=0.0, exact_nonzero=False)

    left, right, numeric, bound = _numeric_pair_dets(elements)
    best: Optional[tuple[float, tuple[int, int]]] = None
    for k in np.flatnonzero(numeric - bound <= np.min(numeric + bound)):
        i, j = int(left[k]), int(right[k])
        mod = abs(reduced_norm(elements[i] - elements[j]).to_complex())
        if best is None or mod < best[0]:
            best = (mod, (i, j))
    assert best is not None
    zeta = 0.5 * best[0] ** (1.0 / 3.0)
    return DiversityReport(zeta=zeta, pair=best[1], min_abs_det=best[0], exact_nonzero=True)


# ---------------------------------------------------------------------------
# Bounded non-norm search, a cross-check of the certificate
# ---------------------------------------------------------------------------


# Every value l_norm_coords forms from integers |a_i| <= m (m >= 1) is at most _NORM_MASS * m^3:
# traced on polynomials, each intermediate has degree at most 3 and |coefficients| summing to at most 150.
# Each output of `_norm_split` has a smaller mass, so it bounds the witness search's products too.
_NORM_MASS = 150
# Tuples per matrix product of the witness search, in whole rows of a stratum; larger ones gain little.
_WITNESS_GRID = 1 << 13
# The 20 monomials of degree <= 3 in three variables, as sorted indices into (v0, v1, v2, 1).
_HALF = list(itertools.combinations_with_replacement(range(4), 3))
# l_norm_coords in the signature that `algebra._table` traces.
_l_norm_form = lambda a, gamma: l_norm_coords(a)


@functools.cache
def _norm_split(dtype) -> np.ndarray:
    """The L norm split over the coordinate halves, from its `_table`: (2, 20, 20) integers c with
    N(a)[o] = sum over p, q of c[o, q, p] * X_p(a0, a1, a2) * X_q(a3, a4, a5), X over `_HALF`."""
    _, _, monomials, dense, _ = _table(_l_norm_form, (6,), ())
    split = np.zeros((2, len(_HALF), len(_HALF)), dtype=np.int64)
    for column, m in zip(dense.T, (m for group in monomials for m in group.T.tolist())):
        p, q = ((*part, 3, 3, 3)[:3] for part in ([v for v in m if v < 3], [v - 3 for v in m if v >= 3]))
        split[:, _HALF.index(q), _HALF.index(p)] = column
    return split.astype(dtype)


def _norm_halves(half: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Monomials X (20, k) of k half-tuples and F = `_norm_split` @ X: F[..., i] @ X[:, j] = N(half i, half j)."""
    mono = np.array([*half, np.ones_like(half[0])])[np.array(_HALF)].prod(axis=1)
    return mono, _norm_split(mono.dtype) @ mono


def norm_witness_search(target: KElem, box: Box) -> Optional[LElem]:
    """Exhaustively search the box for u in L with norm(u) = target.

    Returns the first witness in `box_chunks` order, or None if the whole
    box is exhausted.  A witness for gamma or gamma^2 would contradict
    `division_certificate`, so the search cross-checks it.

    The search is exact integer arithmetic throughout.  With Q =
    `box.scale`, a candidate u = a/Q has integer coordinates a, |a_i| <= m
    = B*Q, and N(u) = N(a)/Q^3, so only targets with Q^3*target in
    Z[zeta3] within _NORM_MASS * m^3 can be hit.  N(a) on a block of rows
    (a3, a4, a5) of a stratum by all its (a0, a1, a2), in the stratum's
    order row by row, is one product of `_norm_halves`, exact in any
    summation order as every value it forms is at most _NORM_MASS * m^3:
    in float64 below 2^53, int64 below 2^63, else on Python integers.  The
    returned witness is confirmed with `LElem.norm_to_k`.
    """
    q = box.scale
    goal, d = clear_denominators((target.a0 * q**3, target.a1 * q**3))
    bound = _NORM_MASS * (box.numerator_bound * q) ** 3
    if d != 1 or max(map(abs, goal)) > bound:
        return None
    for half, top in _strata(box, np.float64 if bound < 2**53 else np.int64 if bound < 2**63 else object, 3):
        mono, folded = _norm_halves(half)
        rows = -(-_WITNESS_GRID // len(top))
        for y in range(0, len(top), rows):
            norm = mono[:, y:y + rows].T @ folded
            hits = np.flatnonzero((norm[0] == goal[0]) & (norm[1] == goal[1]) & (top | top[y:y + rows, None]))
            if len(hits):
                dy, x = divmod(int(hits[0]), len(top))
                u = LElem.from_six_tuple([Fraction(int(c[i]), q) for i in (x, y + dy) for c in half])
                assert u.norm_to_k() == target, "integer norm disagrees with norm_to_k"
                return u
    return None


# ---------------------------------------------------------------------------
# The generator family table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    k: int
    generator: str
    poly: Polynomial
    discriminant: int
    factors: tuple[tuple[int, int], ...]


_COEFF_BOUND = 45
_QUAD_BOUND = 6
_DENOM_BOUND = 9


def reduce_generator_poly(chi: Polynomial) -> Polynomial:
    """Canonical small generator polynomial for the cubic field of chi.

    Searches algebraic integers mu = (a + b*nu + c*nu^2)/d over an integer
    coordinate box (nu a root of chi) and returns the characteristic
    polynomial of the canonical minimum: least trace form T2 = p^2 - 2q,
    then smallest coordinates (|c|, |b|, |a|, d), then positive orientation
    (first nonzero of b, c, a positive).  Deterministic; matches reduced
    generator tables for fields of this size.
    """
    coeffs = [Fraction(c) for c in chi.coeffs]
    if any(c.denominator != 1 for c in coeffs) or len(coeffs) != 4 or coeffs[3] != 1:
        raise ValueError("expected an integral monic cubic")
    r0, q0, p0 = (int(c) for c in coeffs[:3])
    C = np.array(((0, 0, -r0), (1, 0, -q0), (0, 1, -p0)), dtype=object)
    C2 = C @ C
    best = None
    for b in range(-_QUAD_BOUND, _QUAD_BOUND + 1):
        for c in range(-_QUAD_BOUND, _QUAD_BOUND + 1):
            if b == 0 and c == 0:
                continue
            pN, qN, rN = _charpoly3(b * C + c * C2)
            for a in range(-_COEFF_BOUND, _COEFF_BOUND + 1):
                # char poly of N + a*I, N = b*C + c*C^2, is chi_N(X - a)
                p = pN - 3 * a
                q = qN - 2 * a * pN + 3 * a * a
                r = rN - a * qN + a * a * pN - a**3
                for d in range(1, _DENOM_BOUND + 1):
                    if p % d or q % (d * d) or r % (d**3):
                        continue
                    pp, qq, rr = p // d, q // (d * d), r // d**3
                    key = (
                        pp * pp - 2 * qq,
                        (abs(c), abs(b), abs(a), d),
                        _orientation((b, c, a)),
                        (pp, qq, rr),
                    )
                    if best is None or key < best:
                        best = key
    assert best is not None
    pp, qq, rr = best[3]
    return Polynomial([Fraction(rr), Fraction(qq), Fraction(pp), Fraction(1)])


def _orientation(signs: tuple[int, ...]) -> int:
    for s in signs:
        if s > 0:
            return 0
        if s < 0:
            return 1
    return 2


def _charpoly3(m: np.ndarray) -> tuple[int, int, int]:
    """(p, q, r) with X^3 + p*X^2 + q*X + r the characteristic polynomial of a 3x3 integer object array."""
    s = sum(m[i, i] * m[j, j] - m[i, j] * m[j, i] for i, j in ((0, 1), (0, 2), (1, 2)))
    return (-m.trace(), s, -_expand3(m, -1))


def subfield_table_row(k: int) -> TableRow:
    """Reduced minimal polynomial and factored discriminant for K(nu_k)."""
    if not 1 <= k <= 5:
        raise ValueError("k must be between 1 and 5")
    chi = char_poly_rational(nu_generator(k))
    poly = reduce_generator_poly(chi)
    assert has_rational_root(poly) is None, "reduced polynomial must be irreducible"
    disc = discriminant_cubic(poly)
    assert disc.denominator == 1 and disc > 0
    head = "theta" if k == 1 else f"{k}*theta"
    return TableRow(
        k=k,
        generator=f"nu_{k} = {head}+(1+zeta3)*e-e^2",
        poly=poly,
        discriminant=int(disc),
        factors=tuple(factor_small_int(int(disc))),
    )


def subfield_table() -> list[TableRow]:
    return [subfield_table_row(k) for k in range(1, 6)]
