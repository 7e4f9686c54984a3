"""Unitary families from commutative subfields, and their diversity.

A commutative subfield M = K[g] of the algebra that is stable under the
involution turns every nonzero u in M into a unitary element
x = u * involution(u)^(-1) (the quotient construction behind norm-1
elements of cyclic extensions).  Enumerating u over a rational coordinate
box and deduplicating yields reproducible codebooks of certified unitary
3x3 matrices; since the algebra is division, pairwise differences have
nonzero determinant and the family is fully diverse.

Exact work runs on integer columns X_i/d_i (18 x m, int64 or object; X/d need
not be in lowest terms), each closed form one (outputs, m) array of rows per
call, on one of two exact tiers: float64 on int64 inputs within the table's
float limit, Python integers otherwise; AlgElems enter by `_family` alone.
Units are built in one place, `_hilbert90_batch`, from the reduced adjugate
u^# (u * u^# = Nrd(u)) in three calls per chunk and no commute check
(`SubfieldSpec` proved it once), on half the box (`subfield_candidates`
skips -u), whose chunks (`_half_chunk`, per box, dtype and window) and each
generator's basis (`_power_basis`) are built once, when first read, and
kept; a request then forms only its units and keys them by their reduced
integer columns.  One `a_unit_embed_coords` call (`_unit_rows`) checks
units exactly, X * involution(X) = d^2, and gives the entries that
`_embedded`, the one float evaluation of the embedding, divides by d:
every numeric matrix is bit-identical to `LElem.to_complex` of the reduced
element.  `generate_codebook` runs it on the reduced keys of its units,
`hilbert90_unit` on the column that made its unit, `family_report`
(`unidiv diversity`) on the parsed file, `first_non_unitary` on given
elements.  `algebra._expand3`, the one 3x3 cofactor expansion, runs on the
floats and the generator table's integers.

Stability under the involution is one commute check, one call
(`a_commutator_coords`, g * involution(g) - involution(g) * g): in a
division algebra of prime degree 3, any g outside the center K generates
a maximal subfield K[g], its own centralizer by the double centralizer
theorem, so involution(g) lies in K[g] exactly when it commutes with g.

The division property is certified by `division_certificate`: gamma is a
unit of Z[zeta3] that is not a local norm at the prime 2 - zeta3 above 7,
where L/K is totally and tamely ramified, so it is not a norm from L;
`SubfieldSpec` requires it.  `min_det_report` needs no certificate: the
exact recheck of its screened pairs decides zero and nonzero for any gamma.
The bounded exhaustive search `norm_witness_search` stays as a cross-check
on the strata of `box_chunks`, the one box walk (`_window` computes any window
of it from its index): with the L norm split over two coordinate halves and
its two K-coordinates packed into one exact integer key N0 + S*N1,
S = 2*bound + 1 (float64 while m <= 76, else Python integers), each block of
a stratum is one matrix product and one comparison, exact under a pinned
bound (`_NORM_MASS`), and a nonzero goal's first match is its witness.  A
stratum's halves, monomials and packed side are built when a search first
reaches it and kept, never changed, as one entry per (box, stratum) for the
32 used last (a whole Box(3, 2) holds 0.59 MB); hits are confirmed on
integers.
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
    _expand3,
    _table,
    a_adjugate_coords,
    a_char_coords,
    a_commutator_coords,
    a_embed_coords,
    a_k_scale_coords,
    a_unit_embed_coords,
    a_unit_parts_coords,
    char_poly_rational,
)
from .fields import (
    KElem, LElem, THETA_EMBEDDINGS, ZETA3_COMPLEX, l_norm_coords, minimal_polynomial_coeffs
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

    @functools.lru_cache(maxsize=32)  # boxes compare by (B, D), so equal boxes share one tuple
    def values(self) -> tuple[Fraction, ...]:
        """Allowed coordinate values, smallest height first, then by magnitude."""
        b, d = self.numerator_bound, self.denominator_bound
        vals = {Fraction(p, q) for q in range(1, d + 1) for p in range(-b, b + 1)}
        return tuple(sorted(vals, key=lambda f: (_height(f), abs(f), f < 0)))

    @property
    def scale(self) -> int:
        """Q = lcm(1..D), the least positive integer taking every value to an integer."""
        return math.lcm(*range(1, self.denominator_bound + 1))


def _height(f: Fraction) -> int:
    return max(abs(f.numerator), f.denominator) if f else 0


@functools.lru_cache(maxsize=32)  # like Box.values: equal boxes share one entry per dtype
def _box_arrays(box: Box, dtype: np.dtype) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """The box's values times `box.scale`, and per height H > 0, lowest first, the number n of values of height
    <= H (a prefix of `Box.values`) and which have height H, as read-only arrays: built once for every walk."""
    values, scale = box.values(), box.scale
    heights = np.array([_height(v) for v in values])
    levels = sorted(set(heights.tolist()) - {0})
    coords, tops = np.array([int(v * scale) for v in values], dtype=dtype), heights == np.array(levels)[:, None]
    coords.flags.writeable = tops.flags.writeable = False
    return coords, [(int(np.count_nonzero(heights <= h)), top) for h, top in zip(levels, tops)]


def _window(coords: np.ndarray, top: np.ndarray, n: int, arity: int, start: int, stop: int) -> tuple[np.ndarray, ...]:
    """Tuples number start to stop - 1 of the `arity`-tuples over the first n values of `_box_arrays` (a stratum),
    tuple k holding value k // n**i % n at coordinate i, as one (arity, k) array, and which reach its height (`top`)."""
    digits = np.arange(start, stop) // n ** np.arange(arity)[:, None] % n
    return coords.take(digits), top.take(digits).any(axis=0)


def box_chunks(box: Box, chunk: int, dtype) -> Iterator[np.ndarray]:
    """All nonzero six-tuples over the box, times `box.scale`, as one (6, k) integer array per chunk.

    Tuples of height H come out before any of height H+1; within a stratum
    the order is lexicographic with the first coordinate varying fastest.
    A chunk holds the height-H tuples among up to `chunk` consecutive ones
    of the stratum's product (`_window`); it is never empty.
    """
    coords, strata = _box_arrays(box, np.dtype(dtype))
    for n, top in strata:
        for start in range(0, n**6, chunk):
            cols, keep = _window(coords, top, n, 6, start, min(start + chunk, n**6))
            if keep.any():
                yield cols[:, keep]


@dataclass(frozen=True, slots=True)
class SubfieldSpec:
    """A commutative, involution-stable cubic subfield K[g] of the algebra.

    Elements are c0 + c1*g + c2*g^2 with K coefficients; enumeration runs
    over the six rational parts of (c0, c1, c2).

    The checks, in order: g lies outside K; gamma has a
    `division_certificate`, without which K[g] need not be a field (for
    gamma = 1, (1 - E)(1 + E + E^2) = 0); g commutes with involution(g),
    which under the certificate (double centralizer) puts involution(g)
    in K[g], so the involution maps K[g] onto itself.  The commute check is one
    `a_commutator_coords` call: g * involution(g) - involution(g) * g = 0.

    The rows of `matrix` are q times 1, zeta3, g, zeta3*g, g^2 and
    zeta3*g^2, q their least common denominator (so matrix[0][0] = q), and
    a coordinate row c gives c @ matrix = q * element(c).  It is read when
    asked for from `_power_basis`, built once per generator, so a spec holds
    no more than its generator.
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
        u, _, gamma = _family([g])  # g times its denominator: commutes alike
        if a_commutator_coords(u, gamma).any():
            raise ValueError(f"subfield {self.label} is not stable under the involution")

    @property
    def matrix(self) -> list[list[int]]:
        return _power_basis(self.generator)[0].tolist()

    def element(self, coords: Sequence[Fraction]) -> AlgElem:
        c, p = clear_denominators(as_rat(v) for v in coords)
        if len(c) != 6:
            raise ValueError("expected six rational coordinates")
        m = self.matrix
        num = [sum(a * b for a, b in zip(c, col)) for col in zip(*m)]
        return AlgElem.from_integral(self.generator.spec, num, m[0][0] * p)


@functools.lru_cache(maxsize=128)  # keyed by the generator, as division_certificate is by gamma: specs come and go
def _power_basis(g: AlgElem) -> tuple[np.ndarray, int]:
    """`SubfieldSpec.matrix` of the generator g as one read-only `_exact` (6, 18) array, and the largest sum of
    |entries| over one of its columns."""
    rows = [b.integral() for b in (g.spec.one(), g, g * g)]
    q = math.lcm(*(d for _, d in rows))
    rows = [[v * (q // d) for v in r] for r, d in rows]
    # zeta3*(a0 + a1*zeta3) = -a1 + (a0 - a1)*zeta3 on each K coordinate pair, a unimodular integer map
    rows = [row for r in rows for row in (r, [w for a0, a1 in zip(r[::2], r[1::2]) for w in (-a1, a0 - a1)])]
    m = _exact(rows)
    m.flags.writeable = False
    return m, max(sum(map(abs, col)) for col in zip(*rows))


def nu_generator(k: int) -> AlgElem:
    """The involution-fixed generator k*theta + (1+zeta3)*E - E^2."""
    return AlgElem.from_integral(STANDARD_ALGEBRA, (0, 0, k, 0, 0, 0, 1, 1, 0, 0, 0, 0, -1), 1)


def subfield(kind: str, k: Optional[int] = None) -> SubfieldSpec:
    """Build one of the named subfields of the standard algebra: "zeta9", "nu" (with k), or "L"."""
    if kind == "zeta9":
        return SubfieldSpec("zeta9", None, STANDARD_ALGEBRA.gen(), "Q(zeta9)")
    if kind == "nu":
        if k is None or k < 1:
            raise ValueError("the nu subfield needs a positive integer k")
        return SubfieldSpec("nu", k, nu_generator(k), f"K(nu_{k})")
    if kind == "L":
        return SubfieldSpec("L", None, AlgElem.from_integral(STANDARD_ALGEBRA, (0, 0, 1), 1), "L")
    raise ValueError(f"unknown subfield kind {kind!r}")


# Candidates per array pass of generate_codebook.
_UNIT_CHUNK = 32


def _hilbert90_batch(u: np.ndarray, gamma) -> tuple[np.ndarray, np.ndarray]:
    """X (18 x k) and d with u * involution(u)^(-1) = X/d, for the columns u of an 18 x k integer array (any
    candidate scaled to integers: its rational multiples give the same X/d), through the reduced adjugate:
    involution(u)^(-1) = involution(u^#)/conj(n), n = Nrd(u), so X = u * involution(u^#) * n and d = N(n), in
    three calls (`a_adjugate_coords`, `a_unit_parts_coords`, which also gives n, and `a_k_scale_coords`)."""
    r = a_unit_parts_coords(u, a_adjugate_coords(u, gamma), gamma)
    c = a_k_scale_coords(r[:18], r[18:], gamma)
    return c[:18], c[18]


def _unit_rows(x: np.ndarray, d: np.ndarray, gamma) -> tuple[np.ndarray, np.ndarray]:
    """One `a_unit_embed_coords` call on the elements X_i/d_i, columns of an 18 x m integer array over positive d,
    not necessarily in lowest terms: the indices i with X_i * involution(X_i) != d_i^2 (x_i not unitary; d^2 on
    Python integers), and the 54 rows of the embedding's entries, which `_embedded` divides by d."""
    rows, d = a_unit_embed_coords(x, gamma), d.astype(object)
    return np.flatnonzero((rows[0] != d * d) | rows[1:18].any(axis=0)), rows[18:]


def _exact(a) -> np.ndarray:
    """Integers (nested sequences or an object array) as int64 if all fit, else as objects: exact either way."""
    try:
        return np.array(a, dtype=np.int64)
    except OverflowError:
        return np.array(a, dtype=object)


def _columns(integrals: Sequence[tuple[Sequence[int], int]]) -> tuple[np.ndarray, np.ndarray]:
    """Elements given as (18 integers, positive denominator) as columns X_i/d_i: X (18 x m, `_exact`), d object."""
    nums, dens = zip(*integrals)
    return _exact(nums).T, np.array(dens, dtype=object)


def _family(elements: Sequence[AlgElem]) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    """A nonempty family's `_columns` X/d and its gamma's coordinates; ValueError if it spans two algebras."""
    spec = elements[0].spec
    if any(x.spec != spec for x in elements):
        raise ValueError("elements live in algebras with different gamma")
    return *_columns([x.integral() for x in elements]), spec.gamma_coords


def first_non_unitary(elements: Sequence[AlgElem]) -> Optional[int]:
    """The least index i with x_i * involution(x_i) != 1, or None: `_unit_rows` on the `_family` columns."""
    if not elements:
        return None
    x, d, gamma = _family(elements)
    elements[0].spec.require_involution()
    bad = _unit_rows(x, d, gamma)[0]
    return int(bad[0]) if len(bad) else None


def _unit_matrices(x: np.ndarray, d: np.ndarray, gamma) -> np.ndarray:
    """The numeric matrices of the units X_i/d_i, columns of an 18 x m integer array, checked exactly first, both
    from one `_unit_rows` call (AssertionError, under `python -O` too); max|M M^dagger - I| > 1e-10 would be an
    embedding bug."""
    bad, e = _unit_rows(x, d, gamma)
    if len(bad):
        raise AssertionError("unit postcondition failed")
    m = _embedded(e, d)[0]
    defect = np.max(np.abs(m @ m.conj().swapaxes(1, 2) - np.eye(3)), initial=0.0)
    assert defect <= 1e-10, f"numeric unitarity defect {defect}"
    return m


class PreconditionError(ValueError):
    """u does not commute with involution(u), so u * involution(u)^(-1) need not be unitary."""


def hilbert90_unit(u: AlgElem) -> AlgElem:
    """The unitary element u * involution(u)^(-1): `_hilbert90_batch` on the `_family` column of u.

    Requires u nonzero and u commuting with involution(u), which, as u need not come from a `SubfieldSpec`, is
    checked here as there, by one `a_commutator_coords` call: a failure raises PreconditionError (a ValueError),
    after the algebra's InvolutionUnavailable.  `_unit_matrices` checks x * involution(x) = 1 on X/d.
    """
    if u.is_zero():
        raise ValueError("u must be nonzero")
    u.spec.require_involution()
    c, _, gamma = _family([u])
    if a_commutator_coords(c, gamma).any():
        raise PreconditionError("precondition failed: u does not commute with involution(u)")
    x, d = _hilbert90_batch(c, gamma)
    if d[0] == 0:
        raise InversionError("nonzero element with zero reduced norm; gamma does not give a division algebra")
    _unit_matrices(x, d, gamma)
    return AlgElem.from_integral(u.spec, x[:, 0].tolist(), int(d[0]))


def _embedded(e: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F and W of `numeric_embeddings` for the elements X_i/d_i, from the (54, m) entries e of the embedding of X:
    X/d need not be in lowest terms, as entries below 2^53 are divided by d in float64 and the rest on Python
    integers (OverflowError past float range), both correctly rounded, so the floats are the same."""
    dtype = float if max(abs(e).max(initial=0), abs(d).max(initial=0)) < 2**53 else object
    # per entry, in C order: the K coefficients of 1, t and t*t, each as its two coordinates
    c = np.ascontiguousarray((e.astype(dtype) / d.astype(dtype)).T, dtype=float).reshape(-1, 3, 3, 3, 2)
    t, z = THETA_EMBEDDINGS[0], ZETA3_COMPLEX
    mul = lambda ar, ai, br, bi: (ar * br - ai * bi, ar * bi + ai * br)  # CPython's complex product
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan as CPython makes them, silently
        # KElem.to_complex: complex(a) + complex(b) * zeta3, for the three coefficients at once
        re, im = mul(c[..., 1], 0.0, z.real, z.imag)
        k = (c[..., 0] + re, 0.0 + im)
        # LElem.to_complex: k0 + k1 * t + k2 * (t * t)
        p = mul(k[0][..., 1:], k[1][..., 1:], np.array([t, t * t]), 0.0)
        parts = [k[i][..., 0] + p[i][..., 0] + p[i][..., 1] for i in (0, 1)]
        values = np.stack(parts, axis=-1).view(complex)[..., 0]
        s = np.abs(c).sum(axis=-1)
        sizes = s[..., 0] + s[..., 1] * abs(t) + s[..., 2] * (t * t)
    return values, sizes


def numeric_embeddings(elements: Sequence[AlgElem]) -> tuple[np.ndarray, np.ndarray]:
    """Float matrices F of matrix_embed(x) at embedding 0, shape (n, 3, 3), and W, from `_embedded`: F is
    `LElem.to_complex(0)` of each entry bit for bit, and W, which bounds the error in `min_det_report`, sums
    (|a_m| + |b_m|)|theta|^m over the float a_m + b_m*zeta3.  The elements are one `_family`."""
    if not elements:
        return np.empty((0, 3, 3), dtype=complex), np.empty((0, 3, 3))
    x, d, gamma = _family(elements)
    return _embedded(a_embed_coords(x, gamma), d)


@dataclass(eq=False, slots=True)
class Codebook:
    """Distinct certified unitaries in order (each candidate gives one); `matrices`: their `numeric_embeddings`."""

    subfield_spec: SubfieldSpec
    box: Box
    requested: int
    elements: list[AlgElem]
    matrices: np.ndarray
    complete: bool
    candidates_scanned: int

    def __len__(self):
        return len(self.elements)


@functools.lru_cache(maxsize=1024)  # a Box(1, 1) walk reads 24 entries, a Box(1, 2) one 513; each under 2.4 KB
def _half_chunk(box: Box, dtype: np.dtype, n: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Window n of _UNIT_CHUNK tuples of the six-tuple walk (`_window`): its tuples in `box_chunks` (those at the
    stratum's height) whose last nonzero coordinate is positive, and their positions in that walk, as read-only
    arrays; None after the last window.  Nothing before window n is walked: per stratum, the tuples of `box_chunks`
    number size^6 - low^6 (low values lie below its height), and those before a window are counted digit by digit."""
    coords, strata = _box_arrays(box, np.dtype(dtype))
    walked, low = 0, 1  # the tuples of the strata before; the values below the stratum's height (value 0 at first)
    for size, top in strata:
        windows = -(-size**6 // _UNIT_CHUNK)
        if n < windows:
            start = n * _UNIT_CHUNK
            cols, at_top = _window(coords, top, size, 6, start, min(start + _UNIT_CHUNK, size**6))
            cols = cols[:, at_top]
            kept = np.flatnonzero(cols[5 - np.argmax(cols[::-1] != 0, axis=0), np.arange(cols.shape[1])] > 0)
            below = 0  # the tuples before the window with every digit below low
            for i in reversed(range(6)):
                digit = start // size**i % size
                below += min(digit, low) * low**i
                if digit >= low:
                    break
            chunk = cols[:, kept], walked + start - below + kept
            for a in chunk:
                a.flags.writeable = False
            return chunk
        n -= windows
        walked, low = walked + size**6 - low**6, size
    return None


def subfield_candidates(sub: SubfieldSpec, box: Box) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per chunk of `_half_chunk`, read in order and only as far as asked, its candidates and their walk positions.

    The tuple c becomes the column (Q*c) @ sub.matrix, a positive integer
    multiple of the element c, Q = `box.scale`.  The dtype is int64 if the
    bound on every partial sum of that product (`_power_basis`) stays below
    2^63, object otherwise.  Only tuples whose last nonzero coordinate is
    positive are candidates: -c gives the unit of c and is walked after it,
    since `Box.values` puts each v just before -v and the last coordinate is
    the walk's most significant digit.
    """
    rows, mass = _power_basis(sub.generator)
    basis = (rows if box.numerator_bound * box.scale * mass < 2**63 else rows.astype(object)).T
    for n in itertools.count():
        if (chunk := _half_chunk(box, basis.dtype, n)) is None:
            return
        if chunk[1].size:
            yield basis @ chunk[0], chunk[1]


def generate_codebook(sub: SubfieldSpec, box: Box, size: int) -> Codebook:
    """The first `size` distinct units u * involution(u)^(-1) over the box.

    `_hilbert90_batch` runs on the integer chunks of `subfield_candidates`
    (int64 or object dtype, as their size allows; each form then takes its
    float tier or Python integers, as its own inputs allow): half the box,
    as -c is skipped.  A walk over each chunk keeps the enumeration order:
    each unit X/d is keyed by its column divided by the gcd of X and d (d > 0,
    so equal units, as of c and 2c, have equal keys), and the walk stops at
    the candidate completing `size` units, its walk position + 1 being
    `candidates_scanned`; a kept key alone becomes an AlgElem.  The box's
    chunks and the subfield's basis are built once and kept (`_half_chunk`,
    `_power_basis`), so a request repeated on them does only its own forms.
    The units are checked exactly in one batch,
    x * involution(x) = 1, and rendered from their kept keys
    (`_unit_matrices`), which also catches a candidate not commuting with
    v = involution(u), as x * involution(x) = u*v^(-1)*u^(-1)*v.  A zero
    reduced norm raises InversionError.  If the box runs out first,
    complete=False.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    spec = sub.generator.spec
    seen: dict[tuple, None] = {}  # each unit's 18 numerators and denominator in lowest terms
    scanned = len(box.values()) ** 6 - 1  # every nonzero tuple, unless the walk stops early
    for u, walked in subfield_candidates(sub, box):
        x, d = _hilbert90_batch(u, spec.gamma_coords)
        c = np.vstack((x, d))  # d = 0 comes with X = 0, a zero column: kept as zeros, refused when reached
        for i, key in enumerate(map(tuple, (c // np.maximum(np.gcd.reduce(c, axis=0), 1)).T.tolist())):
            if not key[18]:
                raise InversionError("nonzero element with zero reduced norm; gamma does not give a division algebra")
            seen[key] = None
            if len(seen) == size:
                scanned = int(walked[i]) + 1
                break
        if len(seen) == size:
            break
    units = _exact(list(seen)).T
    return Codebook(
        subfield_spec=sub,
        box=box,
        requested=size,
        elements=[AlgElem.from_integral(spec, key[:18], key[18]) for key in seen],
        matrices=_unit_matrices(units[:18], units[18], spec.gamma_coords),
        complete=len(seen) == size,
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
# abs(KElem(n0/q, n1/q).to_complex()) for q > 0, bit for bit and OverflowError alike: both divide correctly rounded.
_k_modulus = lambda n0, n1, q: abs(complex(n0 / q) + complex(n1 / q) * ZETA3_COMPLEX)


def _numeric_pair_dets(mats: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, ...]:
    """Pairs (i, j), i < j, in order, with numeric |det(x_i - x_j)| and its error bound, from F and W."""
    r = np.arange(len(mats))
    left, right = np.nonzero(r[:, None] < r)
    numeric = np.empty(len(left))
    bound = np.empty(len(left))
    for start in range(0, len(left), _PAIR_CHUNK):
        i, j = left[start:start + _PAIR_CHUNK], right[start:start + _PAIR_CHUNK]
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan stay silent; `_min_det` rejects them
            numeric[start:start + len(i)] = np.abs(_expand3(mats[i] - mats[j], -1))
            bound[start:start + len(i)] = _DET_ERROR * _expand3(sizes[i] + sizes[j], 1)
    return left, right, numeric, bound


def min_det_report(elements: Sequence[AlgElem]) -> DiversityReport:
    """The first zero pair, else the minimum |det|, over all pairs, decided exactly for any gamma.

    |det| is screened numerically: det(F_i - F_j) is expanded for every
    pair as one array computation on the F and W of `numeric_embeddings`.  Writing u = 2^-53, K_m = |a_m| + |b_m| for an
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
    of the numeric minimum; exactly those pairs are recomputed, in one
    `a_char_coords` call on X_i*d_j - X_j*d_i: Nrd(x_i - x_j) * (d_i*d_j)^3.
    A zero pair (e = 0) is always among them, as its n - b <= 0.  `pair` (the
    first zero pair, else the first minimum, in pair order), `exact_nonzero`,
    `min_abs_det` and `zeta` come from these exact values alone, so the report
    equals an exact all-pairs pass.  OverflowError if a numeric |det| or its
    bound is past float range, where the screen would prove nothing.
    """
    if len(elements) < 2:
        raise ValueError("need at least two elements")
    x, d, gamma = _family(elements)
    return _min_det(x, d, a_embed_coords(x, gamma), gamma)


def family_report(integrals: Sequence[tuple], spec) -> tuple[Optional[int], Optional[DiversityReport]]:
    """`first_non_unitary` and, when it is None, `min_det_report`, for elements of spec given as (18 integers,
    positive denominator), not necessarily in lowest terms: one `a_unit_embed_coords` call checks every element
    and gives the rows of the float screen, and one `a_char_coords` call rechecks the screened pairs."""
    if len(integrals) < 2:
        raise ValueError("need at least two elements")
    spec.require_involution()
    x, d = _columns(integrals)
    bad, e = _unit_rows(x, d, spec.gamma_coords)
    if len(bad):
        return int(bad[0]), None
    return None, _min_det(x, d, e, spec.gamma_coords)


def _pair_norms(x: np.ndarray, d: np.ndarray, i: np.ndarray, j: np.ndarray, gamma) -> tuple[list, list, list]:
    """Nrd(x_i - x_j) = (N0 + N1*zeta3)/D for the pairs of index arrays i and j, as lists N0, N1 and D = (d_i*d_j)^3:
    one `a_char_coords` call on the unreduced differences X_i*d_j - X_j*d_i, as Nrd is homogeneous of degree 3."""
    diff = x[:, i].astype(object) * d[j] - x[:, j].astype(object) * d[i]
    return *a_char_coords(_exact(diff), gamma)[4:].tolist(), ((d[i] * d[j]) ** 3).tolist()


def _min_det(x: np.ndarray, d: np.ndarray, e: np.ndarray, gamma) -> DiversityReport:
    """`min_det_report` on the elements X_i/d_i (`_columns`) over gamma's coordinates, given the (54, m) entries e
    of their embeddings: the screened pairs' exact values decide zero and the minimum alike."""
    left, right, numeric, bound = _numeric_pair_dets(*_embedded(e, d))
    if not np.isfinite(numeric + bound).all():
        raise OverflowError("a numeric |det(x_i - x_j)| or its error bound is past float range")
    screened = np.flatnonzero(numeric - bound <= np.min(numeric + bound))
    i, j = left[screened], right[screened]
    # the least (exactly nonzero, modulus) in pair order: the first zero pair, else the first minimum
    (nonzero, mod), pair = min(
        ((n0 != 0 or n1 != 0, _k_modulus(n0, n1, q)), pair)
        for pair, n0, n1, q in zip(zip(i.tolist(), j.tolist()), *_pair_norms(x, d, i, j, gamma))
    )
    return DiversityReport(zeta=0.5 * mod ** (1.0 / 3.0), pair=pair, min_abs_det=mod, exact_nonzero=nonzero)


# ---------------------------------------------------------------------------
# Bounded non-norm search, a cross-check of the certificate
# ---------------------------------------------------------------------------


# Every value l_norm_coords forms from integers |a_i| <= m (m >= 1) is at most _NORM_MASS * m^3:
# traced on polynomials, each intermediate has degree at most 3 and |coefficients| summing to at most 150.
# Each output of `_norm_split` has a smaller mass, so it bounds the witness search's products too.
_NORM_MASS = 150
# Tuples per matrix product of the witness search, in whole rows of a stratum; larger ones gain little on
# misses and add to the work a hit wastes past its row.
_WITNESS_GRID = 1 << 13
# The 20 monomials of degree <= 3 in three variables, as sorted indices into (v0, v1, v2, 1).
_HALF = list(itertools.combinations_with_replacement(range(4), 3))
# l_norm_coords in the signature that `algebra._table` traces.
_l_norm_form = lambda a, gamma: l_norm_coords(a)


@functools.cache
def _norm_split(dtype) -> np.ndarray:
    """The L norm split over the coordinate halves, from its `_table`: (2, 20, 20) integers c with
    N(a)[o] = sum over p, q of c[o, q, p] * X_p(a0, a1, a2) * X_q(a3, a4, a5), X over `_HALF`."""
    monomials, dense, _, _ = _table(_l_norm_form, (6,), ())
    split = np.zeros((2, len(_HALF), len(_HALF)), dtype=np.int64)
    for column, m in zip(dense.T, (m for group in monomials for m in group.T.tolist())):
        p, q = ((*part, 3, 3, 3)[:3] for part in ([v for v in m if v < 3], [v - 3 for v in m if v >= 3]))
        split[:, _HALF.index(q), _HALF.index(p)] = column
    return split.astype(dtype)


def _norm_halves(half: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Monomials X (20, k) of k half-tuples and F = `_norm_split` @ X: F[..., i] @ X[:, j] = N(half i, half j)."""
    mono = np.array([*half, np.ones_like(half[0])])[np.array(_HALF)].prod(axis=1)
    return mono, _norm_split(mono.dtype) @ mono


@functools.lru_cache(maxsize=32)  # holds the 10 strata perfbench and witness_scan.py read; a whole Box(3, 2) is 0.59 MB
def _witness_strata(box: Box, n: int) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The search's (half, mono, key) for stratum n of the box's triples (`_window`), or None after the last: key is
    the folded side of `_norm_halves` packed as N0 + S*N1, S = 2*bound + 1, in float64 while every value it forms,
    at most (S + 1)*bound, is below 2^53 (m <= 76), else on Python integers, so S is folded in once here."""
    bound = _NORM_MASS * (box.numerator_bound * box.scale) ** 3
    coords, strata = _box_arrays(box, np.dtype(float if (2 * bound + 2) * bound < 2**53 else object))
    if n >= len(strata):
        return None
    size, top = strata[n]
    half = _window(coords, top, size, 3, 0, size**3)[0]
    mono, folded = _norm_halves(half)
    return half, mono, folded[0] + (2 * bound + 1) * folded[1]


def norm_witness_search(target: KElem, box: Box) -> Optional[LElem]:
    """Exhaustively search the box for u in L with norm(u) = target.

    Returns the first witness in `box_chunks` order, or None if the whole
    box is exhausted.  A witness for gamma or gamma^2 would contradict
    `division_certificate`, so the search cross-checks it.

    The search is exact integer arithmetic.  With Q = `box.scale`, a candidate
    u = a/Q has integer coordinates a, |a_i| <= m = B*Q, and N(u) = N(a)/Q^3,
    so only targets whose goal Q^3*target, formed from their integer numerators
    and denominators, lies in Z[zeta3] within bound = _NORM_MASS * m^3 can be
    hit; as L is a field, N(u) = 0 only for u = 0, so a zero goal is no hit
    either, and none of these reads a stratum.  A block of rows (a3, a4, a5)
    of a stratum by all its (a0, a1, a2), in the stratum's order row by row, is
    one (rows, 20) @ (20, k) product of `_norm_halves`, giving one exact
    integer key per tuple, N0 + S*N1 with S = 2*bound + 1, and one comparison
    with the goal's key, in the dtype of `_witness_strata` and exact in any
    summation order.  A nonzero tuple with no coordinate at the stratum's
    height lies in an earlier stratum, read first, so for a nonzero goal the
    first match is the first witness.  The hit's integers a are confirmed with
    `l_norm_coords`, apart from the split.
    """
    q = box.scale
    (g0, r0), (g1, r1) = (divmod(c.numerator * q**3, c.denominator) for c in (target.a0, target.a1))
    bound = _NORM_MASS * (box.numerator_bound * q) ** 3
    if r0 or r1 or not 0 < max(abs(g0), abs(g1)) <= bound:
        return None
    goal = g0 + (2 * bound + 1) * g1
    for n in itertools.count():
        if (stratum := _witness_strata(box, n)) is None:
            return None
        half, mono, key = stratum
        width = half.shape[1]
        rows = -(-_WITNESS_GRID // width)
        for y in range(0, width, rows):
            match = (mono[:, y:y + rows].T @ key == goal).ravel()
            if match[hit := int(match.argmax())]:
                dy, x = divmod(hit, width)
                a = [int(c[i]) for i in (x, y + dy) for c in half]
                if l_norm_coords(a) != (g0, g1):
                    raise AssertionError("integer norm disagrees with the split")
                return LElem.from_six_tuple([Fraction(v, q) for v in a])


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
    if has_rational_root(poly) is not None:
        raise AssertionError("reduced polynomial must be irreducible")
    disc = discriminant_cubic(poly)
    if disc.denominator != 1 or disc <= 0:
        raise AssertionError(f"discriminant must be a positive integer, got {disc}")
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
