"""Checks of unidiv's outputs that share no code with unidiv.

Elements are read from their serialized form (three six-tuples of "p/q"
strings, as `unidiv generate` writes them) and evaluated with this file's
own arithmetic: exact Fractions for K = Q(zeta3) and the norm from
L = K(theta), numpy floats for the matrix embedding.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)
# theta_k = 2cos(2*pi*2^k/7): the Galois generator theta -> theta^2 - 2 maps
# the value at theta_k to the value at theta_(k+1).
THETAS = tuple(2.0 * math.cos(2.0 * math.pi * 2**k / 7.0) for k in range(3))
# Multiplication by theta on the basis (1, theta, theta^2), column j = image
# of basis vector j; theta^3 = 1 + 2*theta - theta^2.
_C = ((0, 0, 1), (1, 0, 2), (0, 1, -1))
_C2 = tuple(
    tuple(sum(_C[i][k] * _C[k][j] for k in range(3)) for j in range(3)) for i in range(3)
)


def box_values(numerator_bound: int, denominator_bound: int) -> list[Fraction]:
    """Every p/q with |p| <= B and 1 <= q <= D, once each."""
    return sorted(
        {
            Fraction(p, q)
            for q in range(1, denominator_bound + 1)
            for p in range(-numerator_bound, numerator_bound + 1)
        }
    )


def box_tuple_count(numerator_bound: int, denominator_bound: int) -> int:
    """Nonzero six-tuples over the box: the witness search space."""
    return len(box_values(numerator_bound, denominator_bound)) ** 6 - 1


def in_box(coords, numerator_bound: int, denominator_bound: int) -> bool:
    return all(
        abs(c.numerator) <= numerator_bound and c.denominator <= denominator_bound
        for c in coords
    )


def kmul(a, b):
    """(a0 + a1*w)(b0 + b1*w) with w^2 = -1 - w."""
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0] - a[1] * b[1])


def kadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def ksub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def norm_l_to_k(six) -> tuple[Fraction, Fraction]:
    """N_{L/K}(c0 + c1*theta + c2*theta^2) as the determinant of multiplication.

    `six` is (c0.a0, c0.a1, c1.a0, c1.a1, c2.a0, c2.a1).
    """
    c = [(Fraction(six[2 * i]), Fraction(six[2 * i + 1])) for i in range(3)]
    mats = (((1, 0, 0), (0, 1, 0), (0, 0, 1)), _C, _C2)
    m = [
        [
            (
                sum(ci[0] * mk[i][j] for ci, mk in zip(c, mats)),
                sum(ci[1] * mk[i][j] for ci, mk in zip(c, mats)),
            )
            for j in range(3)
        ]
        for i in range(3)
    ]

    def minor(r1, r2, c1, c2):
        return ksub(kmul(m[r1][c1], m[r2][c2]), kmul(m[r1][c2], m[r2][c1]))

    det = kmul(m[0][0], minor(1, 2, 1, 2))
    det = ksub(det, kmul(m[0][1], minor(1, 2, 0, 2)))
    return kadd(det, kmul(m[0][2], minor(1, 2, 0, 1)))


def _l_value(six, k: int) -> complex:
    t = THETAS[k]
    vals = [float(Fraction(v)) for v in six]
    return sum((vals[2 * i] + vals[2 * i + 1] * OMEGA) * t**i for i in range(3))


def embed(record: dict) -> np.ndarray:
    """Numeric matrix of left multiplication by x0 + E*x1 + E^2*x2 (E^3 = zeta3).

    Entry values are taken at the first complex embedding, where sigma^k(y)
    reads as y at theta_k.
    """
    v = [[_l_value(record[key], k) for k in range(3)] for key in ("x0", "x1", "x2")]
    g = OMEGA
    return np.array(
        [
            [v[0][0], g * v[2][1], g * v[1][2]],
            [v[1][0], v[0][1], g * v[2][2]],
            [v[2][0], v[1][1], v[0][2]],
        ],
        dtype=complex,
    )


def unitarity_defect(mat) -> float:
    m = np.asarray(mat, dtype=complex)
    return float(np.max(np.abs(m @ m.conj().T - np.eye(3))))


def min_pair_det(mats: list[np.ndarray]) -> tuple[float, tuple[int, int], bool]:
    """Smallest |det(M_i - M_j)|, its pair, and whether that pair is unique."""
    stack = np.array(mats)
    i, j = np.triu_indices(len(mats), k=1)
    dets = np.abs(np.linalg.det(stack[i] - stack[j]))
    order = np.argsort(dets, kind="stable")
    best = float(dets[order[0]])
    unique = len(order) == 1 or float(dets[order[1]]) > best * (1 + 1e-9)
    return best, (int(i[order[0]]), int(j[order[0]])), unique

