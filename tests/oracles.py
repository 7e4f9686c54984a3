"""Slow exact oracles shared by the tests.

`solve_k_linear` and `express_in_power_basis` decide membership in a power
basis by Gaussian elimination over K; `SubfieldSpec` decides involution
stability by a commute check instead, and the tests compare the two.  The
`rows_*` helpers are 3x3 matrix arithmetic on `MatL.rows` (tuples of
tuples of LElem), compared with ==.
"""

from typing import Optional, Sequence

from unidiv.algebra import AlgElem
from unidiv.fields import K_ZERO, KElem, L_ONE, L_ZERO


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
