import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_l, rand_nonzero_l
from oracles import real_imag_parts, solve_k_linear
from unidiv.fields import (
    K_ONE,
    K_ZERO,
    KElem,
    LElem,
    THETA,
    THETA_EMBEDDINGS,
    THETA_SQ,
    ZETA3,
    l_mul_coords,
    l_norm_coords,
    l_sigma_coords,
    l_trace_coords,
    minimal_polynomial_coeffs,
)

fracs = st.fractions(min_value=-10, max_value=10, max_denominator=5)
k_elems = st.builds(KElem, fracs, fracs)
l_elems = st.builds(
    LElem.from_six_tuple, st.tuples(fracs, fracs, fracs, fracs, fracs, fracs)
)


def test_theta_value_satisfies_pinned_polynomial():
    # pin the minimal polynomial of 2cos(2pi/7) numerically before trusting it
    t = 2.0 * math.cos(2.0 * math.pi / 7.0)
    c0, c1, c2, c3 = (float(c) for c in minimal_polynomial_coeffs())
    assert abs(c3 * t**3 + c2 * t**2 + c1 * t + c0) < 1e-12
    assert abs(THETA_EMBEDDINGS[0] - t) < 1e-15


def test_k_reduction_examples():
    assert ZETA3 * ZETA3 == KElem(-1, -1)
    assert ZETA3 * KElem(-1, -1) == K_ONE  # gamma * conj(gamma) = 1
    assert ZETA3.inv() == KElem(-1, -1)


def test_k_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        K_ZERO.inv()


@given(k_elems, k_elems, k_elems)
def test_k_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - b) + b == a
    if not a.is_zero():
        assert a * a.inv() == K_ONE


def test_l_reduction_examples():
    assert THETA * THETA_SQ == LElem(1, 2, -1)
    assert THETA.inv() == LElem(-2, 1, 1)


def test_theta_root_of_its_polynomial_exactly():
    m = THETA * THETA * THETA + THETA_SQ - LElem(2) * THETA - LElem(1)
    assert m.is_zero()


@given(l_elems, l_elems, l_elems)
@settings(max_examples=50)
def test_l_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a


# ---------------------------------------------------------------------------
# Oracles for the closed forms that KElem and LElem call.  The products are
# hand-expanded on Fraction coordinates in six_tuple order and share no code
# with unidiv.fields; the norm and inverse oracles build on them and on
# sigma_by_matrix below.
# ---------------------------------------------------------------------------

# Reduction data for the power basis {1, theta, theta^2}:
#   theta^3 = 1 + 2*theta - theta^2,  theta^4 = -1 - theta + 3*theta^2
THETA3 = (1, 2, -1)
THETA4 = (-1, -1, 3)


def k_mul_oracle(a, b):
    """(a0 + a1 z)(b0 + b1 z) with z^2 = -1 - z."""
    cross = a[0] * b[1] + a[1] * b[0]
    square = a[1] * b[1]
    return (a[0] * b[0] - square, cross - square)


def l_mul_oracle(x, y):
    """Schoolbook product of c0 + c1*theta + c2*theta^2, folded by THETA3 and THETA4."""
    a = [(x[0], x[1]), (x[2], x[3]), (x[4], x[5])]
    b = [(y[0], y[1]), (y[2], y[3]), (y[4], y[5])]
    t = [[Fraction(0), Fraction(0)] for _ in range(5)]
    for i in range(3):
        for j in range(3):
            p = k_mul_oracle(a[i], b[j])
            t[i + j][0] += p[0]
            t[i + j][1] += p[1]
    return tuple(
        t[d][part] + t[3][part] * THETA3[d] + t[4][part] * THETA4[d]
        for d in range(3)
        for part in (0, 1)
    )


def norm_oracle(x):
    """x * sigma(x) * sigma^2(x), asserted to lie in K; its two K coordinates."""
    a = LElem.from_six_tuple(x)
    s1, s2 = sigma_by_matrix(a, 1).six_tuple(), sigma_by_matrix(a, 2).six_tuple()
    n = l_mul_oracle(l_mul_oracle(x, s1), s2)
    assert not any(n[2:]), "norm fell outside K"
    return n[0], n[1]


def inverse_oracle(a: LElem) -> LElem:
    """Solve a * y = 1 with the multiplication matrix of a over K."""
    x = a.six_tuple()
    cols = [l_mul_oracle(x, LElem(*basis).six_tuple()) for basis in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    rows = [[KElem(cols[j][2 * i], cols[j][2 * i + 1]) for j in range(3)] for i in range(3)]
    sol = solve_k_linear(rows, [K_ONE, K_ZERO, K_ZERO])
    assert sol is not None
    return LElem(*sol)


@given(k_elems, k_elems)
def test_k_product_matches_oracle(a, b):
    assert (a * b) == KElem(*k_mul_oracle((a.a0, a.a1), (b.a0, b.a1)))
    assert a.norm_q() == a.a0 * a.a0 - a.a0 * a.a1 + a.a1 * a.a1


def test_l_inverse_matches_oracle():
    rng = random.Random(13)
    for _ in range(25):
        a = rand_nonzero_l(rng)
        assert a.inv() == inverse_oracle(a)


def test_l_inverse_contract():
    rng = random.Random(11)
    for _ in range(25):
        a = rand_nonzero_l(rng)
        assert a * a.inv() == LElem(1)
    with pytest.raises(ZeroDivisionError):
        LElem(0).inv()


def test_sigma_examples():
    assert THETA.sigma(1) == LElem(-2, 0, 1)  # theta^2 - 2
    assert THETA.sigma(2) == LElem(1, -1, -1)
    k = LElem(KElem(3, -2))
    assert k.sigma(1) == k  # Galois action fixes K


# Galois generator on basis vectors: sigma(1), sigma(theta), sigma(theta^2)
#   sigma(theta) = theta^2 - 2,  sigma(theta^2) = 3 - theta - theta^2
SIGMA_IMAGES = ((1, 0, 0), (-2, 0, 1), (3, -1, -1))


def sigma_by_matrix(a: LElem, power: int) -> LElem:
    """The generic K-linear loop that LElem.sigma's closed forms replaced."""
    out = a
    for _ in range(power % 3):
        c = (out.c0, out.c1, out.c2)
        images = []
        for col in range(3):
            acc = K_ZERO
            for row in range(3):
                acc = acc + c[row] * SIGMA_IMAGES[row][col]
            images.append(acc)
        out = LElem(*images)
    return out


def test_sigma_closed_forms_match_matrix_loop():
    rng = random.Random(17)
    for _ in range(40):
        a = rand_l(rng)
        for power in range(-3, 5):
            assert a.sigma(power) == sigma_by_matrix(a, power)


@given(l_elems)
def test_sigma_has_order_three(a):
    assert a.sigma(3) == a
    assert a.sigma(1).sigma(1).sigma(1) == a


@given(l_elems, l_elems)
@settings(max_examples=50)
def test_sigma_is_ring_homomorphism(a, b):
    assert (a + b).sigma(1) == a.sigma(1) + b.sigma(1)
    assert (a * b).sigma(1) == a.sigma(1) * b.sigma(1)


def test_conj_example():
    assert LElem(ZETA3).conj() == LElem(KElem(-1, -1))


@given(l_elems, l_elems)
@settings(max_examples=50)
def test_conj_is_ring_involution_commuting_with_sigma(a, b):
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.sigma(1).conj() == a.conj().sigma(1)


@given(k_elems)
def test_conj_preserves_k(k):
    c = LElem(k).conj()
    assert c.is_in_k()


def test_norm_examples():
    assert THETA.norm_to_k() == K_ONE
    k = KElem(2, -3)
    assert LElem(k).norm_to_k() == k * k * k


@given(l_elems, l_elems)
@settings(max_examples=50)
def test_norm_multiplicative(a, b):
    assert (a * b).norm_to_k() == a.norm_to_k() * b.norm_to_k()


@given(l_elems, l_elems)
@settings(max_examples=50)
def test_coordinate_closed_forms_match_lelem(a, b):
    # LElem calls the closed forms, so both are held to the oracles above
    x, y = a.six_tuple(), b.six_tuple()
    assert l_mul_coords(x, y) == l_mul_oracle(x, y) == (a * b).six_tuple()
    assert l_sigma_coords(x) == sigma_by_matrix(a, 1).six_tuple() == a.sigma().six_tuple()
    assert a.sigma(2) == sigma_by_matrix(a, 2)
    n = a.norm_to_k()
    assert l_norm_coords(x) == norm_oracle(x) == (n.a0, n.a1)


@given(l_elems)
def test_trace_closed_form_matches_conjugate_sum(a):
    t = a + sigma_by_matrix(a, 1) + sigma_by_matrix(a, 2)
    assert t.is_in_k()
    assert l_trace_coords(a.six_tuple()) == (t.c0.a0, t.c0.a1)


def test_trace_closed_form_on_integer_arrays():
    rng = random.Random(5)
    rows = [[rng.randint(-50, 50) for _ in range(6)] for _ in range(40)]
    columns = [np.array(col, dtype=np.int64) for col in zip(*rows)]
    traces = l_trace_coords(columns)
    for i, row in enumerate(rows):
        a = LElem.from_six_tuple(row)
        t = (a + a.sigma(1) + a.sigma(2)).c0
        assert (int(traces[0][i]), int(traces[1][i])) == (t.a0, t.a1)


def test_l_product_matches_oracle_on_python_ints_and_columns():
    # the witness search confirms its hit on Python ints, and runs Box(1, 16) on object columns
    rng = random.Random(11)
    big = lambda: rng.choice((2**64 + 1, -(2**64) - 3, rng.randint(-(2**90), 2**90), rng.randint(-50, 50)))
    for _ in range(60):
        x, y = [big() for _ in range(6)], [big() for _ in range(6)]
        got = l_mul_coords(x, y)
        assert got == l_mul_oracle(x, y) and all(type(v) is int for v in got)
    for dtype, m in ((np.int64, 2**28), (object, 2**70)):
        xs, ys = ([[rng.randint(-m, m) for _ in range(6)] for _ in range(40)] for _ in range(2))
        got = l_mul_coords(*([np.array(col, dtype=dtype) for col in zip(*rows)] for rows in (xs, ys)))
        assert all(v.dtype == dtype for v in got)
        want = zip(*(l_mul_oracle(x, y) for x, y in zip(xs, ys)))
        assert [v.tolist() for v in got] == [[int(c) for c in row] for row in want]


def test_coordinate_closed_forms_on_integer_arrays():
    rng = random.Random(3)
    rows = [[rng.randint(-50, 50) for _ in range(6)] for _ in range(40)]
    columns = [np.array(col, dtype=np.int64) for col in zip(*rows)]
    norms = l_norm_coords(columns)
    for i, row in enumerate(rows):
        n = LElem.from_six_tuple(row).norm_to_k()
        assert (int(norms[0][i]), int(norms[1][i])) == (n.a0, n.a1)


def test_complex_embedding_values():
    assert abs(THETA.to_complex(0) - 1.2469796037174672) < 1e-12
    z = LElem(ZETA3).to_complex(0)
    assert abs(z - complex(-0.5, math.sqrt(3) / 2)) < 1e-15
    # the three theta conjugates
    assert abs(THETA.to_complex(1) + 0.4450418679126289) < 1e-12
    assert abs(THETA.to_complex(2) + 1.8019377358048383) < 1e-12


def test_sigma_shifts_embedding_index():
    rng = random.Random(5)
    for _ in range(20):
        a = rand_l(rng)
        assert abs(a.sigma(1).to_complex(0) - a.to_complex(1)) < 1e-9
        assert abs(a.sigma(1).to_complex(1) - a.to_complex(2)) < 1e-9


def test_embedding_is_ring_homomorphism_numerically():
    rng = random.Random(17)
    for _ in range(40):
        a, b = rand_l(rng, num=5, den=3), rand_l(rng, num=5, den=3)
        lhs = (a * b).to_complex(0)
        rhs = a.to_complex(0) * b.to_complex(0)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_six_tuple_round_trip():
    rng = random.Random(3)
    for _ in range(10):
        a = rand_l(rng)
        assert LElem.from_six_tuple(a.six_tuple()) == a
    assert LElem.from_six_tuple(["1", "0", "-1/2", "0", "0", "3"]) == LElem(
        KElem(1), KElem(Fraction(-1, 2)), KElem(0, 3)
    )


def test_real_imag_parts():
    a = LElem(KElem(1, 2), KElem(0, -1), KElem(3, 0))
    v, w = real_imag_parts(a)
    assert v == LElem(1, 0, 3)
    assert w == LElem(2, -1, 0)
    assert v + LElem(ZETA3) * w == a


def test_solve_k_linear():
    rows = [[K_ONE, KElem(2)], [KElem(1, 1), KElem(0, 1)]]
    rhs = [KElem(5), KElem(1, 2)]
    sol = solve_k_linear(rows, rhs)
    assert sol is not None
    assert rows[0][0] * sol[0] + rows[0][1] * sol[1] == rhs[0]
    assert rows[1][0] * sol[0] + rows[1][1] * sol[1] == rhs[1]
    # inconsistent system
    bad = solve_k_linear([[K_ONE], [K_ONE]], [K_ONE, KElem(2)])
    assert bad is None


def test_k_str():
    assert str(KElem(0, 1)) == "zeta3"
    assert str(KElem(-1, -1)) == "-1-zeta3"
    assert str(KElem(Fraction(1, 2))) == "1/2"
