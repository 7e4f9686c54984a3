import contextlib
import functools
import inspect
import operator
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_alg, rand_k, rand_l, rand_real_l
from oracles import (
    IDENTITY_ROWS,
    alg_mul_oracle,
    express_in_power_basis,
    fixed_point_conditions,
    from_l,
    inverse_oracle,
    magnitude_peak,
    rows_add,
    rows_conj_transpose,
    rows_mul,
)
import unidiv.algebra
from unidiv.algebra import (
    AlgebraSpec,
    AlgElem,
    InversionError,
    InvolutionUnavailable,
    STANDARD_ALGEBRA,
    a_char_coords,
    a_involution_coords,
    a_mul_coords,
    char_poly_rational,
    from_zeta9,
    inverse,
    involution,
    matrix_embed,
    reduced_char_poly,
    reduced_norm,
    subfield_element,
    to_zeta9,
    worked_example,
    zeta9_str,
)
from unidiv.cli import parse_element
from unidiv.fields import K_ONE, KElem, L_ONE, L_ZERO, LElem, THETA, ZETA3
from unidiv.polynomials import Polynomial, has_rational_root

A = STANDARD_ALGEBRA
E = A.gen()
ONE = A.one()


def test_gen_cubes_to_gamma():
    assert E * E * E == from_l(A, LElem(ZETA3))


def test_identity_neutral():
    rng = random.Random(0)
    for _ in range(5):
        x = rand_alg(rng)
        assert ONE * x == x
        assert x * ONE == x


def test_twisted_commutation():
    # (E a)(E b) = E^2 sigma(a) b
    rng = random.Random(1)
    for _ in range(10):
        a, b = rand_l(rng), rand_l(rng)
        lhs = AlgElem(A, L_ZERO, a, L_ZERO) * AlgElem(A, L_ZERO, b, L_ZERO)
        assert lhs == AlgElem(A, L_ZERO, L_ZERO, a.sigma(1) * b)


def test_matrix_embed_of_gen():
    m = matrix_embed(E)
    assert m.rows[0][2] == LElem(ZETA3)
    assert m.rows[1][0] == L_ONE and m.rows[2][1] == L_ONE
    zero_positions = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)]
    assert all(m.rows[i][j].is_zero() for i, j in zero_positions)


def test_matrix_embed_identity():
    assert matrix_embed(ONE).rows == IDENTITY_ROWS


def test_matrix_embed_worked_example():
    x = worked_example().x
    grid = matrix_embed(x).render()
    assert grid == [
        ["1+zeta3", "-1-zeta3", "zeta3"],
        ["1", "1+zeta3", "-1-zeta3"],
        ["zeta3", "1", "1+zeta3"],
    ]


def test_matrix_embed_is_ring_homomorphism():
    rng = random.Random(2)
    for _ in range(25):
        x, y = rand_alg(rng, num=5, den=3), rand_alg(rng, num=5, den=3)
        mx, my = matrix_embed(x).rows, matrix_embed(y).rows
        assert matrix_embed(x * y).rows == rows_mul(mx, my)
        assert matrix_embed(x + y).rows == rows_add(mx, my)


def test_involution_of_gen():
    ae = involution(E)
    assert ae == AlgElem(A, L_ZERO, L_ZERO, LElem(KElem(-1, -1)))  # E^2 zeta3^2
    assert E * ae == ONE


def test_involution_worked_example():
    w = worked_example()
    assert involution(w.x) == w.involution_image
    assert involution(ONE) == ONE


def test_involution_axioms():
    rng = random.Random(3)
    for _ in range(30):
        x, y = rand_alg(rng, num=5, den=3), rand_alg(rng, num=5, den=3)
        assert involution(x + y) == involution(x) + involution(y)
        assert involution(x * y) == involution(y) * involution(x)
        assert involution(involution(x)) == x


def test_involution_matches_inverse_power_form():
    # the closed form must agree with conj(x0) + E^-1 z sigma^-1(conj(x1))
    #                                            + E^-2 z^2 sigma^-2(conj(x2))
    rng = random.Random(4)
    e_inv = inverse(E)
    e_inv2 = e_inv * e_inv
    for _ in range(15):
        x = rand_alg(rng, num=4, den=2)
        direct = involution(x)
        via_inverse = (
            from_l(A, x.x0.conj())
            + e_inv * from_l(A, x.x1.conj().sigma(2))
            + e_inv2 * from_l(A, x.x2.conj().sigma(1))
        )
        assert direct == via_inverse


def test_involution_requires_unit_gamma():
    spec = AlgebraSpec(KElem(2))
    assert not spec.supports_involution
    with pytest.raises(InvolutionUnavailable):
        involution(spec.gen())
    # other norm-one gammas are fine
    alt = AlgebraSpec(KElem(-1, -1))
    assert alt.supports_involution
    g = alt.gen()
    assert g * involution(g) == alt.one()


@pytest.mark.parametrize(
    "gamma, supported",
    [(ZETA3, True), (ZETA3 * ZETA3, True), (KElem(-1), True), (KElem(2), False), (KElem(1, 1), True)],
    ids=["zeta3", "zeta3^2", "-1", "2", "1+zeta3"],
)
def test_supports_involution_iff_gamma_has_norm_one(gamma, supported):
    spec = AlgebraSpec(gamma)
    assert spec.supports_involution is supported
    assert supported == (gamma * gamma.conj() == K_ONE)


def test_specs_compare_and_hash_by_gamma():
    assert AlgebraSpec(ZETA3) == STANDARD_ALGEBRA
    assert hash(AlgebraSpec(ZETA3)) == hash(STANDARD_ALGEBRA)
    assert AlgebraSpec(KElem(0, 1)) == STANDARD_ALGEBRA
    assert AlgebraSpec(ZETA3 * ZETA3) != STANDARD_ALGEBRA
    other = AlgebraSpec(ZETA3 * ZETA3)
    with pytest.raises(ValueError, match="different gamma"):
        other.one() + ONE


def test_one_element_from_three_constructions():
    # 1/2 - 3*z9 + (5/7)*z9^2 + 2*z9^3 - (1/4)*z9^5, with z9 = E and z9^3 = zeta3
    coeffs = ["1/2", "-3", "5/7", "2", "0", "-1/4"]
    record = {
        "x0": ["1/2", "2", "0", "0", "0", "0"],
        "x1": ["-3", "0", "0", "0", "0", "0"],
        "x2": ["10/14", "-2/8", "0", "0", "0", "0"],
    }
    direct = AlgElem(
        AlgebraSpec(ZETA3),
        LElem(KElem(Fraction(1, 2), 2)),
        LElem(KElem(-3)),
        LElem(KElem(Fraction(5, 7), Fraction(-1, 4))),
    )
    for x in (parse_element(record), from_zeta9(coeffs)):
        assert x == direct and hash(x) == hash(direct)
        assert x.integral() == direct.integral()
    assert len({parse_element(record), from_zeta9(coeffs), direct}) == 1


def test_conj_transpose_shadows_involution():
    rng = random.Random(5)
    for _ in range(25):
        x = rand_alg(rng, num=5, den=3)
        assert matrix_embed(involution(x)).rows == rows_conj_transpose(matrix_embed(x).rows)
    assert rows_conj_transpose(IDENTITY_ROWS) == IDENTITY_ROWS


def test_conj_transpose_worked_example():
    w = worked_example()
    assert rows_conj_transpose(matrix_embed(w.x).rows) == matrix_embed(w.involution_image).rows


def test_unitarity_equivalence_both_directions():
    rng = random.Random(6)
    for _ in range(20):
        u = subfield_element(A, rand_k(rng, 4, 2), rand_k(rng, 4, 2), rand_k(rng, 4, 2))
        if u.is_zero():
            continue
        x = u * inverse(involution(u))
        m = matrix_embed(x).rows
        assert x * involution(x) == ONE
        assert rows_mul(m, rows_conj_transpose(m)) == IDENTITY_ROWS
    for _ in range(20):
        x = rand_alg(rng, num=5, den=3)
        m = matrix_embed(x).rows
        unitary_alg = x * involution(x) == ONE
        unitary_mat = rows_mul(m, rows_conj_transpose(m)) == IDENTITY_ROWS
        assert unitary_alg == unitary_mat


def test_char_poly_of_gen():
    chi = reduced_char_poly(E)
    assert chi == Polynomial([KElem(0, -1), KElem(0), KElem(0), K_ONE])
    assert str(chi) == "X^3-zeta3"


def test_char_poly_of_scalar():
    k = KElem(2, 1)
    chi = reduced_char_poly(from_l(A, LElem(k)))
    lin = Polynomial([-k, K_ONE])
    assert chi == lin * lin * lin


def test_char_poly_table_generator():
    nu1 = AlgElem(A, THETA, LElem(KElem(1, 1)), LElem(KElem(-1)))
    assert char_poly_rational(nu1) == Polynomial(
        [Fraction(-3), Fraction(-5), Fraction(1), Fraction(1)]
    )


def test_char_poly_coefficients_in_k_and_cayley_hamilton():
    rng = random.Random(7)
    for _ in range(15):
        x = rand_alg(rng, num=4, den=2)
        chi = reduced_char_poly(x)  # a KElem polynomial; see test_char_poly_matches_matrix_oracle
        acc, power = from_l(A, 0), ONE
        for c in chi.coeffs:
            acc, power = acc + power.scale(c), power * x
        assert acc.is_zero()


def test_char_poly_irreducible_for_noncentral_rational_elements():
    rng = random.Random(8)
    rational_cases = 0
    for _ in range(60):
        choice = rng.randrange(3)
        if choice == 0:
            x = from_l(A, rand_real_l(rng, 4, 2))
        elif choice == 1:
            x = subfield_element(A, rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
        else:
            x = rand_alg(rng, 3, 2)
        if x.is_in_k():
            continue
        try:
            chi = char_poly_rational(x)
        except ValueError:
            continue
        rational_cases += 1
        assert has_rational_root(chi) is None
    assert rational_cases >= 10


def test_reduced_norm_in_k():
    rng = random.Random(9)
    for _ in range(10):
        x = rand_alg(rng, num=4, den=2)
        det = reduced_norm(x)
        assert isinstance(det, KElem)
        assert det == reduced_char_poly(x).coeffs[0] * KElem(-1)


def test_reduced_norm_shortcuts_agree_with_matrix_determinant():
    rng = random.Random(14)
    for _ in range(20):
        # coordinates in K: twisted-circulant shortcut
        x = subfield_element(A, rand_k(rng, 4, 2), rand_k(rng, 4, 2), rand_k(rng, 4, 2))
        assert LElem(reduced_norm(x)) == matrix_embed(x).det()
        # coordinates in L only at position 0: diagonal shortcut
        y = from_l(A, rand_l(rng, 4, 2))
        assert LElem(reduced_norm(y)) == matrix_embed(y).det()


def char_poly_oracle(x: AlgElem) -> Polynomial:
    """det(X*I - M) of the embedded matrix M, computed over L.

    Trace, sum of principal 2x2 minors and determinant of the 3x3 matrix,
    each asserted to lie in K.
    """
    m = matrix_embed(x)
    r = m.rows
    trace = r[0][0] + r[1][1] + r[2][2]
    minors = L_ZERO
    for i, j in ((0, 1), (0, 2), (1, 2)):
        minors = minors + (r[i][i] * r[j][j] - r[i][j] * r[j][i])
    coeffs = []
    for val in (-m.det(), minors, -trace):
        assert val.is_in_k(), f"characteristic coefficient fell outside K: {val}"
        coeffs.append(val.c0)
    return Polynomial(coeffs + [K_ONE])


# gamma = zeta3 and zeta3^2 have z = 1; the others have z != 1.  12 - 8*zeta3 stands for the
# non-integral 3/2 - zeta3, which AlgebraSpec refuses: both give the same algebra.
ORACLE_GAMMAS = [ZETA3, ZETA3 * ZETA3, KElem(1), KElem(2), KElem(1, 1), KElem(12, -8)]


@pytest.mark.parametrize(
    "gamma, same",
    [(KElem(Fraction(3, 2), -1), "12-8*zeta3"), (KElem(Fraction(1, 2)), "4"), (KElem(0), None)],
    ids=["3/2-zeta3", "1/2", "0"],
)
def test_algebra_spec_requires_nonzero_integral_gamma(gamma, same):
    with pytest.raises(ValueError, match=r"nonzero element of Z\[zeta3\]") as err:
        AlgebraSpec(gamma)
    if same is not None:
        assert str(err.value).endswith(f"= {same}")


def test_integral_representative_gives_the_same_algebra():
    # gamma = G/d and G*d^2: in the second, e = E/d has e^3 = G/d and lambda*e = e*sigma(lambda)
    spec = AlgebraSpec(KElem(12, -8))
    assert spec.gamma_coords == (12, -8) and all(type(c) is int for c in spec.gamma_coords)
    e = spec.gen().scale(Fraction(1, 2))
    assert e * e * e == from_l(spec, KElem(Fraction(3, 2), -1))
    lam = LElem(KElem(1, 2), 3, KElem(0, -1))
    assert from_l(spec, lam) * e == e * from_l(spec, lam.sigma(1))
    assert AlgebraSpec(Fraction(2)).gamma_coords == (2, 0)


def oracle_cases(spec: AlgebraSpec, rng: random.Random) -> list[AlgElem]:
    """Random elements, elements of L, K coordinates, and one or two zero parts."""
    cases = []
    for _ in range(6):
        parts = [rand_l(rng, 6, 4) for _ in range(3)]
        cases.append(AlgElem(spec, *parts))
        cases.append(AlgElem(spec, parts[0], L_ZERO, L_ZERO))
        cases.append(AlgElem(spec, *(LElem(rand_k(rng, 6, 4)) for _ in range(3))))
        for zeros in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
            cases.append(AlgElem(spec, *(L_ZERO if i in zeros else p for i, p in enumerate(parts))))
    return cases


@pytest.mark.parametrize("gamma", ORACLE_GAMMAS, ids=str)
def test_char_poly_matches_matrix_oracle(gamma):
    spec = AlgebraSpec(gamma)
    for x in oracle_cases(spec, random.Random(31)):
        chi = char_poly_oracle(x)
        assert reduced_char_poly(x) == chi
        assert reduced_norm(x) == -chi.coeffs[0]


@pytest.mark.parametrize("gamma", ORACLE_GAMMAS, ids=str)
def test_inverse_matches_char_poly_oracle(gamma):
    spec = AlgebraSpec(gamma)
    for x in oracle_cases(spec, random.Random(37)):
        assert inverse(x) == inverse_oracle(x)


def test_inverse_examples():
    assert inverse(E) == AlgElem(A, L_ZERO, L_ZERO, LElem(KElem(-1, -1)))
    assert inverse(ONE) == ONE
    with pytest.raises(ZeroDivisionError):
        inverse(from_l(A, 0))


def test_inverse_random_contract():
    rng = random.Random(10)
    for _ in range(10):
        x = rand_alg(rng, num=4, den=2)
        if x.is_zero():
            continue
        y = inverse(x)
        assert x * y == ONE and y * x == ONE


def test_worked_example_unit():
    w = worked_example()
    unit = w.x * inverse(involution(w.x))
    assert to_zeta9(unit) == w.unit_coeffs
    assert zeta9_str(to_zeta9(unit)) == "(-10+16*z9+z9^2-4*z9^3+14*z9^4+8*z9^5)/19"


def test_split_algebra_surfaces_zero_divisor():
    # gamma = 1 is not a division algebra: 1 + E + E^2 kills 1 - E
    split = AlgebraSpec(KElem(1))
    g = split.gen()
    x = split.one() + g + g * g
    assert (x * (split.one() - g)).is_zero()
    with pytest.raises(InversionError):
        inverse(x)


def test_fixed_point_examples():
    assert involution(ONE) == ONE
    assert fixed_point_conditions(ONE) == (True, True, True)
    assert involution(E) != E
    # the rational solution v1=1, w1=1, v2=-1, w2=0 from the fixed-point conditions
    x = AlgElem(A, L_ZERO, LElem(KElem(1, 1)), LElem(KElem(-1, 0)))
    assert fixed_point_conditions(x) == (True, True, True)
    assert involution(x) == x


def _fixed_element(rng):
    x0 = rand_real_l(rng, 4, 2)
    v2, w2 = rand_real_l(rng, 4, 2), rand_real_l(rng, 4, 2)
    v1 = -(v2.sigma(1))
    w1 = w2.sigma(1) + v1
    zeta = LElem(ZETA3)
    return AlgElem(A, x0, v1 + zeta * w1, v2 + zeta * w2)


def test_fixed_point_conditions_match_fixedness():
    rng = random.Random(11)
    delta = LElem(1)
    for _ in range(40):
        x = _fixed_element(rng)
        assert fixed_point_conditions(x) == (True, True, True)
        assert involution(x) == x
        zeta = LElem(ZETA3)
        # break exactly one condition at a time
        broken0 = AlgElem(A, x.x0 + zeta * delta, x.x1, x.x2)
        assert fixed_point_conditions(broken0) == (False, True, True)
        assert involution(broken0) != broken0
        broken1 = AlgElem(A, x.x0, x.x1 + delta + zeta * delta, x.x2)
        assert fixed_point_conditions(broken1) == (True, False, True)
        assert involution(broken1) != broken1
        broken2 = AlgElem(A, x.x0, x.x1 + zeta * delta, x.x2)
        assert fixed_point_conditions(broken2) == (True, True, False)
        assert involution(broken2) != broken2


def test_subfield_element_dictionary():
    x = from_zeta9([1, 1, 0, 1, 0, 1])
    assert x == subfield_element(A, KElem(1, 1), KElem(1), KElem(0, 1))
    assert x == worked_example().x
    assert to_zeta9(x) == tuple(Fraction(v) for v in (1, 1, 0, 1, 0, 1))


def test_gen_cube_matches_zeta9_cube():
    # z9^3 corresponds to zeta3 = E^3
    assert from_zeta9([0, 0, 0, 1, 0, 0]) == from_l(A, LElem(ZETA3))


def test_subfield_products_commute():
    rng = random.Random(12)
    for _ in range(20):
        u = subfield_element(A, rand_k(rng), rand_k(rng), rand_k(rng))
        v = subfield_element(A, rand_k(rng), rand_k(rng), rand_k(rng))
        assert u * v == v * u


def test_express_in_power_basis():
    w = worked_example()
    coords = express_in_power_basis(w.x, E)
    assert coords == (KElem(1, 1), KElem(1), KElem(0, 1))
    # theta is not in the E-subfield
    assert express_in_power_basis(from_l(A, THETA), E) is None


def test_scale_is_central():
    rng = random.Random(13)
    for _ in range(10):
        x = rand_alg(rng, 4, 2)
        k = rand_k(rng, 4, 2)
        assert x.scale(k) == from_l(A, LElem(k)) * x
        assert x.scale(k) == x * from_l(A, LElem(k))
    # scalars with denominators up to 7, against the product of the L coordinates in Fractions
    for den in range(1, 8):
        for _ in range(6):
            x = rand_alg(rng, 9, 6)
            k = KElem(Fraction(rng.randint(-20, 20), den), Fraction(rng.randint(-20, 20), den))
            want = AlgElem(A, *(LElem(k) * part for part in x.coords()))
            assert x.scale(k) == want == from_l(A, LElem(k)) * x == x * from_l(A, LElem(k))
            assert x.scale(k.a0) == AlgElem(A, *(LElem(k.a0) * part for part in x.coords()))
    assert E.scale(Fraction(2, 7)).integral() == ((0,) * 6 + (2,) + (0,) * 11, 7)


# ---------------------------------------------------------------------------
# Closed forms on 18 coordinates
# ---------------------------------------------------------------------------


def flat(x: AlgElem) -> tuple:
    return tuple(c for part in x.coords() for c in part.six_tuple())


def involution_oracle(x: AlgElem) -> AlgElem:
    """conj(x0) + E*sigma(conj(x2))/gamma + E^2*sigma^2(conj(x1))/gamma, in LElem arithmetic."""
    g_inv = LElem(x.spec.gamma.inv())
    return AlgElem(x.spec, x.x0.conj(), x.x2.conj().sigma(1) * g_inv, x.x1.conj().sigma(2) * g_inv)


@pytest.mark.parametrize("gamma", ORACLE_GAMMAS, ids=str)
def test_product_closed_form_matches_loop_oracle(gamma):
    spec = AlgebraSpec(gamma)
    g = (gamma.a0, gamma.a1)
    cases = oracle_cases(spec, random.Random(41))
    for x, y in zip(cases, reversed(cases)):
        want = alg_mul_oracle(x, y)
        assert a_mul_coords(flat(x), flat(y), g) == flat(want)
        assert x * y == want


@pytest.mark.parametrize("gamma", [ZETA3, ZETA3 * ZETA3], ids=str)
def test_involution_closed_form_matches_lelem_form(gamma):
    spec = AlgebraSpec(gamma)
    for x in oracle_cases(spec, random.Random(43)):
        want = involution_oracle(x)
        assert a_involution_coords(flat(x), (gamma.a0, gamma.a1)) == flat(want)
        assert involution(x) == want


def test_closed_forms_on_integer_arrays():
    # each column of int64 and object arrays gives what the same formula gives on Fractions
    rng = random.Random(47)
    g = (0, 1)
    rows = [[rng.randint(-9, 9) for _ in range(18)] for _ in range(30)]
    rows2 = rows[1:] + rows[:1]
    for dtype in (np.int64, object):
        x, y = np.array(rows, dtype=dtype).T, np.array(rows2, dtype=dtype).T
        got = {
            "mul": a_mul_coords(x, y, g),
            "involution": a_involution_coords(x, g),
            "char": a_char_coords(x, g),
        }
        for i, (r, r2) in enumerate(zip(rows, rows2)):
            fr, fr2 = [Fraction(v) for v in r], [Fraction(v) for v in r2]
            want = {
                "mul": a_mul_coords(fr, fr2, g),
                "involution": a_involution_coords(fr, g),
                "char": a_char_coords(fr, g),
            }
            for name, values in got.items():
                assert [int(v[i]) for v in values] == list(want[name]), name


# Every closed form evaluated from a monomial table, with its argument sizes.
TABULATED = {
    "a_mul_coords": (18, 18),
    "a_embed_coords": (18,),
    "a_involution_coords": (18,),
    "a_char_coords": (18,),
    "a_unit_embed_coords": (18,),
    "_a_quotient_from": (18, 18, 18, 2, 2, 2),
}
# The number of outputs of each, pinned: the rows of its one array of outputs.
OUTPUTS = {
    "a_mul_coords": 18,
    "a_embed_coords": 54,
    "a_involution_coords": 18,
    "a_char_coords": 6,
    "a_unit_embed_coords": 72,
    "_a_quotient_from": 19,
    "a_nrd_coords": 2,
}
# Outputs tested on their own as rows of a tabulated form: Nrd is the last two outputs of the chi table.
ROWS = {"a_nrd_coords": ("a_char_coords", slice(4, 6))}
CASES = [*TABULATED, *ROWS]
TABLE_GAMMAS = {"zeta3": (0, 1), "-zeta3^2": (1, 1), "3/2-zeta3": (Fraction(3, 2), -1)}


def leaves(tree) -> list:
    """The values of a form's output, one per output coordinate (a 2-d array holds several)."""
    nested = isinstance(tree, (tuple, list)) or (isinstance(tree, np.ndarray) and tree.ndim > 1)
    return [v for t in tree for v in leaves(t)] if nested else [tree]


def assert_same_output(got, want):
    assert [np.asarray(v).tolist() for v in leaves(got)] == [np.asarray(v).tolist() for v in leaves(want)]


def form_of(name):
    """The tabulated form `name`, or the rows of one that ROWS names, with its body as `__wrapped__`."""
    if name not in ROWS:
        return getattr(unidiv.algebra, name)
    whole, rows = ROWS[name]
    form = getattr(unidiv.algebra, whole)
    view = lambda *args: form(*args)[rows]
    view.__wrapped__ = lambda *args: form.__wrapped__(*args)[rows]
    return view


def sizes_of(name) -> tuple:
    return TABULATED[ROWS[name][0] if name in ROWS else name]


def test_tabulated_forms_are_all_listed():
    forms = {n for n, f in vars(unidiv.algebra).items() if inspect.isfunction(f) and hasattr(f, "__wrapped__")}
    assert forms == set(TABULATED)


@pytest.mark.parametrize("gamma", TABLE_GAMMAS.values(), ids=TABLE_GAMMAS.keys())
@pytest.mark.parametrize("name", CASES)
def test_tables_match_closed_form_bodies(name, gamma):
    form, sizes, outputs = form_of(name), sizes_of(name), OUTPUTS[name]
    body = form.__wrapped__
    rng = random.Random(59)
    big = 10**30
    # Python integers, as AlgElem passes them: exact, and a flat tuple of Python numbers out
    args = [tuple(rng.randint(-big, big) for _ in range(n)) for n in sizes]
    got, want = form(*args, gamma), body(*args, gamma)
    assert type(got) is tuple and len(got) == len(want) == outputs
    assert_same_output(got, want)
    assert all(type(v) in (int, Fraction) for v in got)
    # object arrays with 30-digit coordinates: one (outputs, width) array, and the body gives full rows
    for width in (1, 5, 33):
        args = [np.array([[rng.randint(-big, big) for _ in range(width)] for _ in range(n)], dtype=object)
                for n in sizes]
        got, want = form(*args, gamma), body(*args, gamma)
        assert isinstance(got, np.ndarray) and got.shape == (outputs, width) and got.dtype == object
        assert len(want) == outputs and all(np.shape(v) == (width,) for v in want)
        assert_same_output(got, want)
    if any(isinstance(c, Fraction) for c in gamma):
        # a non-integral gamma puts Fractions into the table, so it runs on objects
        if name != "_a_quotient_from":  # the one form that does not read gamma
            _, _, (_, _, coefs, _, _), limit = table(name, gamma)
            assert limit == -1 and any(type(c) is not int for c in coefs)
        return
    # int64 inputs up to the int64 limit, far past the float limit: exact object rows, no overflow
    m = 2**63 - 1
    for width in (1, 5, 33):
        args = [np.array([[rng.choice((-m, m, rng.randint(-m, m))) for _ in range(width)] for _ in range(n)],
                         dtype=np.int64) for n in sizes]
        got = form(*args, gamma)
        assert isinstance(got, np.ndarray) and got.shape == (outputs, width) and got.dtype == object
        assert_same_output(got, body(*(a.astype(object) for a in args), gamma))


def table(name, gamma) -> tuple:
    """The table of a tabulated form; for rows of one, its matrix cut to those rows."""
    whole, rows = ROWS.get(name, (name, slice(None)))
    monomials, dense, sparse, limit = unidiv.algebra._table(getattr(unidiv.algebra, whole).__wrapped__,
                                                            TABULATED[whole], gamma)
    return monomials, dense[rows], sparse, limit


@contextlib.contextmanager
def tables_edited(edit):
    """Every tabulated form reads its table through edit(table)."""
    read = unidiv.algebra._table
    with mock.patch.object(unidiv.algebra, "_table", lambda *key: edit(read(*key))):
        yield


def float_tier_formula(name, gamma):
    """The float tier's arithmetic on flat inputs: each distinct monomial's product, times its coefficients."""
    monomials, dense, _, _ = table(name, gamma)
    columns = [m for group in monomials for m in group.T]

    def formula(u, g):
        products = [functools.reduce(operator.mul, (u[i] for i in m)) for m in columns]
        return [sum((int(c) * p for c, p in zip(row, products) if c), 0 * products[0]) for row in dense]

    return formula


@pytest.mark.parametrize("gamma", TABLE_GAMMAS.values(), ids=TABLE_GAMMAS.keys())
@pytest.mark.parametrize("name", CASES)
def test_float_limit_bounds_the_float_tier_tightly(name, gamma):
    _, dense, (_, _, coefs, _, _), limit = table(name, gamma)
    if any(type(c) is not int for c in coefs):
        assert limit == -1  # a non-integral coefficient: no float tier
        return
    # each matrix stays small; the unit form's, 72 x 189, is the one past 50 KB (108,864 bytes)
    assert dense.shape[0] == OUTPUTS[name] and dense.nbytes < (110_000 if name == "a_unit_embed_coords" else 50_000)
    # every monomial's partial products, coefficient products and sums in any order, on inputs |v| <= T
    formula, n = float_tier_formula(name, gamma), sum(sizes_of(name))
    assert magnitude_peak(formula, (limit,) * n, gamma) < 2**53 <= magnitude_peak(formula, (limit + 1,) * n, gamma)


@pytest.mark.parametrize("gamma", TABLE_GAMMAS.values(), ids=TABLE_GAMMAS.keys())
@pytest.mark.parametrize("name", CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_float_tier_matches_int64_object_and_body(name, gamma, data):
    form, sizes, limit = form_of(name), sizes_of(name), table(name, gamma)[-1]
    top = limit if limit >= 0 else 2**20  # no float tier: values of any size
    width = data.draw(st.integers(1, 3), label="width")
    value = st.one_of(st.sampled_from([top, -top]), st.integers(-top, top))
    line = st.lists(value, min_size=width, max_size=width)
    args = [np.array(data.draw(st.lists(line, min_size=n, max_size=n)), dtype=np.int64) for n in sizes]
    if data.draw(st.booleans(), label="one value past the limit"):
        arg = data.draw(st.integers(0, len(sizes) - 1))
        row, col = data.draw(st.integers(0, sizes[arg] - 1)), data.draw(st.integers(0, width - 1))
        args[arg][row, col] = data.draw(st.sampled_from([top + 1, -top - 1]))
    columns = [[tuple(a[:, j].tolist()) for a in args] for j in range(width)]
    objects = [a.astype(object) for a in args]
    want = form(*objects, gamma)
    assert_same_output(want, form.__wrapped__(*objects, gamma))
    got = form(*args, gamma)
    with tables_edited(lambda t: (*t[:3], -1)):  # no float limit: the object path
        sparse = form(*args, gamma)
    with tables_edited(lambda t: (t[0], 0 * t[1], *t[2:])):  # zero coefficients, read by the float tier alone
        zeroed = form(*args, gamma), [form(*c, gamma) for c in columns]
    within = lambda arrays: max(abs(v) for a in arrays for v in np.ravel(a).tolist()) <= limit
    assert got.dtype == (np.int64 if within(args) else object) and sparse.dtype == object
    assert got.tolist() == sparse.tolist() == want.tolist()
    assert zeroed[0].tolist() == (np.zeros_like(want) if within(args) else want).tolist()
    for j, c in enumerate(columns):
        out = form(*c, gamma)
        assert type(out) is tuple and list(out) == want[:, j].tolist() == list(form.__wrapped__(*c, gamma))
        assert all(type(v) is int for v in out) or limit < 0
        assert list(zeroed[1][j]) == ([0] * len(out) if within(c) else list(out))


@pytest.mark.parametrize("name", TABULATED)
def test_float_tier_allocates_one_work_array_per_call(name):
    # the monomials are formed in one work array, (monomials + the largest degree group) x width, and nothing
    # else the float tier allocates grows with the width past its inputs and outputs, so a call frees one large
    # block: several freed at the top of the heap would let the allocator return it to the system every call
    form, sizes = getattr(unidiv.algebra, name), TABULATED[name]
    monomials, dense, _, _ = table(name, (0, 1))
    width = 64
    args = [np.ones((n, width), dtype=np.int64) for n in sizes]
    form(*args, (0, 1))
    tracemalloc.start()
    try:
        assert form(*args, (0, 1)).dtype == np.int64
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    work = (dense.shape[1] + max(m.shape[1] for m in monomials)) * width * 8
    inputs, outputs = 2 * sum(sizes) * width * 8, 2 * dense.shape[0] * width * 8
    assert work <= peak <= work + inputs + outputs + 16384


def test_outputs_without_terms_are_zero_on_both_tiers():
    # at gamma = 0 the entries above the diagonal of matrix_embed vanish: 18 outputs with no coefficients
    form, gamma = unidiv.algebra.a_embed_coords, (0, 0)
    _, _, (*_, outs), limit = table("a_embed_coords", gamma)
    zero = [6 * (3 * r + c) + i for r in range(3) for c in range(r + 1, 3) for i in range(6)]
    assert len(zero) == 18 and not set(zero) & set(outs.tolist()) and limit > 0
    rng = random.Random(61)
    big = 10**30
    inputs = [
        np.array([[rng.randint(-big, big) for _ in range(5)] for _ in range(18)], dtype=object),
        np.array([[rng.choice((-limit, limit, rng.randint(-limit, limit))) for _ in range(5)] for _ in range(18)],
                 dtype=np.int64),
        tuple(rng.choice((-limit - 1, limit + 1, rng.randint(-big, big))) for _ in range(18)),
    ]
    for x in inputs:
        got = form(x, gamma)
        assert_same_output(got, form.__wrapped__(x, gamma))
        assert all(np.all(np.asarray(got[i]) == 0) for i in zero)
    assert form(inputs[1], gamma).dtype == np.int64  # within the float limit: the float tier


MIXED_PAST_2_63 = (-1, 2**63, 2**64 - 1, 2**63 + 1, 1)  # NumPy makes float64 of these


@pytest.mark.parametrize("gamma", TABLE_GAMMAS.values(), ids=TABLE_GAMMAS.keys())
@pytest.mark.parametrize("name", CASES)
def test_python_ints_of_mixed_sign_past_2_63_stay_exact(name, gamma):
    assert np.array(MIXED_PAST_2_63).dtype == float
    form, sizes = form_of(name), sizes_of(name)
    args = [tuple(MIXED_PAST_2_63[(i + j) % 5] for j in range(n)) for i, n in enumerate(sizes)]
    got = form(*args, gamma)
    assert type(got) is tuple and all(type(v) in (int, Fraction) for v in got)
    assert_same_output(got, form.__wrapped__(*args, gamma))


def test_elements_of_mixed_sign_past_2_63_stay_exact():
    x = AlgElem.from_integral(A, [MIXED_PAST_2_63[j % 5] for j in range(18)], 1)
    y = AlgElem.from_integral(A, [MIXED_PAST_2_63[j % 4] for j in range(18)], 3)
    assert x * y == alg_mul_oracle(x, y)
    assert x * inverse(x) == A.one()
    assert reduced_norm(x) == -reduced_char_poly(x).coeffs[0]


def test_unit_embed_form_is_the_product_with_the_involution_then_the_embedding():
    # its 72 rows are a_mul_coords(x, a_involution_coords(x)) then a_embed_coords(x), on every tier
    g = (0, 1)
    limit = table("a_unit_embed_coords", g)[-1]
    rng = random.Random(67)
    inputs = [
        np.array([[rng.choice((-limit, limit, rng.randint(-limit, limit))) for _ in range(7)] for _ in range(18)],
                 dtype=np.int64),  # within the float limit
        np.array([[rng.choice((-limit - 1, limit + 1, rng.randint(-2**62, 2**62))) for _ in range(7)]
                  for _ in range(18)], dtype=np.int64),  # past it
        np.array([[rng.randint(-10**30, 10**30) for _ in range(7)] for _ in range(18)], dtype=object),
    ]
    for x, dtype in zip(inputs, (np.int64, object, object)):
        got = unidiv.algebra.a_unit_embed_coords(x, g)
        want = np.concatenate([a_mul_coords(x, a_involution_coords(x, g), g), unidiv.algebra.a_embed_coords(x, g)])
        assert got.shape == (72, 7) and got.dtype == dtype and got.tolist() == want.tolist()


def test_nrd_and_char_closed_forms_match_elements():
    # t, s and Nrd, the six outputs of the one chi table, against the elements' polynomial and the
    # trace, minors and determinant of the embedded matrix over L on Fractions
    rng = random.Random(53)
    for _ in range(20):
        x = rand_alg(rng, num=6, den=4)
        chi = a_char_coords(flat(x), (0, 1))
        want = char_poly_oracle(x)
        assert KElem(*chi[4:]) == reduced_norm(x) == -want.coeffs[0] == -reduced_char_poly(x).coeffs[0]
        assert (KElem(*chi[:2]), KElem(*chi[2:4])) == (-want.coeffs[2], want.coeffs[1])
        assert reduced_char_poly(x) == want
