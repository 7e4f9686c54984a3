"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every numeric tolerance is pinned here; the randomized
criteria use fixed seeds and exact arithmetic throughout.
"""

import random
import time
from fractions import Fraction

import numpy as np

from conftest import rand_alg, rand_k, rand_l, rand_real_l
from oracles import fixed_point_conditions, pairwise_determinants, rows_conj_transpose, rows_mul
from unidiv.algebra import (
    AlgElem,
    STANDARD_ALGEBRA,
    inverse,
    involution,
    matrix_embed,
    reduced_char_poly,
    subfield_element,
    to_zeta9,
    worked_example,
)
from unidiv.cli import _GOLDEN_NUMERIC, _display_units, serialize_element
from unidiv.codebook import (
    Box,
    first_non_unitary,
    generate_codebook,
    min_det_report,
    norm_witness_search,
    numeric_embeddings,
    subfield,
    subfield_table_row,
)
from unidiv.fields import K_ONE, KElem, LElem, THETA, ZETA3
from unidiv.polynomials import Polynomial

A = STANDARD_ALGEBRA
ONE = A.one()


def _finish(n: int, budget: float, start: float, detail: str):
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {n} exceeded its budget: {elapsed:.2f}s"
    print(f"[PASS] criterion {n} ({elapsed:.2f}s < {budget:g}s): {detail}")


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    expected = {
        1: ("X^3+X^2-5X-3", ((2, 2), (3, 1), (47, 1))),
        2: ("X^3-X^2-12X+1", ((11, 1), (659, 1))),
        3: ("X^3-6X-1", ((3, 3), (31, 1))),
        4: ("X^3-11X+9", ((3137, 1),)),
        5: ("X^3-X^2-61X-13", ((2, 2), (307, 1), (727, 1))),
    }
    for k, (poly, factors) in expected.items():
        row = subfield_table_row(k)
        assert str(row.poly) == poly, f"row {k}: {row.poly}"
        assert row.factors == factors, f"row {k}: {row.factors}"
    _finish(1, 1.0, start, "all five reduced minimal polynomials and factored discriminants")


def test_criterion_2_worked_example():
    start = time.perf_counter()
    w = worked_example()
    x = w.x

    # (a) exact matrix embedding
    assert matrix_embed(x).render() == [
        ["1+zeta3", "-1-zeta3", "zeta3"],
        ["1", "1+zeta3", "-1-zeta3"],
        ["zeta3", "1", "1+zeta3"],
    ]

    # (b) exact involution image
    ax = involution(x)
    assert ax == w.involution_image

    # (c) exact unit expansion over 1..z9^5
    unit = x * inverse(ax)
    assert to_zeta9(unit) == tuple(Fraction(n, 19) for n in (-10, 16, 1, -4, 14, 8))

    # (d) numeric matrix against the reference decimals (stored transposed);
    # each entry is compared at one unit of its displayed precision, which
    # is the stated 0.001 for the three-decimal entries, exactly
    assert first_non_unitary([unit]) is None
    numeric = numeric_embeddings([unit])[0][0].tolist()
    for i in range(3):
        for j in range(3):
            want = _GOLDEN_NUMERIC[j][i]
            got = numeric[i][j]
            for text, value in zip(want, (got.real, got.imag)):
                assert _display_units(value, text) <= 1, (
                    f"entry ({i},{j}): {value} vs {text}"
                )
    _finish(2, 1.0, start, "matrix, involution image, unit expansion, numeric decimals")


def test_criterion_3_char_poly_of_generator():
    start = time.perf_counter()
    chi = reduced_char_poly(A.gen())
    assert chi == Polynomial([KElem(0, -1), KElem(0), KElem(0), K_ONE])
    assert str(chi) == "X^3-zeta3"
    _finish(3, 1.0, start, "characteristic polynomial of the generator is X^3 - zeta3")


def test_criterion_4_involution_suite():
    start = time.perf_counter()
    rng = random.Random(2024)
    failures = 0
    elements = [rand_alg(rng) for _ in range(1000)]
    for idx in range(0, 1000, 2):
        x, y = elements[idx], elements[idx + 1]
        if involution(x + y) != involution(x) + involution(y):
            failures += 1
        if involution(x * y) != involution(y) * involution(x):
            failures += 1
    for x in elements:
        if involution(involution(x)) != x:
            failures += 1
        if matrix_embed(involution(x)).rows != rows_conj_transpose(matrix_embed(x).rows):
            failures += 1
    assert failures == 0, f"{failures} exact involution failures"
    _finish(4, 30.0, start, "1000 random elements, all four identities exact")


def test_criterion_5_unitarity_equivalence():
    start = time.perf_counter()
    rng = random.Random(777)
    ident_exact = matrix_embed(ONE).rows

    produced = 0
    while produced < 200:
        u = subfield_element(A, rand_k(rng), rand_k(rng), rand_k(rng))
        if u.is_zero():
            continue
        x = u * inverse(involution(u))
        assert x * involution(x) == ONE
        m = matrix_embed(x).rows
        assert rows_mul(m, rows_conj_transpose(m)) == ident_exact
        num = numeric_embeddings([x])[0][0]
        defect = np.max(np.abs(num @ num.conj().T - np.eye(3)))
        assert defect < 1e-12, f"numeric defect {defect}"
        produced += 1

    checked = 0
    while checked < 200:
        x = rand_alg(rng)
        unitary_alg = x * involution(x) == ONE
        m = matrix_embed(x).rows
        unitary_mat = rows_mul(m, rows_conj_transpose(m)) == ident_exact
        assert unitary_alg == unitary_mat
        if not unitary_alg:
            checked += 1
    _finish(5, 60.0, start, "200 units and 200 non-units, equivalence exact both ways")


def test_criterion_6_full_diversity():
    start = time.perf_counter()
    cb = generate_codebook(subfield("zeta9"), Box(1, 1), 60)
    assert cb.complete and len(cb.elements) == 60
    assert len(set(cb.elements)) == 60
    for _, _, det in pairwise_determinants(cb.elements):
        assert not det.is_zero()
    report = min_det_report(cb.elements)
    assert report.exact_nonzero and report.zeta > 0
    mats = [np.array(m) for m in cb.matrices]
    numeric_min = min(
        abs(np.linalg.det(mats[i] - mats[j]))
        for i in range(len(mats))
        for j in range(i + 1, len(mats))
    )
    assert abs(numeric_min - report.min_abs_det) <= 1e-9 * numeric_min
    _finish(6, 120.0, start, f"60-element codebook fully diverse, zeta={report.zeta:.6f}")


def test_criterion_7_fixed_point_conditions():
    start = time.perf_counter()
    rng = random.Random(909)
    zeta = LElem(ZETA3)
    delta = LElem(1)

    def build_fixed():
        x0 = rand_real_l(rng, 4, 2)
        v2, w2 = rand_real_l(rng, 4, 2), rand_real_l(rng, 4, 2)
        v1 = -(v2.sigma(1))
        w1 = w2.sigma(1) + v1
        return AlgElem(A, x0, v1 + zeta * w1, v2 + zeta * w2)

    discrepancies = []
    for i in range(500):
        x = build_fixed()
        conds = fixed_point_conditions(x)
        fixed = involution(x) == x
        if not (all(conds) and fixed):
            discrepancies.append((serialize_element(x), conds, fixed))

    for i in range(500):
        x = build_fixed()
        which = i % 3
        if which == 0:
            broken = AlgElem(A, x.x0 + zeta * delta, x.x1, x.x2)
        elif which == 1:
            broken = AlgElem(A, x.x0, x.x1 + delta + zeta * delta, x.x2)
        else:
            broken = AlgElem(A, x.x0, x.x1 + zeta * delta, x.x2)
        conds = fixed_point_conditions(broken)
        fixed = involution(broken) == broken
        expected = tuple(j != which for j in range(3))
        if conds != expected or fixed or all(conds):
            discrepancies.append((serialize_element(broken), conds, fixed))

    assert not discrepancies, f"condition/fixedness discrepancies: {discrepancies!r}"
    _finish(7, 30.0, start, "500 fixed + 500 single-violation elements, equivalence exact")


def test_criterion_8_norm_witness_evidence():
    start = time.perf_counter()
    box = Box(3, 2)
    # positive controls: cubes of rationals in the box have obvious witnesses
    w = norm_witness_search(KElem(8), box)
    assert w == LElem(2)
    w = norm_witness_search(KElem(Fraction(27, 8)), box)
    assert w == LElem(Fraction(3, 2))
    # no witness for gamma or gamma^2 inside the box (evidence, not proof)
    assert norm_witness_search(ZETA3, box) is None
    assert norm_witness_search(ZETA3 * ZETA3, box) is None
    _finish(8, 300.0, start, "controls found; no witness for zeta3 or zeta3^2 at B=3, D=2")


def test_criterion_9_field_layer_properties():
    start = time.perf_counter()
    rng = random.Random(31)
    m = THETA * THETA * THETA + THETA * THETA - LElem(2) * THETA - LElem(1)
    assert m.is_zero()
    for _ in range(1000):
        a = rand_l(rng)
        assert a.sigma(1).sigma(1).sigma(1) == a
        assert a.sigma(1).conj() == a.conj().sigma(1)
    for _ in range(500):
        a, b = rand_l(rng, 5, 3), rand_l(rng, 5, 3)
        assert (a * b).norm_to_k() == a.norm_to_k() * b.norm_to_k()
    _finish(9, 10.0, start, "sigma order, conjugation commutes, norms multiply, theta root")
