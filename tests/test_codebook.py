import functools
import json
import math
import os
import random
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_alg, rand_k
from oracles import (
    charpoly3_oracle,
    codebook_oracle,
    enumerate_subfield,
    express_in_power_basis,
    from_l,
    iter_box_tuples,
    matl_to_complex,
    matmul3,
    matrix_embed_oracle,
    norm_witness_oracle,
    pairwise_determinants,
    subfield_matrix_oracle,
)
import unidiv.codebook
from unidiv.algebra import (
    AlgebraSpec,
    InversionError,
    InvolutionUnavailable,
    STANDARD_ALGEBRA,
    AlgElem,
    _Poly,
    inverse,
    involution,
    reduced_norm,
    subfield_element,
    to_zeta9,
    worked_example,
)
from unidiv.cli import parse_element
from unidiv.codebook import (
    _DET_ERROR,
    _NORM_MASS,
    _PAIR_CHUNK,
    _box_arrays,
    _charpoly3,
    _columns,
    _hilbert90_batch,
    _k_modulus,
    _norm_halves,
    _norm_split,
    _numeric_pair_dets,
    _pair_norms,
    _unit_matrices,
    _unit_rows,
    _witness_strata,
    Box,
    Codebook,
    DiversityReport,
    PreconditionError,
    SubfieldSpec,
    box_chunks,
    division_certificate,
    family_report,
    first_non_unitary,
    generate_codebook,
    hilbert90_unit,
    min_det_report,
    norm_witness_search,
    nu_generator,
    numeric_embeddings,
    reduce_generator_poly,
    subfield,
    subfield_candidates,
    subfield_table,
    subfield_table_row,
)
from unidiv.fields import THETA, THETA_EMBEDDINGS, KElem, LElem, ZETA3, ZETA3_COMPLEX, l_norm_coords
from unidiv.polynomials import (
    Polynomial,
    discriminant_cubic,
    has_rational_root,
)

A = STANDARD_ALGEBRA
ONE = A.one()
DATA = Path(__file__).resolve().parent / "data"


def data_elements(name: str) -> list[AlgElem]:
    """The elements of the codebook file tests/data/diversity/NAME.json."""
    records = json.loads((DATA / "diversity" / f"{name}.json").read_text())["elements"]
    return [parse_element(rec) for rec in records]


def same_bits(got, want) -> bool:
    """Complex arrays equal bit for bit: == cannot tell -0.0 from 0.0, but the JSON output can."""
    want = np.array(want, dtype=complex).reshape(np.shape(got))
    return np.array_equal(np.asarray(got).view(np.uint64), want.view(np.uint64))


def test_box_values_order():
    vals = Box(2, 2).values()
    assert vals[0] == 0
    assert set(vals) == {
        Fraction(n, d) for n in range(-2, 3) for d in (1, 2)
    }
    heights = [max(abs(v.numerator), v.denominator) if v else 0 for v in vals]
    assert heights == sorted(heights)


def test_box_validation():
    with pytest.raises(ValueError):
        Box(0, 1)
    with pytest.raises(ValueError):
        Box(1, 0)


def test_iter_box_tuples_counts_and_order():
    tuples = list(iter_box_tuples(Box(1, 1)))
    assert len(tuples) == 3**6 - 1
    assert len(set(tuples)) == len(tuples)
    # first coordinate varies fastest; the first candidate is the constant 1
    assert tuples[0] == (Fraction(1), 0, 0, 0, 0, 0)
    # height stratification: all height-1 tuples precede any height-2 tuple
    big = list(iter_box_tuples(Box(2, 1)))
    hts = [max(abs(f.numerator) for f in t) for t in big]
    assert hts == sorted(hts)


def test_box_scale():
    assert [Box(3, d).scale for d in (1, 2, 3, 4, 13)] == [1, 2, 6, 12, 360360]


def box_chunk_tuples(box: Box, chunk: int, dtype, count=None) -> list:
    """The first `count` (default all) tuples of box_chunks, each chunk checked for size and dtype."""
    out = []
    for a in box_chunks(box, chunk, dtype):
        assert len(a) == 6 and 0 < len(a[0]) <= chunk
        assert all(c.dtype == dtype and len(c) == len(a[0]) for c in a)
        out += zip(*(c.tolist() for c in a))
        if count is not None and len(out) >= count:
            return out[:count]
    return out


@functools.cache
def scaled_reference(box: Box, count=None) -> list:
    return [tuple(v * box.scale for v in t) for t in islice(iter_box_tuples(box), count)]


@pytest.mark.parametrize("chunk", [1, 7, 32, 8192])
@pytest.mark.parametrize(
    "box", [Box(1, 1), Box(2, 1), Box(1, 2), Box(2, 2)], ids=lambda b: f"B{b.numerator_bound}D{b.denominator_bound}"
)
def test_box_chunks_follow_reference_order(box, chunk):
    assert box_chunk_tuples(box, chunk, np.int64) == scaled_reference(box)


def test_box_chunks_object_dtype():
    # Box(1, 13) has scale 360360; its first 16,000 tuples cross into the third stratum
    box = Box(1, 13)
    got = box_chunk_tuples(box, 8192, object, 16000)
    assert got == scaled_reference(box, 16000)
    assert all(type(v) is int for t in got for v in t)


def test_enumerate_contains_worked_example_unit_source():
    sub = subfield("zeta9")
    stream = list(enumerate_subfield(sub, Box(1, 1)))
    assert worked_example().x in stream
    assert len(stream) == 728


def test_subfield_specs():
    for kind, k in (("zeta9", None), ("nu", 1), ("nu", 3), ("L", None)):
        sub = subfield(kind, k)
        g = sub.generator
        assert not g.is_in_k()
        # involution stability was checked at construction; spot-check closure
        assert sub.element([1, 0, 0, 0, 0, 0]) == ONE
        for coords in ([1, 1, 0, 1, 0], [1, 1, 0, 1, 0, 1, 1]):
            with pytest.raises(ValueError, match="expected six rational coordinates"):
                sub.element(coords)
    with pytest.raises(ValueError):
        subfield("nu")
    with pytest.raises(ValueError):
        subfield("unknown")


def stability_cases():
    """The seven CLI generators, their a + b*g reparametrisations, and seven more."""
    cases = []
    for kind, k in [("zeta9", None), *(("nu", k) for k in range(1, 6)), ("L", None)]:
        g = subfield(kind, k).generator
        name = kind if k is None else f"nu{k}"
        cases.append((name, g))
        for a in (1, -1, 2):
            for b in (1, -1, 2):
                cases.append((f"{name}[{a}+{b}g]", g.scale(b) + ONE.scale(a)))
    theta, e, z = from_l(A, THETA), A.gen(), from_l(A, LElem(ZETA3))
    cases += [
        ("theta+E", theta + e),
        ("theta*E", theta * e),
        ("theta+zeta3", theta + z),
        ("zeta3*theta", z * theta),
        ("E+E^2", e + e * e),
        ("zeta3*E", z * e),
        ("(1+zeta3)*E", (ONE + z) * e),
    ]
    return cases


STABILITY_CASES = stability_cases()


@pytest.mark.parametrize("g", [g for _, g in STABILITY_CASES], ids=[n for n, _ in STABILITY_CASES])
def test_subfield_stability_matches_power_basis_oracle(g):
    stable = express_in_power_basis(involution(g), g) is not None
    if stable:
        assert SubfieldSpec("test", None, g, "test").generator == g
    else:
        with pytest.raises(ValueError, match="not stable under the involution"):
            SubfieldSpec("test", None, g, "test")


STABLE_CASES = [(n, g) for n, g in STABILITY_CASES if n not in ("theta+E", "theta*E")]


@pytest.mark.parametrize("g", [g for _, g in STABLE_CASES], ids=[n for n, _ in STABLE_CASES])
def test_subfield_matrix_and_element_match_algelem_products(g):
    sub = SubfieldSpec("test", None, g, "test")
    spec = g.spec
    powers, z = [spec.one(), g, g * g], from_l(spec, ZETA3)
    # the rows of sub.matrix are q times 1, zeta3, g, zeta3*g, g^2, zeta3*g^2, q their least denominator
    basis = [b * w for b in powers for w in (spec.one(), z)]
    m = sub.matrix
    q = m[0][0]
    assert q == math.lcm(*(b.integral()[1] for b in basis))
    assert [AlgElem.from_integral(spec, row, q) for row in m] == basis
    # element(c) is sum_i (c_2i + c_2i+1*zeta3) * g^i, for coordinates over denominators 1..6
    rng = random.Random(67)
    for den in range(1, 7):
        c = [Fraction(rng.randint(-9, 9), den) for _ in range(6)]
        want = sum((from_l(spec, KElem(c[2 * i], c[2 * i + 1])) * powers[i] for i in range(3)), from_l(spec, 0))
        assert sub.element(c) == want
        assert sub.element([str(v) for v in c]) == want


# Generators with denominators, so that q = matrix[0][0] exceeds 1 (every CLI generator has q = 1).
DENOMINATOR_CASES = [
    *((f"{n}[1/3+g/2]", g.scale(Fraction(1, 2)) + ONE.scale(Fraction(1, 3))) for n, g in STABLE_CASES[:70:10]),
    ("nu5[5/6+(1/2+zeta3/3)g]",
     nu_generator(5).scale(KElem(Fraction(1, 2), Fraction(1, 3))) + ONE.scale(Fraction(5, 6))),
]


@pytest.mark.parametrize(
    "name, g", STABLE_CASES + DENOMINATOR_CASES, ids=[n for n, _ in STABLE_CASES + DENOMINATOR_CASES]
)
def test_subfield_matrix_matches_scale_oracle(name, g):
    # the zeta3 rows come from the integer map (a0, a1) -> (-a1, a0 - a1), not from AlgElem.scale
    sub = SubfieldSpec("test", None, g, "test")
    m = sub.matrix
    assert m == subfield_matrix_oracle(sub)
    assert all(type(v) is int for row in m for v in row)
    assert m[0][0] == math.lcm(*(b.integral()[1] for b in (g.spec.one(), g, g * g)))
    assert (m[0][0] > 1) == ("/" in name)


def test_stability_cases_unstable_exactly_theta_plus_e_and_theta_e():
    assert len(STABILITY_CASES) == 77
    unstable = [n for n, g in STABILITY_CASES if express_in_power_basis(involution(g), g) is None]
    assert unstable == ["theta+E", "theta*E"]


def test_subfield_spec_rejects_uncertified_gamma():
    # gamma = 1 is split: (1 - E)(1 + E + E^2) = 0, so K[E] is not a field
    split = AlgebraSpec(KElem(1))
    with pytest.raises(ValueError, match="division certificate"):
        SubfieldSpec("split", None, split.gen(), "K[E], gamma = 1")


def test_subfield_spec_rejects_unstable_generator():
    with pytest.raises(ValueError, match="not stable under the involution"):
        SubfieldSpec("theta+E", None, from_l(A, THETA) + A.gen(), "K[theta+E]")


def test_nu_generators_are_involution_fixed():
    for k in range(1, 6):
        nu = nu_generator(k)
        assert involution(nu) == nu


def test_integer_constructors_match_lelem_constructors():
    # the generators and constants built from their integer coordinates, against the LElem-built values
    for k in range(1, 6):
        assert nu_generator(k) == AlgElem(A, LElem(0, k, 0), LElem(KElem(1, 1)), LElem(KElem(-1)))
    assert subfield("L").generator == from_l(A, THETA)
    for spec in (A, AlgebraSpec(ZETA3 * ZETA3), AlgebraSpec(KElem(2, 1))):
        assert AlgElem.from_integral(spec, (), 1) == AlgElem(spec, LElem(0), LElem(0), LElem(0))
        assert spec.one() == AlgElem(spec, LElem(1), LElem(0), LElem(0))
        assert spec.gen() == AlgElem(spec, LElem(0), LElem(1), LElem(0))
        assert AlgElem.from_integral(spec, (), 1).is_zero() and spec.one().is_in_k() and not spec.gen().is_in_k()


def test_hilbert90_worked_example():
    w = worked_example()
    x = hilbert90_unit(w.x)
    assert to_zeta9(x) == w.unit_coeffs
    assert x * involution(x) == ONE


def test_hilbert90_gen():
    e = A.gen()
    x = hilbert90_unit(e)
    assert x == e * e
    assert x * involution(x) == ONE


def test_hilbert90_fixed_input_gives_identity():
    u = AlgElem(A, LElem(0, 2, 0), LElem(KElem(1, 1)), LElem(KElem(-1)))
    assert involution(u) == u
    assert hilbert90_unit(u) == ONE


def test_hilbert90_rejects_zero():
    with pytest.raises(ValueError):
        hilbert90_unit(from_l(A, 0))


def test_hilbert90_rejects_noncommuting():
    # theta + E does not commute with its involution image
    u = AlgElem(A, LElem(0, 1, 0), LElem(1), LElem(0))
    au = involution(u)
    assert u * au != au * u
    with pytest.raises(PreconditionError, match="commute"):
        hilbert90_unit(u)
    # random elements mostly fail the check; x + involution(x), x * involution(x) and subfield elements pass it
    rng = random.Random(23)
    cases = []
    for _ in range(12):
        x = rand_alg(rng, num=4, den=3)
        cases += [x, x + involution(x), x * involution(x)]
    cases += [subfield(kind, k).element([rng.randint(-3, 3) for _ in range(6)]) for kind, k in CLI_SUBFIELDS]
    outcomes = set()
    for u in filter(lambda u: not u.is_zero(), cases):
        au = involution(u)
        commutes = u * au == au * u
        outcomes.add(commutes)
        if commutes:
            assert hilbert90_unit(u) == u * inverse(au)
        else:
            with pytest.raises(PreconditionError, match="commute"):
                hilbert90_unit(u)
    assert outcomes == {True, False}


def test_hilbert90_passes_involution_unavailable_through():
    # gamma = 2 has z = 4, so there is no involution; that is not a failed commute check
    u = AlgebraSpec(KElem(2)).gen()
    with pytest.raises(InvolutionUnavailable):
        hilbert90_unit(u)
    assert not issubclass(InvolutionUnavailable, PreconditionError)


def test_hilbert90_names_zero_divisor():
    # gamma = 1 is split: 1 - E commutes with its involution image 1 - E^2 but Nrd = 0
    one = AlgebraSpec(KElem(1)).one()
    u = one - one.spec.gen()
    assert u * involution(u) == involution(u) * u
    with pytest.raises(InversionError, match="zero reduced norm"):
        hilbert90_unit(u)


def test_hilbert90_takes_the_family_column_and_makes_no_algelem_product(monkeypatch):
    # the commute check is SubfieldSpec's one product: no AlgElem product runs; the worked example goes in as an
    # int64 column, the same u times 2^70 as an object column, and each unit is u * involution(u)^(-1)
    u = worked_example().x
    cases = [u, u.scale(2**70)]
    want = [x * inverse(involution(x)) for x in cases]
    sent, batch = [], unidiv.codebook._hilbert90_batch
    monkeypatch.setattr(unidiv.codebook, "_hilbert90_batch", lambda c, gamma: sent.append(c.dtype) or batch(c, gamma))
    monkeypatch.setattr(AlgElem, "__mul__", lambda x, y: pytest.fail("AlgElem product"))
    got = [hilbert90_unit(x) for x in cases]
    monkeypatch.undo()
    assert sent == [np.int64, object]
    assert got == want
    assert max(abs(v) for v in cases[1].integral()[0]) > 2**63


def test_generate_codebook_rejects_a_noncommuting_candidate(monkeypatch):
    # a candidate outside every involution-stable subfield cannot come from a SubfieldSpec; injected, it
    # gives a non-unitary x that equals no unit before it, so the exact unit check on the emitted units fails
    sub = subfield("zeta9")
    bad = AlgElem(A, LElem(0, 1, 0), LElem(1), LElem(0))
    stream = [bad, *islice(enumerate_subfield(sub, Box(1, 1)), 20), bad]
    # the chunks generate_codebook reads: candidates as integer columns
    columns = np.array([u.integral()[0] for u in stream], dtype=object).T
    chunks = [(columns[:, :8], np.arange(8)), (columns[:, 8:], np.arange(8, len(stream)))]
    monkeypatch.setattr(unidiv.codebook, "subfield_candidates", lambda sub, box: iter(chunks))
    with pytest.raises(AssertionError, match="^unit postcondition failed$"):
        generate_codebook(sub, Box(1, 1), 100)


def test_hilbert90_scaling_invariance():
    rng = random.Random(21)
    for _ in range(10):
        u = subfield_element(A, rand_k(rng, 3, 2), rand_k(rng, 3, 2), rand_k(rng, 3, 2))
        if u.is_zero():
            continue
        for c in (Fraction(2), Fraction(-1), Fraction(3, 4)):
            assert hilbert90_unit(u.scale(c)) == hilbert90_unit(u)


def test_unitary_matrix_numeric():
    w = worked_example()
    x = hilbert90_unit(w.x)
    assert first_non_unitary([x]) is None
    m = numeric_embeddings([x])[0][0]
    assert np.max(np.abs(m @ m.conj().T - np.eye(3))) < 1e-12
    assert first_non_unitary([ONE]) is None
    ident = numeric_embeddings([ONE])[0][0]
    assert np.max(np.abs(ident - np.eye(3))) == 0.0
    assert first_non_unitary([w.x]) == 0  # x itself is not unitary


def test_generate_codebook_first_ten():
    cb = generate_codebook(subfield("zeta9"), Box(1, 1), 10)
    assert len(cb.elements) == 10
    assert cb.complete
    assert cb.elements[0] == ONE
    assert len(set(cb.elements)) == 10
    for x in cb.elements:
        assert x * involution(x) == ONE
    # brute-force oracle: ordered dedupe over the same stream
    seen = []
    for u in enumerate_subfield(subfield("zeta9"), Box(1, 1)):
        au = involution(u)
        if u * au != au * u:
            continue
        x = u * inverse(au)
        if x not in seen:
            seen.append(x)
        if len(seen) == 10:
            break
    assert seen == cb.elements


def test_generate_codebook_singleton():
    cb = generate_codebook(subfield("zeta9"), Box(1, 1), 1)
    assert cb.elements == [ONE]


def test_fixed_inputs_collapse_to_identity():
    # scalar rational u are involution-fixed; they all map to the identity
    sub = subfield("zeta9")
    units = {hilbert90_unit(sub.element([n, 0, 0, 0, 0, 0])) for n in (1, -1, 2)}
    assert units == {ONE}


def test_generate_codebook_partial_flag():
    cb = generate_codebook(subfield("zeta9"), Box(1, 1), 100000)
    assert not cb.complete
    assert len(cb.elements) == 182
    assert cb.candidates_scanned == 728


def test_generate_codebook_nu_subfield():
    cb = generate_codebook(subfield("nu", 1), Box(1, 1), 8)
    assert cb.complete
    for x in cb.elements:
        assert x * involution(x) == ONE


CLI_SUBFIELDS = [("zeta9", None), *(("nu", k) for k in range(1, 6)), ("L", None)]
CLI_IDS = ["zeta9", *(f"nu{k}" for k in range(1, 6)), "L"]


def assert_matches_fraction_oracle(sub: SubfieldSpec, box: Box, size: int):
    """generate_codebook against the per-candidate Fraction path: units, order, counts, matrices.  The oracle
    checks each candidate's commute precondition, which SubfieldSpec's stability makes hold for every one."""
    cb = generate_codebook(sub, box, size)
    elements, scanned, failures = codebook_oracle(enumerate_subfield(sub, box), size)
    assert cb.elements == elements
    assert failures == 0
    assert cb.candidates_scanned == scanned
    assert cb.complete == (len(elements) == size)
    # the same floats as the LElem embedding, in the same operation order, signed zeros included
    assert same_bits(cb.matrices, [matl_to_complex(matrix_embed_oracle(x)) for x in elements])
    return cb


@pytest.mark.parametrize("kind, k", CLI_SUBFIELDS, ids=CLI_IDS)
def test_generate_codebook_matches_fraction_oracle_to_exhaustion(kind, k):
    cb = assert_matches_fraction_oracle(subfield(kind, k), Box(1, 1), 10**6)
    assert not cb.complete and cb.candidates_scanned == 728


@pytest.mark.parametrize("box", [Box(2, 1), Box(1, 2)], ids=["B2D1", "B1D2"])
@pytest.mark.parametrize("kind, k, size", [("zeta9", None, 192), ("nu", 1, 278)], ids=["zeta9", "nu1"])
def test_generate_codebook_matches_fraction_oracle_on_prefixes(kind, k, size, box):
    # ten units beyond those of the 728 height-1 candidates, so the prefix
    # reaches into the height-2 stratum
    cb = assert_matches_fraction_oracle(subfield(kind, k), box, size)
    assert cb.complete and cb.candidates_scanned > 728


@pytest.mark.parametrize("kind, k", CLI_SUBFIELDS, ids=CLI_IDS)
def test_generate_codebook_matches_fraction_oracle_on_reparametrised_generators(kind, k):
    g = subfield(kind, k).generator
    for a in (1, -1, 2):
        for b in (1, -1, 2):
            sub = SubfieldSpec(kind, k, g.scale(b) + ONE.scale(a), f"{a}+{b}g")
            assert_matches_fraction_oracle(sub, Box(1, 1), 6)


def test_generate_codebook_object_dtype_matches_fraction_oracle():
    # Q = lcm(1..13) = 360360: the candidates fit int64, and the unit forms pass the float limit into objects
    sub = subfield("zeta9")
    u, _ = next(subfield_candidates(sub, Box(1, 13)))
    assert u.dtype == np.int64
    x, d = _hilbert90_batch(u, sub.generator.spec.gamma_coords)
    assert x.dtype == d.dtype == object
    assert_matches_fraction_oracle(sub, Box(1, 13), 20)
    assert next(subfield_candidates(sub, Box(1, 1)))[0].dtype == np.int64
    # nu_5 has the largest candidates at Box(1, 1); they fit int64 too
    assert next(subfield_candidates(subfield("nu", 5), Box(1, 1)))[0].dtype == np.int64
    assert_matches_fraction_oracle(subfield("nu", 5), Box(1, 1), 20)


def test_hilbert90_batch_forms_each_product_on_the_chunk_columns(monkeypatch):
    # one involution, u*v and p*v on the k candidates of a chunk: no v*u beside u*v, no commute mask
    sub, widths = subfield("nu", 2), []
    chunks, gamma = [u for u, _ in islice(subfield_candidates(sub, Box(1, 1)), 3)], sub.generator.spec.gamma_coords
    for module in (unidiv.codebook, unidiv.algebra):
        form = module.a_mul_coords
        counted = lambda x, y, gamma, form=form: widths.append((x.shape[1], y.shape[1])) or form(x, y, gamma)
        counted.__wrapped__ = form.__wrapped__
        monkeypatch.setattr(module, "a_mul_coords", counted)
    for u in chunks:
        widths.clear()
        x, d = _hilbert90_batch(u, gamma)
        assert widths == [(u.shape[1], u.shape[1])] * 2
        assert x.shape == u.shape and d.shape == u.shape[1:]


def hilbert90_columns(monkeypatch, sub: SubfieldSpec, box: Box, size: int) -> tuple[Codebook, np.ndarray]:
    """generate_codebook(sub, box, size) and the candidate columns it passes to _hilbert90_batch, in order."""
    calls, batch = [], unidiv.codebook._hilbert90_batch
    monkeypatch.setattr(unidiv.codebook, "_hilbert90_batch", lambda u, gamma: calls.append(u) or batch(u, gamma))
    return generate_codebook(sub, box, size), np.concatenate(calls, axis=1)


@pytest.mark.parametrize("box, tuples", [(Box(1, 1), 3**6 - 1), (Box(1, 2), 5**6 - 1)], ids=["B1D1", "B1D2"])
@pytest.mark.parametrize("kind, k", [("zeta9", None), ("nu", 2), ("L", None)], ids=["zeta9", "nu2", "L"])
def test_exhausted_walk_sends_half_the_box_through_hilbert90(monkeypatch, kind, k, box, tuples):
    # -c gives the unit of c and is walked after it, so only the tuples whose last nonzero coordinate is
    # positive reach _hilbert90_batch, as (Q*c) @ matrix in walk order; candidates_scanned counts every tuple
    sub = subfield(kind, k)
    cb, columns = hilbert90_columns(monkeypatch, sub, box, 10**6)
    assert not cb.complete and cb.candidates_scanned == tuples
    assert columns.shape == (18, tuples // 2)
    walk = np.concatenate(list(box_chunks(box, 1 << 11, np.int64)), axis=1)
    positive = [next(v for v in reversed(c) if v) > 0 for c in walk.T.tolist()]
    assert sum(positive) == tuples // 2
    assert columns.tolist() == (np.array(sub.matrix, dtype=np.int64).T @ walk[:, positive]).tolist()
    passed = {tuple(c) for c in columns.T.tolist()}
    assert not passed & {tuple(-v for v in c) for c in passed}


def test_box_arrays_are_built_once_and_read_only():
    _box_arrays.cache_clear()
    coords, strata = _box_arrays(Box(2, 2), np.dtype(np.int64))
    walks = [np.concatenate(list(box_chunks(Box(2, 2), 64, np.int64)), axis=1) for _ in range(2)]
    assert _box_arrays.cache_info()[:2] == (2, 1)  # both walks hit the entry the first call built
    assert np.array_equal(*walks) and walks[0].shape == (6, 7**6 - 1)
    assert coords.tolist() == [int(v * 2) for v in Box(2, 2).values()]
    assert [n for n, _ in strata] == [3, 7]
    for a in (coords, *(top for _, top in strata)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_subfield_spec_checks_stability_in_one_product(monkeypatch):
    # the commute test is one a_mul_coords call on the columns of g and involution(g) side by side, and no
    # AlgElem product; a generator scaled by 2^70 has integers past int64, so its call runs on Python integers
    calls, form = [], unidiv.codebook.a_mul_coords
    counted = lambda x, y, gamma: calls.append((x.dtype, x.shape, y.shape)) or form(x, y, gamma)
    big, bad = nu_generator(2).scale(2**70), (from_l(A, THETA) + A.gen()).scale(2**70)
    monkeypatch.setattr(unidiv.codebook, "a_mul_coords", counted)
    monkeypatch.setattr(AlgElem, "__mul__", lambda x, y: pytest.fail("AlgElem product"))
    SubfieldSpec("nu", 2, nu_generator(2), "K(nu_2)")
    sub = SubfieldSpec("nu", 2, big, "K(nu_2), 2^70 g")
    with pytest.raises(ValueError, match=r"^subfield K\[theta\+E\] is not stable under the involution$"):
        SubfieldSpec("theta+E", None, bad, "K[theta+E]")
    assert calls == [(np.int64, (18, 2), (18, 2)), *[(object, (18, 2), (18, 2))] * 2]
    monkeypatch.undo()
    assert sub.matrix == subfield_matrix_oracle(sub)
    assert sub.matrix[2] == [v * 2**70 for v in subfield("nu", 2).matrix[2]]


def test_subfield_spec_equality_and_hash_read_its_four_fields():
    a, b = subfield("nu", 2), subfield("nu", 2)
    assert a == b and hash(a) == hash(b) == hash(("nu", 2, a.generator, "K(nu_2)")) and a is not b
    assert a != subfield("nu", 3) and a != SubfieldSpec("nu", 2, a.generator, "other")
    assert SubfieldSpec.__slots__ == ("kind", "k", "generator", "label") and not hasattr(a, "__dict__")


def candidate_sizes(sub: SubfieldSpec, box: Box) -> tuple:
    """The bounds on |u_j| that subfield_candidates computes."""
    return tuple(box.numerator_bound * box.scale * sum(abs(r[j]) for r in sub.matrix) for j in range(18))


@pytest.mark.parametrize(
    "box", [Box(1, 1), Box(2, 1), Box(1, 2), Box(1, 13)], ids=["B1D1", "B2D1", "B1D2", "B1D13"]
)
@pytest.mark.parametrize("kind, k", CLI_SUBFIELDS, ids=CLI_IDS)
def test_hilbert90_dtype_is_pinned(kind, k, box):
    # the candidates' dtype: int64 up to Box(1, 13), object once the sizes pass 2^63 (Q = lcm(1..43) alone does)
    sub = subfield(kind, k)
    assert next(subfield_candidates(sub, box))[0].dtype == np.int64
    assert max(candidate_sizes(sub, Box(1, 43))) >= 2**63
    assert next(subfield_candidates(sub, Box(1, 43)))[0].dtype == object


@pytest.mark.parametrize("box", [Box(1, 1), Box(2, 1), Box(1, 2)], ids=["B1D1", "B2D1", "B1D2"])
@pytest.mark.parametrize("kind, k", CLI_SUBFIELDS, ids=CLI_IDS)
def test_hilbert90_bound_holds_on_chunks(kind, k, box):
    # the candidates lie within their sizes, and an int64 chunk gives what the same chunk gives on objects
    sub = subfield(kind, k)
    sizes, gamma = candidate_sizes(sub, box), sub.generator.spec.gamma_coords
    for u, _ in islice(subfield_candidates(sub, box), 8):
        assert u.dtype == np.int64
        assert all(abs(v) <= m for row, m in zip(u.tolist(), sizes) for v in row)
        x, d = _hilbert90_batch(u, gamma)
        exact_x, exact_d = _hilbert90_batch(u.astype(object), gamma)
        assert (x.tolist(), d.tolist()) == (exact_x.tolist(), exact_d.tolist())


def unit_norm_coords(x, gamma):
    """x * involution(x), 18 coordinates: the product that the unit check compares with d^2."""
    return unidiv.codebook.a_mul_coords(x, unidiv.codebook.a_involution_coords(x, gamma), gamma)


class Recorded(int):
    """An integer that records the largest |value| of every sum and product it makes."""

    peak = 0

    def _made(value):
        Recorded.peak = max(Recorded.peak, abs(value))
        return Recorded(value)

    __add__ = __radd__ = lambda a, b: Recorded._made(int(a) + int(b))
    __sub__ = lambda a, b: Recorded._made(int(a) - int(b))
    __rsub__ = lambda a, b: Recorded._made(int(b) - int(a))
    __mul__ = __rmul__ = lambda a, b: Recorded._made(int(a) * int(b))
    __neg__ = lambda a: Recorded._made(-int(a))


@pytest.mark.parametrize("box", [Box(1, 1), Box(2, 1), Box(1, 2)], ids=["B1D1", "B2D1", "B1D2"])
@pytest.mark.parametrize(
    "kind, k", [("zeta9", None), ("nu", 1), ("nu", 5), ("L", None)], ids=["zeta9", "nu1", "nu5", "L"]
)
def test_hilbert90_bound_covers_every_product_and_partial_sum(kind, k, box):
    # the int64 chunks' evaluation, each form on its float tier or on Python integers,
    # equals the evaluation that forms every product and partial sum as a Recorded integer
    sub = subfield(kind, k)
    gamma = sub.generator.spec.gamma_coords
    for u, _ in islice(subfield_candidates(sub, box), 2):
        Recorded.peak = 0
        exact_x, exact_d = _hilbert90_batch(np.vectorize(Recorded, otypes=[object])(u), gamma)
        assert Recorded.peak > 0
        assert u.dtype == np.int64
        x, d = _hilbert90_batch(u, gamma)
        assert [v.tolist() for v in x] == [list(map(int, v)) for v in exact_x]
        assert d.tolist() == list(map(int, exact_d))


@pytest.mark.parametrize(
    "kind, k, box, size",
    [("nu", 5, Box(1, 1), 10**6), ("zeta9", None, Box(2, 1), 200), ("L", None, Box(1, 2), 100)],
    ids=["nu5-B1D1", "zeta9-B2D1", "L-B1D2"],
)
def test_unit_norm_bound_covers_every_product_and_partial_sum(kind, k, box, size):
    # x * involution(x) on the units' integers is exactly [q^2, 0, ...], as Recorded integers and as
    # first_non_unitary evaluates it, one int64 array of all the units
    units = generate_codebook(subfield(kind, k), box, size).elements
    nums, dens = zip(*(x.integral() for x in units))
    for num, q in zip(nums, dens):
        Recorded.peak = 0
        prod = unit_norm_coords([Recorded(v) for v in num], (0, 1))
        assert Recorded.peak > 0
        assert [int(v) for v in prod] == [q * q] + [0] * 17
    prod = unit_norm_coords(np.array(nums, dtype=np.int64).T, (0, 1))
    assert prod.tolist() == [[q * q for q in dens]] + [[0] * len(units)] * 17


def test_unitarity_bound_holds_on_units():
    units = list(generate_codebook(subfield("nu", 5), Box(1, 1), 10**6).elements)
    units += generate_codebook(subfield("zeta9"), Box(2, 1), 200).elements
    for x in units:
        num, q = x.integral()
        assert list(unit_norm_coords(num, (0, 1))) == [q * q] + [0] * 17


def test_first_non_unitary_names_the_least_index():
    units = generate_codebook(subfield("nu", 1), Box(1, 1), 12).elements
    assert first_non_unitary(units) is None
    bad = list(units)
    bad[7] = bad[7].scale(2)
    bad[3] = bad[3] + ONE
    assert first_non_unitary(bad) == 3
    assert first_non_unitary(bad[4:]) == 3
    assert first_non_unitary([]) is None


def test_first_non_unitary_compares_q_squared_exactly():
    # q = 2^63 - 1 fits int64, but q * q in int64 wraps to exactly 1 = X * involution(X)
    q = 2**63 - 1
    assert (q * q) % 2**64 == 1
    assert first_non_unitary([ONE.scale(Fraction(1, q))]) == 0


def unit_columns(units, m: int) -> tuple:
    """The units' integers and denominators both times m, unreduced columns as generate_codebook passes them."""
    x, d = _columns([x.integral() for x in units])
    x = x.astype(object) * m
    return x.astype(np.int64 if np.abs(x).max() < 2**63 else object), d * m


def test_unit_matrices_on_unreduced_columns_match_numeric_embeddings_bitwise():
    units = generate_codebook(subfield("nu", 1), Box(1, 1), 12).elements
    units += generate_codebook(subfield("L"), Box(1, 2), 40).elements[-6:]
    units += generate_codebook(subfield("zeta9"), Box(1, 13), 20).elements[-4:]
    want = numeric_embeddings(units)[0]
    assert same_bits(want, [matl_to_complex(matrix_embed_oracle(x)) for x in units])
    gamma = A.gamma_coords
    limit = unidiv.algebra._table(unidiv.algebra.a_mul_coords.__wrapped__, (18, 18), gamma)[-1]
    for m in (1, 2, 3, 2**40, 3**40):
        x, d = unit_columns(units, m)
        assert x.dtype == (object if m == 3**40 else np.int64)
        # 2^40: int64 past the product's float limit, so the unit check runs on Python integers;
        # 3^40: past int64 and 2^53, so the entries are divided in Python, where float64 would round twice
        assert (np.abs(x).max() > limit) == (m >= 2**40) and (d.max() >= 2**53) == (m == 3**40)
        assert not len(_unit_rows(x, d, gamma)[0])
        assert same_bits(_unit_matrices(x, d, gamma), want)


def test_column_unit_check_agrees_with_first_non_unitary():
    units = list(generate_codebook(subfield("nu", 2), Box(1, 1), 10).elements)
    units[6] = units[6] + ONE
    assert first_non_unitary(units) == 6
    for m in (1, 3, 2**40):
        x, d = unit_columns(units, m)
        assert _unit_rows(x, d, A.gamma_coords)[0].tolist() == [6]
        with pytest.raises(AssertionError, match="unit postcondition failed"):
            _unit_matrices(x, d, A.gamma_coords)
    x, d = unit_columns(units[:6] + units[7:], 2)
    assert not len(_unit_rows(x, d, A.gamma_coords)[0]) and first_non_unitary(units[:6] + units[7:]) is None


# Under `python -O`, which strips assert statements: each exact check broken by one patch, and its message.
OPTIMIZED_CHECKS = """
import sys
from fractions import Fraction
from unittest import mock
import unidiv.algebra as algebra
import unidiv.codebook as codebook
from unidiv.fields import KElem
if not sys.flags.optimize or __debug__:
    raise SystemExit("not running under python -O")
A = algebra.STANDARD_ALGEBRA
involution, quotient = codebook.a_involution_coords, algebra.a_quotient_coords
wrong = codebook._norm_split(object).copy()
wrong[0, -1, -1] += 1  # a constant 1 in the norm's first output: u = 1 reads norm 2
doubled = lambda *a: tuple(2 * v for v in quotient(*a)[:18]) + quotient(*a)[18:]  # y = 2/x, so x*y = 2
cases = [
    # involution doubled: the quotient gives x/2 for u = E, whose product with its image is 1/2
    (mock.patch.object(codebook, "a_involution_coords", lambda x, g: involution(x, g) * 2),
     lambda: codebook.hilbert90_unit(A.gen())),
    (mock.patch.object(codebook, "_norm_split", lambda dtype: wrong.astype(dtype)),
     lambda: codebook.norm_witness_search(KElem(2), codebook.Box(1, 1))),
    (mock.patch.object(algebra, "a_quotient_coords", doubled), lambda: algebra.inverse(A.gen())),
    (mock.patch.object(codebook, "has_rational_root", lambda poly: Fraction(1)),
     lambda: codebook.subfield_table_row(1)),
    (mock.patch.object(codebook, "discriminant_cubic", lambda poly: Fraction(-1)),
     lambda: codebook.subfield_table_row(1)),
]
for patch, call in cases:
    codebook._witness_strata.cache_clear()
    with patch:
        try:
            call()
        except AssertionError as e:
            print(e)
        else:
            print("no AssertionError")
"""


def test_exact_checks_raise_under_python_optimize():
    # the unit postcondition, the witness hit confirmation, inverse's postcondition and table1's two checks
    src = str(Path(unidiv.codebook.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS], capture_output=True, text=True, env=env,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "unit postcondition failed",
        "integer norm disagrees with the split",
        "inverse postcondition failed",
        "reduced polynomial must be irreducible",
        "discriminant must be a positive integer, got -1",
    ]


def test_first_non_unitary_matches_exact_product():
    # random elements, units, and units with coordinates past int64
    rng = random.Random(61)
    sub = subfield("nu", 2)
    family = [rand_alg(rng) for _ in range(10)]
    family += generate_codebook(sub, Box(1, 1), 10).elements
    big = hilbert90_unit(sub.element([10**12, 3, -7, 10**9, 5, 1]))
    family += [big, big.scale(Fraction(1, 10**15)), big + big]
    for x in family:
        assert (first_non_unitary([x]) is None) == (x * involution(x) == ONE)
    assert max(abs(v) for v in big.integral()[0]) > 2**63


def test_diversity_pair_scalars():
    cb = generate_codebook(subfield("zeta9"), Box(1, 1), 2)
    cb.elements = [ONE, ONE.scale(-1)]
    cb.matrices = numeric_embeddings(cb.elements)[0]
    rep = min_det_report(cb.elements)
    assert rep.exact_nonzero
    assert abs(rep.zeta - 1.0) < 1e-12
    assert abs(rep.min_abs_det - 8.0) < 1e-12


def test_diversity_requires_two_elements():
    with pytest.raises(ValueError):
        min_det_report([ONE])


def test_diversity_matches_numeric_oracle():
    cb = generate_codebook(subfield("zeta9"), Box(1, 1), 20)
    rep = min_det_report(cb.elements)
    assert rep.exact_nonzero and rep.zeta > 0
    mats = [np.array(m) for m in cb.matrices]
    best = min(
        abs(np.linalg.det(mats[i] - mats[j]))
        for i in range(20)
        for j in range(i + 1, 20)
    )
    assert abs(best - rep.min_abs_det) <= 1e-9 * best


def test_diversity_zero_detected_exactly():
    rep = min_det_report([ONE, A.gen(), ONE])
    assert not rep.exact_nonzero
    assert rep.zeta == 0.0
    assert rep.pair == (0, 2)


def test_k_modulus_matches_kelem_to_complex_bit_for_bit():
    # _min_det's modulus of (N0 + N1*zeta3)/q from the integers equals the float of the reduced KElem, signed zeros
    # and unreduced quotients included, and raises OverflowError exactly where the KElem path does
    rng = random.Random(25)
    cases = [(0, 0, 1), (0, 0, 7**30), (5, 0, 3), (0, -5, 3), (-1, 1, 1), (6, -9, 12), (-(10**400), 10**400, 3**700),
             (-1, 0, 10**400), (0, -1, 10**400), (10**400, 0, 1), (0, -(10**400), 3), (10**308, 10**308, 1)]
    for _ in range(3000):
        n0, n1 = (rng.choice((1, -1)) * rng.randrange(10 ** rng.choice((1, 20, 320, 1000))) for _ in "01")
        cases.append((n0, n1, rng.randrange(1, 10 ** rng.choice((1, 20, 320, 1000)))))
    overflows = 0
    for n0, n1, q in cases:
        try:
            want = abs(KElem(Fraction(n0, q), Fraction(n1, q)).to_complex())
        except OverflowError:
            overflows += 1
            with pytest.raises(OverflowError):
                _k_modulus(n0, n1, q)
            continue
        assert _k_modulus(n0, n1, q).hex() == want.hex()
    assert 3 <= overflows < len(cases) // 2
    assert _k_modulus(0, 0, 5) == 0.0 and _k_modulus(-3, 0, 3) == _k_modulus(3, 0, 3) == 1.0


def test_pair_norms_match_reduced_norm_on_every_pair_of_a_pool():
    # the batched recheck on unreduced columns (integers and denominators both times m) is reduced_norm(x_i - x_j)
    # on every pair, with difference coordinates within Nrd's float limit, past it, and past 2^63
    units = [ONE.scale(s * z) for s in (1, -1) for z in (KElem(1), ZETA3, ZETA3 * ZETA3)]
    small = list(codebook_elements("nu", 1, 12)) + [u * A.gen() for u in units]
    pool = small + generate_codebook(subfield("L"), Box(1, 2), 40).elements[-6:]
    pool += generate_codebook(subfield("zeta9"), Box(1, 13), 20).elements[-4:]
    assert len(set(pool)) == len(pool) == 28
    limit = unidiv.algebra._table(unidiv.algebra.a_char_coords.__wrapped__, (18,), A.gamma_coords)[-1]
    assert limit == 22_211
    for family, m, (low, high) in ((small, 1, (0, limit)), (pool, 1, (limit, 2**63)),
                                   (pool, 2**20, (limit, 2**63)), (pool, 3**40, (2**63, math.inf))):
        x, d = unit_columns(family, m)
        r = np.arange(len(family))
        i, j = np.nonzero(r[:, None] < r)
        top = np.abs(x[:, i].astype(object) * d[j] - x[:, j].astype(object) * d[i]).max()
        assert low < top < high
        n0, n1, q = _pair_norms(x, d, i, j, A.gamma_coords)
        want = [reduced_norm(family[a] - family[b]) for a, b in zip(i.tolist(), j.tolist())]
        assert [KElem(Fraction(a, c), Fraction(b, c)) for a, b, c in zip(n0, n1, q)] == want
        # and the report of those unreduced columns is the Fraction all-pairs oracle's
        report = oracle_min_det_report(family)
        assert family_report(list(zip(x.T.tolist(), d.tolist())), A) == (None, report) and report.exact_nonzero


def test_family_report_checks_units_then_pairs_as_the_element_functions_do():
    units = list(codebook_elements("nu", 2, 10))
    for family in (units, units[:4] + [units[4].scale(2)] + units[5:], units + units[3:4], units[:3] + [ONE]):
        integrals = [x.integral() for x in family]
        bad = first_non_unitary(family)
        assert family_report(integrals, A) == (bad, None if bad is not None else min_det_report(family))
    with pytest.raises(ValueError, match="at least two"):
        family_report([ONE.integral()], A)


def test_pairwise_determinants_lie_in_k():
    cb = generate_codebook(subfield("zeta9"), Box(1, 1), 6)
    for i, j, det in pairwise_determinants(cb.elements):
        assert isinstance(det, KElem)
        assert not det.is_zero()


def test_linear_family_form_of_diversity():
    # on a finite sample, the pairwise minimum equals the minimum of |det|
    # over the nonzero difference set
    cb = generate_codebook(subfield("zeta9"), Box(1, 1), 8)
    rep = min_det_report(cb.elements)
    diffs = [
        cb.elements[i] - cb.elements[j]
        for i in range(8)
        for j in range(8)
        if i != j
    ]
    best = min(abs(reduced_norm(d).to_complex()) for d in diffs if not d.is_zero())
    assert abs(best - rep.min_abs_det) < 1e-12


def oracle_min_det_report(elements) -> DiversityReport:
    """Every pair evaluated exactly: the report min_det_report must reproduce."""
    best = None
    for i, j, det in pairwise_determinants(elements):
        if det.is_zero():
            return DiversityReport(zeta=0.0, pair=(i, j), min_abs_det=0.0, exact_nonzero=False)
        mod = abs(det.to_complex())
        if best is None or mod < best[0]:
            best = (mod, (i, j))
    return DiversityReport(
        zeta=0.5 * best[0] ** (1.0 / 3.0), pair=best[1], min_abs_det=best[0], exact_nonzero=True
    )


@functools.cache
def codebook_elements(kind: str, k, size: int) -> tuple:
    return tuple(generate_codebook(subfield(kind, k), Box(1, 1), size).elements)


@pytest.mark.parametrize(
    "kind, k, size", [("zeta9", None, 40), ("nu", 1, 12), ("nu", 3, 10), ("L", None, 12)]
)
def test_min_det_report_matches_exact_oracle_on_codebooks(kind, k, size):
    elements = list(codebook_elements(kind, k, size))
    assert min_det_report(elements) == oracle_min_det_report(elements)
    # the reversed order moves the first minimum among tied pairs
    elements.reverse()
    assert min_det_report(elements) == oracle_min_det_report(elements)


def test_min_det_report_matches_exact_oracle_on_tie_heavy_families():
    # the six units of K and their products with E: |det| ties everywhere
    units = [ONE.scale(s * z) for s in (1, -1) for z in (KElem(1), ZETA3, ZETA3 * ZETA3)]
    pool = units + [u * A.gen() for u in units]
    rng = random.Random(3)
    for _ in range(60):
        size = rng.randint(2, 10)
        if rng.random() < 0.5:
            family = rng.sample(pool, size)
        else:
            # planted duplicates, wherever the draw puts them
            family = [rng.choice(pool) for _ in range(size)]
        assert min_det_report(family) == oracle_min_det_report(family)


@pytest.mark.parametrize(
    "gamma", [KElem(1), KElem(-1), KElem(2), ZETA3, ZETA3 * ZETA3], ids=["1", "-1", "2", "zeta3", "zeta3^2"]
)
def test_min_det_report_matches_exact_oracle_for_any_gamma(gamma):
    # gamma = 1 and -1 are norms (of 1 and -1), so A is split and distinct elements can differ by a zero
    # divisor: det(a + b*E) = a^3 + b^3*gamma for a, b in K.  gamma = 2 has no certificate either.
    spec = AlgebraSpec(gamma)
    units = [spec.one().scale(s * z) for s in (1, -1) for z in (KElem(1), ZETA3, ZETA3 * ZETA3)]
    pool = units + [u * spec.gen() for u in units]
    rng = random.Random(11)
    distinct_zero = 0
    for _ in range(40):
        size = rng.randint(2, 8)
        family = rng.sample(pool, size) if rng.random() < 0.5 else [rng.choice(pool) for _ in range(size)]
        report = min_det_report(family)
        assert report == oracle_min_det_report(family)
        distinct_zero += not report.exact_nonzero and len(set(family)) == len(family)
    split = gamma in (KElem(1), KElem(-1))
    assert (distinct_zero > 0) == split
    # det(1 - gamma*E) = 1 - gamma^4 is zero exactly when gamma^2 = 1: then pair (0, 1), although 1 != gamma*E,
    # comes before the duplicate at pair (1, 4)
    e = spec.gen().scale(gamma)
    family = [spec.one(), e, spec.one().scale(-1), spec.one().scale(ZETA3), e]
    zero = DiversityReport(zeta=0.0, pair=(0, 1) if split else (1, 4), min_abs_det=0.0, exact_nonzero=False)
    assert min_det_report(family) == oracle_min_det_report(family) == zero


def test_min_det_report_across_a_pair_chunk_boundary():
    units = list(codebook_elements("zeta9", None, 182))
    x, d = _columns([u.integral() for u in units])
    r = np.arange(len(units))
    i, j = np.nonzero(r[:, None] < r)
    norms = zip(*_pair_norms(x, d, i, j, A.gamma_coords))
    mods = [abs(KElem(Fraction(a, q), Fraction(b, q)).to_complex()) for a, b, q in norms]
    k = mods.index(min(mods))  # the first minimum, over all 16,471 pairs
    pair = (int(i[k]), int(j[k]))
    assert min_det_report(units) == DiversityReport(0.5 * mods[k] ** (1.0 / 3.0), pair, mods[k], True)
    # with a copy of unit 170, M = 183 gives 16,653 pairs, and the copy's pair (170, 182) is in the second chunk
    family = units + [units[170]]
    r = np.arange(len(family))
    i, j = np.nonzero(r[:, None] < r)
    assert list(zip(i.tolist(), j.tolist())).index((170, 182)) >= _PAIR_CHUNK
    assert min_det_report(family) == DiversityReport(zeta=0.0, pair=(170, 182), min_abs_det=0.0, exact_nonzero=False)


def test_min_det_report_raises_overflow_past_float_range():
    # entries of 6e307 overflow the float expansion of det: the screen would prove nothing, so no pair is dropped
    big = AlgElem.from_integral(A, [6 * 10**307] + [0] * 17, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for family in ([big, big.scale(2), ONE], [big, ONE], [big, ONE, A.gen()]):
            with pytest.raises(OverflowError, match="past float range"):
                min_det_report(family)


@pytest.mark.parametrize("gamma", [ZETA3, ZETA3 * ZETA3], ids=["zeta3", "zeta3^2"])
def test_division_certificate_certifies(gamma):
    cert = division_certificate(gamma)
    assert cert is not None
    assert cert.prime == KElem(2, -1) and cert.p == 7
    assert cert.cubes == {1, 6}
    # zeta3 = 2 mod pi, so gamma's residue is 2 or 4
    assert cert.gamma_residue == (2 if gamma == ZETA3 else 4)


@pytest.mark.parametrize("gamma", [KElem(1), KElem(-1), KElem(2)], ids=["1", "-1", "2"])
def test_division_certificate_inconclusive(gamma):
    assert division_certificate(gamma) is None


def test_embedding_constants_within_proof_bounds():
    # min_det_report's rounding bound assumes that the float t of theta, fl(t*t)
    # and fl(sqrt(3)/2) are within 2u, 4u and u of their values, relatively
    u = Decimal(2) ** -53
    t = THETA_EMBEDDINGS[0]
    with localcontext() as ctx:
        ctx.prec = 50
        theta = Decimal(t)
        for _ in range(6):  # Newton on theta^3 + theta^2 - 2*theta - 1
            theta -= (theta**3 + theta**2 - 2 * theta - 1) / (3 * theta**2 + 2 * theta - 2)
        assert abs(theta**3 + theta**2 - 2 * theta - 1) < Decimal(10) ** -45
        assert abs(Decimal(t) - theta) <= 2 * u * theta
        assert abs(Decimal(t * t) - theta**2) <= 4 * u * theta**2
        half_sqrt3 = Decimal(3).sqrt() / 2
        assert abs(Decimal(ZETA3_COMPLEX.imag) - half_sqrt3) <= u * half_sqrt3
        assert ZETA3_COMPLEX.real == -0.5
    assert _DET_ERROR == 512 * 2.0**-53


def random_elements(rng: random.Random, count: int, digits: int) -> list[AlgElem]:
    """Elements with random numerators and denominators of up to `digits` digits (not units)."""
    top = 10**digits
    return [
        AlgElem.from_integral(A, [rng.randint(-top, top) for _ in range(18)], rng.randint(1, top))
        for _ in range(count)
    ]


def test_numeric_embeddings_match_lelem_to_complex_bitwise():
    names = ("zeta9_12", "nu1_5", "L_8", "mixed_6", "k_units_6", "duplicate_6")
    elements = [x for name in names for x in data_elements(name)]
    elements.append(parse_element(json.loads((DATA / "cli" / "element.json").read_text())))
    elements += random_elements(random.Random(25), 300, 25)
    # entries past float range after the sums: inf, as the LElem path makes it, and no warning
    big = 6 * 10**307
    elements.append(AlgElem.from_integral(A, [big, -big, big, -big], 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, sizes = numeric_embeddings(elements)
    assert values.shape == sizes.shape == (len(elements), 3, 3)
    assert same_bits(values, [matl_to_complex(matrix_embed_oracle(x)) for x in elements])
    assert np.isinf(values[-1, 0, 0].real)
    # over another certified gamma too, whose upper triangle is scaled differently
    spec = AlgebraSpec(ZETA3 * ZETA3)
    other = [AlgElem.from_integral(spec, *x.integral()) for x in elements[:40]]
    assert same_bits(numeric_embeddings(other)[0], [matl_to_complex(matrix_embed_oracle(x)) for x in other])


def test_numeric_embeddings_near_2_53_match_lelem_to_complex_bitwise():
    # float64 divides integers below 2^53 correctly rounded, but not 1 by 2^53 + 1
    assert 1 / float(2**53 + 1) != 1 / (2**53 + 1)
    rng = random.Random(31)
    spy = mock.Mock(wraps=unidiv.codebook.a_embed_coords, __wrapped__=unidiv.codebook.a_embed_coords.__wrapped__)
    for top in (2**53 - 1, 2**53, 2**53 + 1):
        small = [[1] + [rng.randint(-99, 99) for _ in range(17)] for _ in range(6)]
        batches = (
            [AlgElem.from_integral(A, num, top) for num in small],  # denominators at top, on the float tier
            [AlgElem.from_integral(A, [sign * top], 7) for sign in (1, -1)],  # entries at top, divided on objects
            # NumPy makes float64 of these, and float(2^63 + 385) / 7 is not (2^63 + 385) / 7 rounded
            [AlgElem.from_integral(A, [-1, 2**63 + 385, top], 7), AlgElem.from_integral(A, [2**63 + 385, -1], 7)],
        )
        for batch, dtype in zip(batches, (np.int64, np.int64, object)):
            with mock.patch.object(unidiv.codebook, "a_embed_coords", spy):
                values = numeric_embeddings(batch)[0]
            assert spy.call_args.args[0].dtype == dtype
            assert same_bits(values, [matl_to_complex(matrix_embed_oracle(x)) for x in batch])


def test_numeric_embeddings_of_no_elements():
    values, sizes = numeric_embeddings([])
    assert values.shape == sizes.shape == (0, 3, 3)
    assert values.dtype == complex


def test_every_family_entry_point_refuses_mixed_gamma():
    # AlgElems reach the closed forms through one boundary, which refuses a family over zeta3 and zeta3^2
    mixed = [A.gen(), AlgebraSpec(ZETA3 * ZETA3).gen()]
    for call in (first_non_unitary, min_det_report, numeric_embeddings):
        with pytest.raises(ValueError, match="^elements live in algebras with different gamma$"):
            call(mixed)


def assert_numeric_determinants_within_bound(elements):
    """Every pair's screened |det| lies within its rounding bound of the exact one."""
    size = len(elements)
    left, right, numeric, bound = _numeric_pair_dets(*numeric_embeddings(elements))
    assert len(left) == size * (size - 1) // 2
    for i, j, n, b in zip(left, right, numeric, bound):
        exact = reduced_norm(elements[i] - elements[j])
        assert abs(n - abs(exact.to_complex())) <= b
        assert 0 < b < 1e-9


# zeta9 and nu_1 units fill the gamma-scaled upper triangle; L's units lie in
# L itself, so their matrices are diagonal
@pytest.mark.parametrize("kind, k, size", [("zeta9", None, 40), ("nu", 1, 12), ("L", None, 12)])
def test_numeric_determinants_within_bound(kind, k, size):
    assert_numeric_determinants_within_bound(codebook_elements(kind, k, size))


def test_numeric_determinants_within_bound_on_mixed_subfields():
    # one unit from each of six subfields, theta components above the diagonal:
    # every pair takes the generic determinant
    assert_numeric_determinants_within_bound(data_elements("mixed_6"))


@functools.cache
def oracle_first_witnesses(box: Box) -> dict:
    """The exact walk over the box: the first u of every norm value N(u).

    This is the search the vectorised one replaced (iter_box_tuples ->
    LElem.from_six_tuple -> norm_to_k); its first witness for a target t is
    oracle_first_witnesses(box).get(t).
    """
    first: dict = {}
    for tup in iter_box_tuples(box):
        u = LElem.from_six_tuple(tup)
        first.setdefault(u.norm_to_k(), u)
    return first


def test_norm_witness_positive_controls():
    assert norm_witness_search(KElem(1), Box(1, 1)) == LElem(1)
    assert norm_witness_search(KElem(8), Box(2, 1)) == LElem(2)
    k = KElem(Fraction(1, 8))
    found = norm_witness_search(k, Box(1, 2))
    assert found is not None and found.norm_to_k() == k


def test_norm_witness_negative_small_box():
    assert norm_witness_search(ZETA3, Box(1, 1)) is None


def test_norm_witness_methods_agree():
    box = Box(1, 1)
    for target in (KElem(1), ZETA3, KElem(8)):
        assert norm_witness_search(target, box) == oracle_first_witnesses(box).get(target)


@pytest.mark.parametrize(
    "box", [Box(1, 1), Box(2, 1), Box(1, 2)], ids=lambda b: f"B{b.numerator_bound}D{b.denominator_bound}"
)
def test_norm_witness_matches_exact_walk(box):
    first = oracle_first_witnesses(box)
    rng = random.Random(box.numerator_bound * 10 + box.denominator_bound)
    norms = rng.sample(list(first), 12)
    for n in norms:
        for target in (n, ZETA3 * n, ZETA3 * ZETA3 * n):
            assert norm_witness_search(target, box) == first.get(target)
        # n is a norm from the box; its zeta3 and zeta3^2 multiples are misses
        assert first.get(ZETA3 * n) is None and first.get(ZETA3 * ZETA3 * n) is None


def test_norm_witness_target_outside_scaled_ring():
    # Box(1, 1) has Q = 1, so only targets in Z[zeta3] can be norms
    target = KElem(Fraction(1, 3))
    assert norm_witness_search(target, Box(1, 1)) is None
    assert oracle_first_witnesses(Box(1, 1)).get(target) is None


@pytest.mark.parametrize("sign", [1, -1])
def test_norm_witness_integer_goal_of_a_negative_numerator(sign):
    # Q = 2 on Box(1, 2): the goal of -1/8 is -1 * 8 // 8 = -1, a floor division of a negative numerator
    target, box = KElem(Fraction(sign, 8)), Box(1, 2)
    want = LElem(Fraction(sign, 2))
    assert norm_witness_search(target, box) == oracle_first_witnesses(box).get(target) == want
    assert norm_witness_oracle(target, box) == want


@pytest.mark.parametrize(
    "target, box",
    [(KElem(Fraction(1, 16)), Box(1, 2)), (KElem(1, Fraction(-1, 16)), Box(1, 2)), (KElem(Fraction(1, 3)), Box(1, 1))],
    ids=["1over16-B1D2", "zeta3over16-B1D2", "1over3-B1D1"],
)
def test_norm_witness_goal_outside_z_zeta3_walks_nothing(monkeypatch, target, box):
    # Q^3 * target is not integral (Q^3 = 8 and 1), so no u/Q in the box has that norm and no stratum is read
    assert norm_witness_oracle(target, box) is None
    monkeypatch.setattr(unidiv.codebook, "_witness_strata", lambda *key: pytest.fail("walked the box"))
    assert norm_witness_search(target, box) is None


def test_norm_witness_hit_is_confirmed_once_on_python_ints(monkeypatch):
    box = Box(2, 1)
    assert norm_witness_search(ZETA3, box) is None  # a miss reads every stratum, so none is built under the spy
    calls, confirm = [], unidiv.codebook.l_norm_coords
    monkeypatch.setattr(unidiv.codebook, "l_norm_coords", lambda a: calls.append(a) or confirm(a))
    assert norm_witness_search(ZETA3 * ZETA3, box) is None and calls == []
    assert norm_witness_search(KElem(8), box) == LElem(2) == norm_witness_oracle(KElem(8), box)
    assert calls == [[2, 0, 0, 0, 0, 0]] and all(type(v) is int for v in calls[0])


def witness_search_dtypes(monkeypatch, target: KElem, box: Box) -> tuple:
    """norm_witness_search(target, box) and the dtypes it walks the box in, from an empty strata cache."""
    dtypes, walk = [], unidiv.codebook._strata
    spy = lambda b, dtype, *rest: dtypes.append(dtype) or walk(b, dtype, *rest)
    monkeypatch.setattr(unidiv.codebook, "_strata", spy)
    _witness_strata.cache_clear()
    return norm_witness_search(target, box), dtypes


def test_norm_witness_object_dtype_path(monkeypatch):
    # Q = lcm(1..16) = 720720 puts the norm bound beyond int64
    assert _NORM_MASS * 720720**3 > 2**63 - 1
    assert witness_search_dtypes(monkeypatch, KElem(1), Box(1, 16)) == (LElem(1), [object])


def test_norm_witness_int64_at_box_1_13(monkeypatch):
    # Q = lcm(1..13) = 360360 keeps the norm bound within int64
    assert _NORM_MASS * 360360**3 <= 2**63 - 1
    assert witness_search_dtypes(monkeypatch, KElem(1), Box(1, 13)) == (LElem(1), [np.int64])


def test_norm_witness_float64_at_box_2_2(monkeypatch):
    # m = 4 keeps the norm bound below 2^53
    assert _NORM_MASS * 4**3 < 2**53
    assert witness_search_dtypes(monkeypatch, KElem(1), Box(2, 2)) == (LElem(1), [np.float64])


@pytest.mark.parametrize("box, count", [(Box(2, 2), 8), (Box(3, 2), 2)], ids=["B2D2", "B3D2"])
def test_norm_witness_search_matches_chunked_oracle(box, count):
    # norms of tuples drawn from the box, their zeta3 and zeta3^2 multiples, and the controls;
    # N(0) = 0 is no hit, as the zero tuple lies in no stratum
    rng = random.Random(17 * box.numerator_bound + box.denominator_bound)
    values = box.values()
    targets = [KElem(1), KElem(8), KElem(Fraction(27, 8)), KElem(0)]
    for _ in range(count):
        n = LElem.from_six_tuple([rng.choice(values) for _ in range(6)]).norm_to_k()
        targets += [n, ZETA3 * n, ZETA3 * ZETA3 * n]
    for target in targets:
        assert norm_witness_search(target, box) == norm_witness_oracle(target, box)


@pytest.mark.parametrize(
    "box", [Box(1, 1), Box(2, 1), Box(1, 2), Box(2, 2)], ids=lambda b: f"B{b.numerator_bound}D{b.denominator_bound}"
)
def test_norm_witness_search_same_on_cold_warm_and_partly_built_strata(box):
    # a hit on KElem(1) stops at u = 1 in stratum 1, leaving the box's later strata unbuilt
    rng = random.Random(31 * box.numerator_bound + box.denominator_bound)
    values = box.values()
    targets = [KElem(8), ZETA3, KElem(Fraction(27, 8))]
    for _ in range(2):
        n = LElem.from_six_tuple([rng.choice(values) for _ in range(6)]).norm_to_k()
        targets += [n, ZETA3 * n]
    for target in targets:
        want = norm_witness_oracle(target, box)
        _witness_strata.cache_clear()
        assert norm_witness_search(target, box) == want
        assert norm_witness_search(target, box) == want
        _witness_strata.cache_clear()
        assert norm_witness_search(KElem(1), box) == LElem(1)
        assert _witness_strata.cache_info().currsize == 1
        assert norm_witness_search(target, box) == want


def test_norm_witness_search_from_threads_on_cold_strata():
    # four threads start together on an empty cache, each searching hits in strata 1 and 2 and misses in its own
    # order: a race may build one stratum twice, but no entry changes once built, so every result is the oracle's
    box = Box(2, 2)
    targets = [KElem(1), ZETA3, KElem(8), ZETA3 * ZETA3]
    want = [norm_witness_oracle(t, box) for t in targets]
    assert want[0] == LElem(1) and want[2] == LElem(2) and want[1] is want[3] is None
    start = threading.Barrier(4)

    def search(k):
        start.wait(timeout=60)
        return [norm_witness_search(targets[(k + i) % 4], box) for i in range(4)]

    _witness_strata.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(search, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == [[want[(k + i) % 4] for i in range(4)] for k in range(4)]


def test_norm_witness_stratum_1_hit_builds_one_stratum(monkeypatch):
    calls, build = [], unidiv.codebook._norm_halves
    monkeypatch.setattr(unidiv.codebook, "_norm_halves", lambda half: calls.append(half) or build(half))
    _witness_strata.cache_clear()
    assert norm_witness_search(KElem(1), Box(1, 16)) == LElem(1)
    assert len(calls) == 1


def test_norm_witness_hit_is_confirmed_apart_from_the_split(monkeypatch):
    # a constant 1 in the first output's split: every tuple reads N(a)[0] + 1, so u = 1, the first, reads 2
    wrong = _norm_split(object).copy()
    wrong[0, -1, -1] += 1
    monkeypatch.setattr(unidiv.codebook, "_norm_split", lambda dtype: wrong.astype(dtype))
    _witness_strata.cache_clear()
    try:
        with pytest.raises(AssertionError, match="integer norm disagrees with the split"):
            norm_witness_search(KElem(2), Box(1, 1))
    finally:
        _witness_strata.cache_clear()


def test_norm_split_mass_is_within_norm_mass():
    split = _norm_split(object)
    assert split.shape == (2, 20, 20) and all(type(c) is int for c in split.flat)
    assert [sum(abs(c) for c in split[o].flat) for o in (0, 1)] == [105, 126]
    assert [np.count_nonzero(split[o]) for o in (0, 1)] == [38, 36]
    assert max(sum(abs(c) for c in split[o].flat) for o in (0, 1)) <= _NORM_MASS


M_FLOAT = 39_159  # the largest m with _NORM_MASS * m^3 < 2^53
M_INT64 = 394_699  # the largest m with _NORM_MASS * m^3 < 2^63


@pytest.mark.parametrize(
    "m, dtype", [(M_FLOAT, np.float64), (M_INT64, np.int64), (M_INT64 + 1, object), (2**64 + 3, object)]
)
def test_norm_split_is_exact_at_tier_limits(m, dtype):
    assert _NORM_MASS * M_FLOAT**3 < 2**53 <= _NORM_MASS * (M_FLOAT + 1) ** 3
    assert _NORM_MASS * M_INT64**3 < 2**63 <= _NORM_MASS * (M_INT64 + 1) ** 3
    halves = list(product((-m, 0, m, m - 1), repeat=3))
    cols = [np.array(c, dtype=dtype) for c in zip(*halves)]
    mono, folded = _norm_halves(cols)
    grid = mono.T @ folded
    assert grid.dtype == dtype and grid.shape == (2, len(halves), len(halves))
    norms = [[l_norm_coords(list(x + y)) for x in halves] for y in halves]
    want = [[[n[o] for n in row] for row in norms] for o in (0, 1)]
    as_ints = lambda g: [[[int(v) for v in row] for row in g[o].tolist()] for o in (0, 1)]
    assert as_ints(grid) == want
    # every value the split forms, on the same coordinates as integers that record themselves
    Recorded.peak = 0
    mono, folded = _norm_halves([np.vectorize(Recorded, otypes=[object])(c.astype(object)) for c in cols])
    assert as_ints(mono.T @ folded) == want
    assert 0.5 * _NORM_MASS * m**3 < Recorded.peak <= _NORM_MASS * m**3


class RecordedPoly(_Poly):
    """A polynomial that records every polynomial its arithmetic makes."""

    made: list = []

    def _made(p):
        RecordedPoly.made.append(p)
        return RecordedPoly(p)

    __add__ = __radd__ = lambda a, b: RecordedPoly._made(_Poly.__add__(a, b))
    __sub__ = lambda a, b: RecordedPoly._made(_Poly.__add__(a, b, -1))
    __mul__ = __rmul__ = lambda a, b: RecordedPoly._made(_Poly.__mul__(a, b))
    __neg__ = lambda a: RecordedPoly._made(_Poly.__mul__(a, -1))


def test_norm_mass_is_the_largest_intermediate_mass():
    # each value l_norm_coords forms is a polynomial in a of degree <= 3, so with |a_i| <= m (m >= 1)
    # it is at most its coefficient mass times m^3
    RecordedPoly.made = []
    out = l_norm_coords([RecordedPoly({(i,): 1}) for i in range(6)])
    made = RecordedPoly.made
    assert all(p in made for p in out)
    assert max(len(monomial) for p in made for monomial in p) == 3
    assert max(sum(map(abs, p.values())) for p in made) == _NORM_MASS == 150


def test_norm_mass_bounds_direct_evaluation_at_int64_limit():
    m = 394_699  # the largest m with _NORM_MASS * m^3 < 2^63
    assert _NORM_MASS * m**3 < 2**63 <= _NORM_MASS * (m + 1) ** 3
    tuples = list(product((-m, 0, m), repeat=6))
    Recorded.peak = 0
    exact = [l_norm_coords([Recorded(v) for v in a]) for a in tuples]
    assert 0.5 * _NORM_MASS * m**3 < Recorded.peak <= _NORM_MASS * m**3
    fast = l_norm_coords(np.array(tuples, dtype=np.int64).T)
    assert [v.tolist() for v in fast] == [[int(n[i]) for n in exact] for i in (0, 1)]


def test_norm_coords_bound_holds():
    rng = random.Random(5)
    for m in (1, 2, 7, 360360):
        bound = _NORM_MASS * m**3
        for _ in range(50):
            a = [rng.choice((-m, m, rng.randint(-m, m))) for _ in range(6)]
            assert all(abs(v) <= bound for v in l_norm_coords(a))


_coefficient = st.one_of(st.integers(-60, 60), st.integers(-(2**80), 2**80))


@settings(max_examples=300, deadline=None)
@given(st.tuples(_coefficient, _coefficient, _coefficient), _coefficient, _coefficient)
def test_charpoly3_matches_tuple_oracle(pqr, b, c):
    # reduce_generator_poly's N = b*C + c*C^2, C the companion matrix of X^3 + p*X^2 + q*X + r
    p, q, r = pqr
    rows = ((0, 0, -r), (1, 0, -q), (0, 1, -p))
    C = np.array(rows, dtype=object)
    got = _charpoly3(b * C + c * (C @ C))
    C2 = matmul3(rows, rows)
    assert got == charpoly3_oracle(tuple(tuple(b * rows[i][j] + c * C2[i][j] for j in range(3)) for i in range(3)))
    assert all(type(v) is int for v in got)


def test_reduce_generator_poly_requires_integral_input():
    with pytest.raises(ValueError):
        reduce_generator_poly(Polynomial([Fraction(1, 2), 0, 0, 1]))


def test_table_rows_match_reference_values():
    expected = {
        1: ("X^3+X^2-5X-3", ((2, 2), (3, 1), (47, 1))),
        2: ("X^3-X^2-12X+1", ((11, 1), (659, 1))),
        3: ("X^3-6X-1", ((3, 3), (31, 1))),
        4: ("X^3-11X+9", ((3137, 1),)),
        5: ("X^3-X^2-61X-13", ((2, 2), (307, 1), (727, 1))),
    }
    for row in subfield_table():
        poly, factors = expected[row.k]
        assert str(row.poly) == poly
        assert row.factors == factors
        assert has_rational_root(row.poly) is None
        assert row.discriminant == discriminant_cubic(row.poly)


def test_table_row_same_field_invariant():
    # the reduced polynomial's discriminant differs from the generator's by
    # the square of a rational (same field, different order)
    from unidiv.algebra import char_poly_rational

    for k in range(1, 6):
        chi = char_poly_rational(nu_generator(k))
        row = subfield_table_row(k)
        ratio = Fraction(discriminant_cubic(chi), discriminant_cubic(row.poly))
        assert ratio > 0
        num_root = int(ratio.numerator ** 0.5 + 0.5)
        den_root = int(ratio.denominator ** 0.5 + 0.5)
        assert num_root**2 == ratio.numerator and den_root**2 == ratio.denominator


def test_table_row_bounds():
    with pytest.raises(ValueError):
        subfield_table_row(0)
    with pytest.raises(ValueError):
        subfield_table_row(6)
