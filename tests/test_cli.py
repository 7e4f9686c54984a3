import argparse
import json
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import golden_problem_oracle, parse_element_oracle
from test_cli_fuzz import json_values
import unidiv.cli
from unidiv.algebra import worked_example
from unidiv.cli import _GOLDEN_NUMERIC, _golden_problem, build_parser, builtin_golden, main, parse_element
from unidiv.codebook import hilbert90_unit, numeric_embeddings

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", "--ascii")
    assert code == 0
    assert "(-10+16*z9+z9^2-4*z9^3+14*z9^4+8*z9^5)/19" in out
    assert "verification PASSED" in out
    assert out.count("PASS") >= 5


def test_verify_json(capsys):
    code, out = run(capsys, "verify", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert all(c["ok"] for c in data["checks"])


def test_verify_corrupted_golden_fails(capsys, tmp_path):
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"unit_zeta9": ["0", "0", "0", "0", "0", "0"]}))
    code, out = run(capsys, "verify", "--golden", str(golden))
    assert code == 1
    assert "FAIL unit-expansion" in out


def test_verify_missing_golden_file(capsys, tmp_path):
    code, out = run(capsys, "verify", "--golden", str(tmp_path / "nope.json"))
    assert code == 1


def test_table1_text_rows(capsys):
    code, out = run(capsys, "table1", "--ascii")
    assert code == 0
    assert "X^3-X^2-12X+1 | 11*659" in out
    assert "X^3-11X+9 | 3137" in out
    assert "X^3+X^2-5X-3 | 2^2*3*47" in out


def test_table1_unicode_symbols(capsys):
    code, out = run(capsys, "table1")
    assert code == 0
    assert "X^3-X^2-12X+1 | 11·659" in out
    assert "θ" in out and "ζ3" in out


def test_table1_byte_stable(capsys):
    _, first = run(capsys, "table1")
    _, second = run(capsys, "table1")
    assert first == second


def test_table1_json(capsys):
    code, out = run(capsys, "table1", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["poly"] for r in rows] == [
        "X^3+X^2-5X-3",
        "X^3-X^2-12X+1",
        "X^3-6X-1",
        "X^3-11X+9",
        "X^3-X^2-61X-13",
    ]
    assert rows[0]["factors"] == [[2, 2], [3, 1], [47, 1]]


def test_generate_and_diversity_round_trip(capsys, tmp_path):
    path = tmp_path / "cb.json"
    code, out = run(
        capsys, "generate", "--subfield", "zeta9", "--box", "1", "--size", "16",
        "--out", str(path),
    )
    assert code == 0
    assert "size: 16/16" in out
    data = json.loads(path.read_text())
    assert data["gamma"] == "zeta3"
    assert data["complete"] is True
    assert len(data["elements"]) == 16
    assert len(data["matrices"]) == 16
    embedded = data["diversity"]
    assert embedded["exact_nonzero"] is True

    code, out = run(capsys, "diversity", str(path), "--format", "json")
    assert code == 0
    recomputed = json.loads(out)
    assert recomputed["pair"] == embedded["pair"]
    assert recomputed["exact_nonzero"] == embedded["exact_nonzero"]
    assert abs(recomputed["zeta"] - embedded["zeta"]) < 1e-12
    assert abs(recomputed["min_abs_det"] - embedded["min_abs_det"]) < 1e-12


def test_generate_exhausted_box(capsys, tmp_path):
    path = tmp_path / "cb.json"
    code, out = run(
        capsys, "generate", "--subfield", "L", "--box", "1", "--size", "5000",
        "--out", str(path),
    )
    assert code == 1
    assert "box exhausted" in out
    data = json.loads(path.read_text())
    assert data["complete"] is False


def test_generate_nu_subfield_reports_failures(capsys, tmp_path):
    path = tmp_path / "nu.json"
    code, out = run(
        capsys, "generate", "--subfield", "nu:1", "--box", "1", "--size", "6",
        "--out", str(path),
    )
    assert code == 0
    assert "precondition failures: 0" in out


def test_generate_bad_subfield(capsys, tmp_path):
    code, out = run(
        capsys, "generate", "--subfield", "nope", "--size", "2",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 2


def test_generate_unwritable_path(capsys):
    code, out = run(
        capsys, "generate", "--subfield", "zeta9", "--size", "2",
        "--out", "/nonexistent-dir/cb.json",
    )
    assert code == 1
    assert "cannot write" in out


def test_diversity_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out = run(capsys, "diversity", str(path))
    assert code == 1
    assert "cannot read" in out


def test_diversity_duplicate_elements(capsys, tmp_path):
    one = {
        "x0": ["1", "0", "0", "0", "0", "0"],
        "x1": ["0", "0", "0", "0", "0", "0"],
        "x2": ["0", "0", "0", "0", "0", "0"],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"gamma": "zeta3", "elements": [one, one]}))
    code, out = run(capsys, "diversity", str(path))
    assert code == 1
    assert "zero difference at pair (0, 1)" in out


def test_diversity_non_unitary_element(capsys, tmp_path):
    bad = {
        "x0": ["2", "0", "0", "0", "0", "0"],
        "x1": ["0", "0", "0", "0", "0", "0"],
        "x2": ["0", "0", "0", "0", "0", "0"],
    }
    one = {
        "x0": ["1", "0", "0", "0", "0", "0"],
        "x1": ["0", "0", "0", "0", "0", "0"],
        "x2": ["0", "0", "0", "0", "0", "0"],
    }
    path = tmp_path / "bad_elem.json"
    path.write_text(json.dumps({"gamma": "zeta3", "elements": [one, bad]}))
    code, out = run(capsys, "diversity", str(path))
    assert code == 1
    assert "element 1 is not unitary" in out


def test_diversity_reports_a_non_unitary_element_before_a_duplicate(capsys, tmp_path):
    # the unit check runs on every element before the pairs: a duplicated pair ahead of a non-unitary
    # element, or behind it, still gives the non-unitary one
    one = {key: ["1" if key == "x0" and i == 0 else "0" for i in range(6)] for key in ("x0", "x1", "x2")}
    bad = {key: [str(2 * int(v)) for v in vals] for key, vals in one.items()}
    for elements, index in (([one, one, bad], 2), ([bad, one, one], 0), ([one, bad, one], 1)):
        path = tmp_path / "both.json"
        path.write_text(json.dumps({"gamma": "zeta3", "elements": elements}))
        assert run(capsys, "diversity", str(path)) == (1, f"error: element {index} is not unitary\n")


def test_diversity_scalar_pair(capsys, tmp_path):
    minus_one = {
        "x0": ["-1", "0", "0", "0", "0", "0"],
        "x1": ["0", "0", "0", "0", "0", "0"],
        "x2": ["0", "0", "0", "0", "0", "0"],
    }
    one = {
        "x0": ["1", "0", "0", "0", "0", "0"],
        "x1": ["0", "0", "0", "0", "0", "0"],
        "x2": ["0", "0", "0", "0", "0", "0"],
    }
    path = tmp_path / "pm.json"
    path.write_text(json.dumps({"gamma": "zeta3", "elements": [one, minus_one]}))
    code, out = run(capsys, "diversity", str(path))
    assert code == 0
    assert "zeta: 1" in out


ONE_RECORD = {
    "x0": ["1", "0", "0", "0", "0", "0"],
    "x1": ["0", "0", "0", "0", "0", "0"],
    "x2": ["0", "0", "0", "0", "0", "0"],
}
ZERO_DENOMINATOR_RECORD = {**ONE_RECORD, "x1": ["1/0", "0", "0", "0", "0", "0"]}


def assert_one_line_error(code, out):
    assert code == 1
    assert out.startswith("error: ") and out.count("\n") == 1


def test_diversity_non_object_json(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([ONE_RECORD, ONE_RECORD]))
    assert_one_line_error(*run(capsys, "diversity", str(path)))


def test_diversity_zero_denominator_element(capsys, tmp_path):
    path = tmp_path / "zero_den.json"
    path.write_text(
        json.dumps({"gamma": "zeta3", "elements": [ONE_RECORD, ZERO_DENOMINATOR_RECORD]})
    )
    assert_one_line_error(*run(capsys, "diversity", str(path)))


def _nested(depth: int):
    value = "0"
    for _ in range(depth):
        value = [value]
    return value


_DEEP = _nested(900)


def _override(key, change):
    return {key: change(json.loads(json.dumps(builtin_golden()[key])))}


@pytest.mark.parametrize(
    "golden",
    [
        [1, 2],
        "str",
        {"numeric_transposed": 5},
        {"numeric_transposed": [[["x", "y"]]]},
        _override("matrix", lambda m: m + m[:1]),
        _override("unit_zeta9", lambda u: u[:5]),
        _override("unit_zeta9", lambda u: u + ["0"]),
        _override("matrix", lambda m: [[1, *m[0][1:]], *m[1:]]),
        _override("numeric_transposed", lambda n: [[[*n[0][0], "0"], *n[0][1:]], *n[1:]]),
        _override("numeric_transposed", lambda n: [[["1.", "0"], *n[0][1:]], *n[1:]]),
        _override("involution", lambda v: {**v, "x3": v["x0"]}),
        _override("involution", lambda v: {"x0": v["x0"], "x1": v["x1"]}),
        _override("matrix", lambda m: [[_DEEP, *m[0][1:]], *m[1:]]),
        {"unit_zeta9": _DEEP},
    ],
    ids=["list", "string", "numeric-not-grid", "numeric-not-decimal", "4-rows", "5-entries", "7-entries",
         "int-leaf", "3-element-pair", "numeric-trailing-point", "extra-key", "missing-key", "deep-leaf",
         "deep-value"],
)
def test_verify_malformed_golden(capsys, tmp_path, golden):
    assert golden_problem_oracle(golden) is not None
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    code, out = run(capsys, "verify", "--golden", str(path))
    assert_one_line_error(code, out)
    if isinstance(golden, dict):
        assert all(repr(key) in out for key in golden)


@pytest.mark.parametrize("argv", [["diversity"], ["verify", "--golden"]], ids=["diversity", "golden"])
def test_non_utf8_file(capsys, tmp_path, argv):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00")
    assert_one_line_error(*run(capsys, *argv, str(path)))


def test_diversity_boolean_coordinate(capsys, tmp_path):
    # JSON true must not be read as the rational 1
    path = tmp_path / "bool.json"
    record = {**ONE_RECORD, "x0": [True, "0", "0", "0", "0", "0"]}
    path.write_text(json.dumps({"gamma": "zeta3", "elements": [ONE_RECORD, record]}))
    assert_one_line_error(*run(capsys, "diversity", str(path)))


def test_embed_zeta9_zero_denominator(capsys):
    assert_one_line_error(*run(capsys, "embed", "--zeta9", "1/0,0,0,0,0,0"))


def test_embed_element_zero_denominator(capsys, tmp_path):
    path = tmp_path / "zero_den.json"
    path.write_text(json.dumps(ZERO_DENOMINATOR_RECORD))
    assert_one_line_error(*run(capsys, "embed", "--element", str(path)))


def test_embed_element_non_object(capsys, tmp_path):
    path = tmp_path / "number.json"
    path.write_text("5")
    assert_one_line_error(*run(capsys, "embed", "--element", str(path)))


def test_embed_zeta9_exponent_syntax(capsys):
    # as_rat reads only p and p/q; Fraction would read 1e400 as 10**400
    assert_one_line_error(*run(capsys, "embed", "--zeta9=1e400,0,0,0,0,0"))


def _embed_one_coordinate(capsys, tmp_path, coordinate, fmt):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({**ONE_RECORD, "x0": [coordinate, "0", "0", "0", "0", "0"]}))
    return run(capsys, "embed", "--element", str(path), "--format", fmt)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_embed_coordinate_past_float_range(capsys, tmp_path, fmt):
    code, out = _embed_one_coordinate(capsys, tmp_path, "1" + "0" * 400, fmt)
    assert_one_line_error(code, out)
    assert out.startswith("error: cannot render element")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_embed_char_poly_past_digit_limit(capsys, tmp_path, fmt):
    # 1500 digits over 1500 digits is a float near 0.3; its cube, the reduced
    # norm, has about 4500 digits, past str()'s default 4300-digit limit
    coordinate = "1" + "0" * 1499 + "/" + "3" * 1500
    code, out = _embed_one_coordinate(capsys, tmp_path, coordinate, fmt)
    assert_one_line_error(code, out)
    assert out.startswith("error: cannot render element")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_embed_entries_past_float_range(capsys, fmt):
    # every coordinate is a float, but the entries' sums are not: inf, which
    # is neither JSON nor a number to print
    path = Path(__file__).parent / "data" / "cli" / "element_overflow.json"
    code, out = run(capsys, "embed", "--element", str(path), "--format", fmt)
    assert_one_line_error(code, out)
    assert out.startswith("error: cannot render element")
    assert "inf" not in out.lower()


def test_embed_zeta9(capsys):
    code, out = run(capsys, "embed", "--zeta9", "1,1,0,1,0,1", "--ascii")
    assert code == 0
    assert "[1+zeta3, -1-zeta3, zeta3]" in out
    assert "characteristic polynomial" in out


def test_embed_element_file(capsys, tmp_path):
    path = tmp_path / "elem.json"
    path.write_text(
        json.dumps(
            {
                "x0": ["0", "0", "0", "0", "0", "0"],
                "x1": ["1", "0", "0", "0", "0", "0"],
                "x2": ["0", "0", "0", "0", "0", "0"],
            }
        )
    )
    code, out = run(capsys, "embed", "--element", str(path), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["char_poly"] == "X^3-zeta3"


def test_embed_bad_coeffs(capsys):
    code, out = run(capsys, "embed", "--zeta9", "1,2,3")
    assert code == 1


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--size", "0", "--out", "x.json"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


class ReadRecorder(argparse.Namespace):
    """A namespace that records the name of every attribute a command handler reads."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            vars(self).setdefault("_read", set()).add(name)
        return super().__getattribute__(name)


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["table1"], ["generate", "--size", "4"], ["diversity", str(DATA / "diversity" / "nu5_b2_24.json")],
     ["embed", "--element", str(DATA / "cli" / "element.json")]],
    ids=lambda argv: argv[0],
)
def test_each_subcommand_reads_every_option_it_declares(capsys, tmp_path, argv):
    # over its text and JSON paths, a handler reads each option its parser declares: none is accepted and ignored
    if argv[0] == "generate":
        argv = [*argv, "--out", str(tmp_path / "cb.json")]
    declared = set(vars(build_parser().parse_args(argv))) - {"command"}
    read = set()
    for fmt in (["--format", "text"], ["--format", "json"]) if "format" in declared else ([],):
        args = ReadRecorder(**vars(build_parser().parse_args([*argv, *fmt])))
        assert getattr(unidiv.cli, f"cmd_{argv[0]}")(args) == 0
        read |= vars(args).pop("_read")
    capsys.readouterr()
    assert declared <= read, sorted(declared - read)


@pytest.mark.parametrize(
    "argv",
    [["generate", "--format", "json"], ["generate", "--ascii"],
     ["diversity", str(DATA / "diversity" / "nu5_b2_24.json"), "--ascii"]],
    ids=["generate-format", "generate-ascii", "diversity-ascii"],
)
def test_options_a_subcommand_does_not_read_are_usage_errors(capsys, tmp_path, argv):
    out = tmp_path / "cb.json"
    with pytest.raises(SystemExit) as exc:
        main([*argv, *(["--out", str(out)] if argv[0] == "generate" else [])])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


# Inputs that every JSON-reading command must turn into one error line:
# nesting past the decoder's recursion limit, and coordinates given as one
# string instead of a list.
DEEP_JSON = "[" * 200000 + "]" * 200000
STRING_COORDS = {"x0": "100000", "x1": "000000", "x2": "000000"}
JSON_COMMANDS = {
    "diversity": (["diversity"], lambda record: {"gamma": "zeta3", "elements": [record, record]}),
    "embed": (["embed", "--element"], lambda record: record),
    "golden": (["verify", "--golden"], lambda record: {"involution": record}),
}


@pytest.mark.parametrize("command", sorted(JSON_COMMANDS))
def test_deeply_nested_json(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    argv, _ = JSON_COMMANDS[command]
    code, out = run(capsys, *argv, str(path))
    assert_one_line_error(code, out)
    assert "cannot read" in out


@pytest.mark.parametrize("command", sorted(JSON_COMMANDS))
def test_string_coordinates(capsys, tmp_path, command):
    # six characters are not six coordinates
    path = tmp_path / "strings.json"
    argv, wrap = JSON_COMMANDS[command]
    path.write_text(json.dumps(wrap(STRING_COORDS)))
    code, out = run(capsys, *argv, str(path))
    assert_one_line_error(code, out)
    assert "malformed" in out


# parse_element reads integer pairs; parse_element_oracle is the Fraction path it replaced

# JSON ints, and "p"/"p/q" strings with signs, leading zeros, unreduced pairs and large coprime denominators
_coordinate = st.one_of(
    st.integers(-(10**6), 10**6),
    st.builds(
        lambda sign, pad, p, q, k: sign + "0" * pad + str(p * k) + (f"/{q * k}" if q else ""),
        st.sampled_from(["", "+", "-"]),
        st.integers(0, 2),
        st.integers(0, 10**6),
        st.one_of(st.integers(0, 12), st.sampled_from([999_983, 999_979, 524_288, 10**6])),
        st.integers(1, 4),
    ),
)
_part = st.one_of(
    st.lists(_coordinate, min_size=6, max_size=6),
    st.just([0] * 6),
    st.just(["0", "-0", "+00", "0/7", 0, "0/1"]),
)


@settings(max_examples=300)
@given(st.fixed_dictionaries({"x0": _part, "x1": _part, "x2": _part}))
def test_parse_element_matches_fraction_oracle(record):
    x, ref = parse_element(record), parse_element_oracle(record)
    assert x == ref and hash(x) == hash(ref)
    assert x.integral() == ref.integral()


def _refusal(parse, record):
    with pytest.raises((TypeError, ValueError)) as err:
        parse(record)
    return err.type, str(err.value)


def _with(key, part):
    return {**ONE_RECORD, key: part}


@pytest.mark.parametrize(
    "record",
    [
        *(
            _with("x1", ["0", "0", bad, "0", "0", "0"])
            for bad in (True, None, 1.5, "", "x", "1/0", "1e5", "1/-2", "1" * 4301, "1/" + "1" * 4301)
        ),
        _with("x0", ["1", "0", "0", "0", "0"]),
        _with("x2", ["0"] * 7),
        _with("x2", ["0"] * 6 + ["1/0"]),
        {k: v for k, v in ONE_RECORD.items() if k != "x2"},
        {"x0": ["1.5"] + ["0"] * 5},
        _with("x1", "000000"),
        _with("x1", {"0": 0}),
        [ONE_RECORD["x0"], ONE_RECORD["x1"], ONE_RECORD["x2"]],
        "x0",
        None,
    ],
)
def test_parse_element_refuses_as_the_fraction_oracle_does(record):
    assert _refusal(parse_element, record) == _refusal(parse_element_oracle, record)


# verify --golden: the shape check walks the built-in value; golden_problem_oracle is the table it replaced

_leaf = st.one_of(
    st.sampled_from(["0", "-0.5", "+12.250", "007", "1.", ".5", "1e3", " 1", "\u0663", "", "zeta3"]),
    st.text(max_size=4),
    st.integers(-3, 3),
    st.none(),
    st.just(_DEEP),
)


def _slip(draw, value):
    """value with one node changed: a leaf replaced, a list one longer or shorter, a key added or dropped."""
    move = draw(st.integers(0, 2))
    if move == 0 and isinstance(value, list) and value:
        i = draw(st.integers(0, len(value) - 1))
        return value[:i] + [_slip(draw, value[i])] + value[i + 1:]
    if move == 0 and isinstance(value, dict):
        key = draw(st.sampled_from(sorted(value)))
        return {**value, key: _slip(draw, value[key])}
    if move == 1 and isinstance(value, list):
        return draw(st.sampled_from([value[:-1], value + value[:1], value + [draw(_leaf)]]))
    if move == 1 and isinstance(value, dict):
        return draw(st.sampled_from([{**value, "x3": value["x0"]}, {k: v for k, v in value.items() if k != "x1"}]))
    return draw(_leaf)


@st.composite
def _golden_overrides(draw):
    """Some of the built-in keys, each with up to two slips, and sometimes a key verify does not know."""
    builtin = json.loads(json.dumps(builtin_golden()))
    out = {}
    for key in draw(st.lists(st.sampled_from(sorted(builtin)), unique=True)):
        value = builtin[key]
        for _ in range(draw(st.integers(0, 2))):
            value = _slip(draw, value)
        out[key] = value
    if draw(st.booleans()):
        out["other"] = draw(_leaf)
    return out


@settings(max_examples=500, deadline=None)
@given(st.one_of(_golden_overrides(), json_values))
def test_golden_shape_check_matches_table_oracle(loaded):
    problem = _golden_problem(loaded, builtin_golden())
    assert (problem is None) == (golden_problem_oracle(loaded) is None)


def test_builtin_golden_passes_both_shape_checks():
    golden = json.loads(json.dumps(builtin_golden()))
    assert _golden_problem(golden, builtin_golden()) is None and golden_problem_oracle(golden) is None
    assert _golden_problem({"other": [1]}, builtin_golden()) is None


def _exact_numeric(places: int, bump: int) -> list:
    """numeric_transposed holding the worked example's float matrix exactly, written to `places`
    decimals, with the first entry moved `bump` units of the last place away from zero."""
    m = numeric_embeddings([hilbert90_unit(worked_example().x)])[0][0]
    grid = [[[f"{Decimal(v):.{places}f}" for v in (z.real, z.imag)] for z in col] for col in m.T.tolist()]
    text = grid[0][0][0]
    grid[0][0][0] = text[:-1] + str(int(text[-1]) + bump)
    return grid


@pytest.mark.parametrize("bump, ok", [(0, True), (1, True), (2, False)])
def test_verify_golden_compares_long_decimals_exactly(capsys, tmp_path, bump, ok):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"numeric_transposed": _exact_numeric(400, bump)}))
    code, out = run(capsys, "verify", "--golden", str(path))
    assert code == (0 if ok else 1)
    assert out.endswith("verification PASSED\n" if ok else "verification FAILED\n")
    report = json.loads(run(capsys, "verify", "--golden", str(path), "--format", "json")[1])
    assert report["checks"][-1]["actual"] == f"worst deviation {bump}.000 display units"


@pytest.mark.parametrize("places", [320, 330, 1000])
def test_verify_golden_with_many_places_fails_in_one_line(capsys, tmp_path, places):
    # past about 323 places the float tolerance 10.0**-places underflowed to 0.0: ZeroDivisionError
    padded = [[[f"{Decimal(t):.{places}f}" for t in pair] for pair in row] for row in _GOLDEN_NUMERIC]
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"numeric_transposed": padded}))
    code, out = run(capsys, "verify", "--golden", str(path))
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL numeric-unitary-matrix: expected each entry within one unit of its displayed decimals, "
                     "got worst deviation inf display units"]
    assert out.endswith("verification FAILED\n")
