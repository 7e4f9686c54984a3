import argparse
import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import parse_element_oracle
import unidiv.cli
from unidiv.algebra import worked_example
from unidiv.cli import _GOLDEN_NUMERIC, build_parser, main, parse_element

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


def test_verify_corrupted_golden_fails(capsys, monkeypatch):
    # a built-in reference the worked example does not reproduce: one FAIL line, exit 1, "ok": false
    unit = dataclasses.replace(worked_example(), unit_coeffs=(Fraction(0),) * 6)
    numeric = [[("-0.425", "-0.182"), *_GOLDEN_NUMERIC[0][1:]], *_GOLDEN_NUMERIC[1:]]
    cases = [
        ("worked_example", lambda: unit,
         f"FAIL unit-expansion: expected {['0'] * 6}, got {['-10/19', '16/19', '1/19', '-4/19', '14/19', '8/19']}"),
        ("_GOLDEN_NUMERIC", numeric,
         "FAIL numeric-unitary-matrix: expected each entry within one unit of its displayed decimals, "
         "got worst deviation 3.947 display units"),
    ]
    for name, value, fail in cases:
        with monkeypatch.context() as patch:
            patch.setattr(unidiv.cli, name, value)
            code, out = run(capsys, "verify")
            assert code == 1
            assert [line for line in out.splitlines() if line.startswith("FAIL")] == [fail]
            assert out.endswith("verification FAILED\n")
            code, out = run(capsys, "verify", "--format", "json")
            assert code == 1 and json.loads(out)["ok"] is False


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


@pytest.mark.parametrize("argv", [["diversity"]], ids=["diversity"])
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
     ["diversity", str(DATA / "diversity" / "nu5_b2_24.json"), "--ascii"],
     ["verify", "--golden", str(DATA / "cli" / "element.json")]],
    ids=["generate-format", "generate-ascii", "diversity-ascii", "verify-golden"],
)
def test_options_a_subcommand_does_not_read_are_usage_errors(capsys, tmp_path, argv):
    out = tmp_path / "cb.json"
    with pytest.raises(SystemExit) as exc:
        main([*argv, *(["--out", str(out)] if argv[0] == "generate" else [])])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err and captured.out == ""
    assert not out.exists()


# Inputs that every JSON-reading command must turn into one error line:
# nesting past the decoder's recursion limit, and coordinates given as one
# string instead of a list.
DEEP_JSON = "[" * 200000 + "]" * 200000
STRING_COORDS = {"x0": "100000", "x1": "000000", "x2": "000000"}
JSON_COMMANDS = {
    "diversity": (["diversity"], lambda record: {"gamma": "zeta3", "elements": [record, record]}),
    "embed": (["embed", "--element"], lambda record: record),
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
