"""Command line surface: verify, table1, generate, diversity, embed.

Exit codes: 0 success, 1 verification or data failure, 2 usage error.
All commands are deterministic given their flags.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .algebra import (
    AlgElem,
    STANDARD_ALGEBRA,
    from_zeta9,
    involution,
    matrix_embed,
    reduced_char_poly,
    to_zeta9,
    worked_example,
    zeta9_str,
)
from .codebook import (
    Box,
    Codebook,
    DiversityReport,
    family_report,
    first_non_unitary,
    generate_codebook,
    hilbert90_unit,
    min_det_report,
    numeric_embeddings,
    subfield,
    subfield_table,
)
from .rationals import rat_pair


class InputError(Exception):
    """Unusable input or output data; `main` prints "error: <message>" and exits 1."""


def read_json(path: str, what: str):
    """The JSON value stored at path, or InputError naming `what`.

    Every way a file can fail to be read or decoded ends here: a missing or
    unreadable file, bytes that are not UTF-8, malformed JSON, an integer
    literal past the interpreter's digit limit, and nesting deep enough to
    exhaust the decoder's recursion limit.
    """
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {what}: {exc}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unidiv",
        description="Exact unitary families from a cubic cyclic division algebra.",
    )
    formats = argparse.ArgumentParser(add_help=False)
    formats.add_argument("--format", choices=("text", "json"), default="text")
    symbols = argparse.ArgumentParser(add_help=False, parents=[formats])
    symbols.add_argument("--ascii", action="store_true", help="plain ASCII symbol names in text output")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify", parents=[symbols], help="re-run the built-in worked example")

    sub.add_parser(
        "table1", parents=[symbols], help="reduced minimal polynomials of the nu subfields"
    )

    p_gen = sub.add_parser("generate", help="generate a unitary codebook")
    p_gen.add_argument("--subfield", default="zeta9", help="zeta9, nu:<k>, or L")
    p_gen.add_argument("--box", type=_positive_int, default=1, help="numerator bound")
    p_gen.add_argument("--denom", type=_positive_int, default=1, help="denominator bound")
    p_gen.add_argument("--size", type=_positive_int, default=16, help="target codebook size")
    p_gen.add_argument("--out", required=True, help="output JSON path")

    p_div = sub.add_parser(
        "diversity", parents=[formats], help="recompute the diversity report of a codebook file"
    )
    p_div.add_argument("path", help="codebook JSON path")

    p_embed = sub.add_parser("embed", parents=[symbols], help="matrix embedding of one element")
    group = p_embed.add_mutually_exclusive_group(required=True)
    group.add_argument("--zeta9", help="six comma-separated p/q coefficients of 1..z9^5")
    group.add_argument("--element", help="JSON file with x0/x1/x2 six-tuples")
    return parser


def symbolize(text: str, ascii_symbols: bool) -> str:
    if ascii_symbols:
        return text
    return text.replace("zeta3", "ζ3").replace("theta", "θ")


def _f15(x: float) -> float:
    return float(f"{x:.15g}")


def _complex_pair(z: complex) -> list[float]:
    return [_f15(z.real), _f15(z.imag)]


def _complex_str(z: complex) -> str:
    return f"{z.real:+.6f}{z.imag:+.6f}i"


def serialize_element(x: AlgElem) -> dict:
    return {key: [str(f) for f in part.six_tuple()] for key, part in zip(("x0", "x1", "x2"), x.coords())}


def parse_element(data) -> AlgElem:
    """The element of an object record holding x0, x1, x2 as lists of six coordinates: `_integral` into
    `AlgElem.from_integral`, with no Fraction or field element built."""
    return AlgElem.from_integral(STANDARD_ALGEBRA, *_integral(data))


def _integral(data) -> tuple[list[int], int]:
    """The 18 coordinates of an element record as integers over their lcm q, and q.

    `rat_pair` reads each coordinate as integers (p, q).  ValueError or TypeError for any other shape.
    """
    if not isinstance(data, dict):
        raise TypeError("element record is not a JSON object")
    pairs = []
    for key in ("x0", "x1", "x2"):
        if key not in data:
            raise ValueError(f"element record is missing {key!r}")
        if not isinstance(data[key], list):
            raise TypeError(f"{key!r} is not a list of coordinates")
        part = [rat_pair(v) for v in data[key]]
        if len(part) != 6:
            raise ValueError("expected six rational coordinates")
        pairs += part
    q = math.lcm(*(d for _, d in pairs))
    return [p * (q // d) for p, d in pairs], q


def codebook_to_dict(cb: Codebook, report: Optional[DiversityReport]) -> dict:
    return {
        "spec": {
            "kind": cb.subfield_spec.kind,
            "k": cb.subfield_spec.k,
            "label": cb.subfield_spec.label,
            "box": {
                "numerator_bound": cb.box.numerator_bound,
                "denominator_bound": cb.box.denominator_bound,
            },
            "requested": cb.requested,
        },
        "gamma": "zeta3",
        "elements": [serialize_element(x) for x in cb.elements],
        "matrices": [
            [[_complex_pair(v) for v in row] for row in mat] for mat in cb.matrices.tolist()
        ],
        "diversity": report_to_dict(report) if report is not None else None,
        "complete": cb.complete,
        "precondition_failures": 0,  # kept in the format: a SubfieldSpec is involution-stable, so none can fail
    }


def report_to_dict(report: DiversityReport) -> dict:
    return {
        "zeta": _f15(report.zeta),
        "pair": list(report.pair),
        "min_abs_det": _f15(report.min_abs_det),
        "exact_nonzero": report.exact_nonzero,
    }


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# The worked example's matrix embedding, entry by entry.
_GOLDEN_GRID = [
    ["1+zeta3", "-1-zeta3", "zeta3"],
    ["1", "1+zeta3", "-1-zeta3"],
    ["zeta3", "1", "1+zeta3"],
]

# Reference decimals for the worked example's unitary matrix, stored as the
# transpose of the actual matrix.  The reference digits are truncated and
# mixed-precision, so entries are kept as strings and compared, exactly, at
# one unit in the last displayed decimal place (0.001 for three decimals).
_GOLDEN_NUMERIC = [
    [("-0.421", "-0.182"), ("0.473", "0.638"), ("-0.157", "0.36")],
    [("-0.236", "-0.319"), ("-0.421", "-0.182"), ("0.473", "0.638")],
    [("-0.789", "0.09"), ("-0.236", "-0.319"), ("-0.421", "-0.182")],
]


def _display_units(value: float, text: str) -> Fraction:
    """|value - text| in units of text's last decimal place, exactly, for any number of places."""
    d = Decimal(text)
    return abs(Fraction(value) - Fraction(d)) * 10 ** -d.as_tuple().exponent


def cmd_verify(args: argparse.Namespace) -> int:
    w = worked_example()
    x, ax = w.x, involution(w.x)
    unit = hilbert90_unit(x)
    numeric = numeric_embeddings([unit])[0][0].tolist()

    actual_grid = matrix_embed(x).render()
    actual_inv = serialize_element(ax)
    unit_coeffs = [str(c) for c in to_zeta9(unit)]
    golden_inv = serialize_element(w.involution_image)
    golden_unit = [str(c) for c in w.unit_coeffs]
    checks: list[tuple[str, bool, str, str]] = [
        ("matrix-embedding", actual_grid == _GOLDEN_GRID, str(_GOLDEN_GRID), str(actual_grid)),
        ("involution-image", actual_inv == golden_inv, str(golden_inv), str(actual_inv)),
        ("unit-expansion", unit_coeffs == golden_unit, str(golden_unit), str(unit_coeffs)),
        ("unit-norm", first_non_unitary([unit]) is None, "1", "checked exactly"),
    ]

    worst = max(
        _display_units(value, text)
        for i in range(3)
        for j in range(3)
        for text, value in zip(_GOLDEN_NUMERIC[j][i], (numeric[i][j].real, numeric[i][j].imag))
    )
    checks.append(
        (
            "numeric-unitary-matrix",
            worst <= 1,
            "each entry within one unit of its displayed decimals",
            f"worst deviation {float(worst):.3f} display units",
        )
    )

    ok = all(c[1] for c in checks)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "command": "verify",
                    "unit": zeta9_str(to_zeta9(unit)),
                    "checks": [
                        {"name": n, "ok": passed, "expected": e, "actual": a}
                        for n, passed, e, a in checks
                    ],
                    "ok": ok,
                },
                indent=2,
            )
        )
        return 0 if ok else 1

    s = lambda t: symbolize(t, args.ascii)
    print(s(f"x = {x}"))
    print("matrix embedding:")
    for row in actual_grid:
        print(s("  [" + ", ".join(row) + "]"))
    print(s(f"involution(x) = {ax}"))
    print(s(f"x / involution(x) = {zeta9_str(to_zeta9(unit))}"))
    print("numeric unitary matrix:")
    for row in numeric:
        print("  [" + ", ".join(_complex_str(v) for v in row) + "]")
    for name, passed, expected, actual in checks:
        if passed:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}: expected {expected}, got {actual}")
    print("verification " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------


def _factored(factors, ascii_symbols: bool) -> str:
    dot = "*" if ascii_symbols else "·"
    return dot.join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors)


def cmd_table1(args: argparse.Namespace) -> int:
    rows = subfield_table()
    if args.format == "json":
        print(
            json.dumps(
                {
                    "command": "table1",
                    "rows": [
                        {
                            "k": r.k,
                            "generator": r.generator,
                            "poly": str(r.poly),
                            "discriminant": r.discriminant,
                            "factors": [list(f) for f in r.factors],
                        }
                        for r in rows
                    ],
                },
                indent=2,
            )
        )
        return 0
    for r in rows:
        gen = symbolize(r.generator, args.ascii)
        print(f"{gen} | {r.poly} | {_factored(r.factors, args.ascii)}")
    return 0


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _parse_subfield(text: str):
    if text == "zeta9":
        return subfield("zeta9")
    if text in ("L", "l"):
        return subfield("L")
    if text.startswith("nu:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad subfield spec {text!r}")
        return subfield("nu", k)
    raise ValueError(f"unknown subfield {text!r} (expected zeta9, nu:<k> or L)")


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        sub = _parse_subfield(args.subfield)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    cb = generate_codebook(sub, Box(args.box, args.denom), args.size)
    report = min_det_report(cb.elements) if len(cb) >= 2 else None
    payload = codebook_to_dict(cb, report)
    try:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}")
    print(f"wrote {args.out}")
    print(f"subfield: {cb.subfield_spec.label}  size: {len(cb)}/{cb.requested}")
    print("precondition failures: 0")
    if report is not None:
        print(
            f"diversity: zeta={report.zeta:.6f} min|det|={report.min_abs_det:.6g} "
            f"at pair {report.pair} exact_nonzero={report.exact_nonzero}"
        )
    if not cb.complete:
        print(f"warning: box exhausted after {cb.candidates_scanned} candidates")
        return 1
    return 0


# ---------------------------------------------------------------------------
# diversity
# ---------------------------------------------------------------------------


def cmd_diversity(args: argparse.Namespace) -> int:
    data = read_json(args.path, "codebook")
    if not isinstance(data, dict):
        raise InputError("malformed codebook: top level is not a JSON object")
    if data.get("gamma") != "zeta3":
        raise InputError("unsupported gamma (expected \"zeta3\")")
    try:
        elements = [_integral(rec) for rec in data["elements"]]
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed codebook: {exc}")
    if len(elements) < 2:
        raise InputError("need at least two elements")
    bad, report = family_report(elements, STANDARD_ALGEBRA)
    if bad is not None:
        raise InputError(f"element {bad} is not unitary")
    if not report.exact_nonzero:
        i, j = report.pair
        raise InputError(f"zero difference at pair ({i}, {j})")
    if args.format == "json":
        print(json.dumps({"command": "diversity", **report_to_dict(report)}, indent=2))
    else:
        print(f"elements: {len(elements)}")
        print(f"zeta: {report.zeta:.15g}")
        print(f"min |det|: {report.min_abs_det:.15g} at pair {report.pair}")
        print(f"exact_nonzero: {report.exact_nonzero}")
    return 0


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------


def cmd_embed(args: argparse.Namespace) -> int:
    if args.zeta9 is not None:
        try:
            x = from_zeta9(args.zeta9.split(","))
        except ValueError as exc:
            raise InputError(f"bad --zeta9 coefficients: {exc}")
    else:
        data = read_json(args.element, "element file")
        try:
            x = parse_element(data)
        except (ValueError, TypeError) as exc:
            raise InputError(f"malformed element: {exc}")
    # OverflowError: a value past float range; ValueError: past str()'s digit limit
    try:
        grid = matrix_embed(x).render()
        chi = str(reduced_char_poly(x))
        numeric = numeric_embeddings([x])[0][0].tolist()
        if not all(cmath.isfinite(v) for row in numeric for v in row):
            raise OverflowError("a numeric entry is past float range")
        element = serialize_element(x)
        text = str(x)
    except (OverflowError, ValueError) as exc:
        raise InputError(f"cannot render element: {exc}")
    if args.format == "json":
        print(
            json.dumps(
                {
                    "command": "embed",
                    "element": element,
                    "matrix": grid,
                    "char_poly": chi,
                    "numeric": [[_complex_pair(v) for v in row] for row in numeric],
                },
                indent=2,
            )
        )
        return 0
    s = lambda t: symbolize(t, args.ascii)
    print(s(f"x = {text}"))
    print("matrix embedding:")
    for row in grid:
        print(s("  [" + ", ".join(row) + "]"))
    print(s(f"characteristic polynomial: {chi}"))
    print("numeric (embedding 0):")
    for row in numeric:
        print("  [" + ", ".join(_complex_str(v) for v in row) + "]")
    return 0


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "table1": cmd_table1,
        "generate": cmd_generate,
        "diversity": cmd_diversity,
        "embed": cmd_embed,
    }
    try:
        return handlers[args.command](args)
    except InputError as exc:
        print(f"error: {exc}")
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
