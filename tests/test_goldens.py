"""Byte-identity of `unidiv generate` and `unidiv diversity` against stored outputs.

The files under tests/data/diversity/ were written by the exact all-pairs
implementation of `min_det_report`, before the screened numeric minimum
replaced it:

- zeta9_12, nu1_5 and L_8 are `unidiv generate --box 1 --denom 1` codebooks
  (ζ9 with 12 elements, ν₁ with 5, L with 8);
- mixed_6 holds the fifth Box(1,1) unit of each of six subfields, so every
  pair takes the generic determinant;
- k_units_6 holds the six units ±1, ±ζ₃, ±ζ₃² of K, whose pairwise |det|
  take only the values 1, 3√3 and 8, with many exact ties;
- duplicate_6 repeats two ζ9 units at non-adjacent positions, (0, 4) and
  (1, 3), so the first duplicate by position is not the first pair found;
- nonunitary_6 holds six ζ9 units of zeta9_12 (its elements 4-9) with
  element 2 doubled and element 5 scaled by -1/3, so the least non-unitary
  index is reported; its outputs were written before one closed form
  checked and embedded every element of a `diversity` request.

nu5_b2_24 is `unidiv generate --subfield nu:5 --box 2 --size 24`, written
before the closed forms gained their float64 tier: its candidates take
int64, its unit forms the float tier, and the Nrd rechecks of its pair
differences object arrays.

zeta9_d13_20 is `unidiv generate --subfield zeta9 --denom 13 --size 20`,
written before the closed forms lost their sparse int64 tier, when its
candidates took object arrays; they now take int64 (Q = 360360), and the
unit forms pass the float limit into Python integers.

Each NAME.json sits next to NAME.diversity.json and NAME.diversity.txt, the
stdout of `unidiv diversity NAME.json` in JSON and text format.  The five
generated goldens also have NAME.generate.txt, the stdout of the `unidiv
generate` run that wrote them, without its first line, `wrote <path>`; it
was written before the codebook stopped counting precondition failures.
"""

from pathlib import Path

import pytest

from unidiv.cli import main

DATA = Path(__file__).resolve().parent / "data" / "diversity"
NAMES = ("zeta9_12", "nu1_5", "L_8", "mixed_6", "k_units_6", "duplicate_6", "nonunitary_6", "nu5_b2_24",
         "zeta9_d13_20")
REJECTED = ("duplicate_6", "nonunitary_6")
# name: (subfield, box numerator bound, size, denominator bound)
GENERATED = {
    "zeta9_12": ("zeta9", 1, 12, 1),
    "nu1_5": ("nu:1", 1, 5, 1),
    "L_8": ("L", 1, 8, 1),
    "nu5_b2_24": ("nu:5", 2, 24, 1),
    "zeta9_d13_20": ("zeta9", 1, 20, 13),
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", NAMES)
def test_diversity_output_matches_golden(capsys, name, fmt):
    code = main(["diversity", str(DATA / f"{name}.json"), "--format", fmt])
    out = capsys.readouterr().out
    suffix = "json" if fmt == "json" else "txt"
    assert out == (DATA / f"{name}.diversity.{suffix}").read_text()
    assert code == (1 if name in REJECTED else 0)


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generate_output_matches_golden(capsys, tmp_path, name):
    sub, box, size, denom = GENERATED[name]
    path = tmp_path / f"{name}.json"
    args = ["--subfield", sub, "--box", str(box), "--size", str(size), "--denom", str(denom), "--out", str(path)]
    code = main(["generate", *args])
    out = capsys.readouterr().out
    assert code == 0
    assert path.read_bytes() == (DATA / f"{name}.json").read_bytes()
    # the stdout after its "wrote <path>" line, which names the output path
    assert out.splitlines()[0] == f"wrote {path}"
    assert out.splitlines()[1:] == (DATA / f"{name}.generate.txt").read_text().splitlines()
