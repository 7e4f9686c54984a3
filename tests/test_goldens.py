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
  (1, 3), so the first duplicate by position is not the first pair found.

nu5_b2_24 is `unidiv generate --subfield nu:5 --box 2 --size 24`, written
before the closed forms gained their float64 tier: its candidates take
int64 (a 56-bit peak), its unit forms the float tier, and the Nrd rechecks
of its pair differences object arrays.

Each NAME.json sits next to NAME.diversity.json and NAME.diversity.txt, the
stdout of `unidiv diversity NAME.json` in JSON and text format.
"""

from pathlib import Path

import pytest

from unidiv.cli import main

DATA = Path(__file__).resolve().parent / "data" / "diversity"
NAMES = ("zeta9_12", "nu1_5", "L_8", "mixed_6", "k_units_6", "duplicate_6", "nu5_b2_24")
# name: (subfield, box numerator bound, size)
GENERATED = {"zeta9_12": ("zeta9", 1, 12), "nu1_5": ("nu:1", 1, 5), "L_8": ("L", 1, 8), "nu5_b2_24": ("nu:5", 2, 24)}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", NAMES)
def test_diversity_output_matches_golden(capsys, name, fmt):
    code = main(["diversity", str(DATA / f"{name}.json"), "--format", fmt])
    out = capsys.readouterr().out
    suffix = "json" if fmt == "json" else "txt"
    assert out == (DATA / f"{name}.diversity.{suffix}").read_text()
    assert code == (1 if name == "duplicate_6" else 0)


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generate_output_matches_golden(capsys, tmp_path, name):
    sub, box, size = GENERATED[name]
    path = tmp_path / f"{name}.json"
    code = main(["generate", "--subfield", sub, "--box", str(box), "--size", str(size), "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    assert path.read_bytes() == (DATA / f"{name}.json").read_bytes()
