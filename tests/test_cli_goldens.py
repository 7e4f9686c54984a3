"""Byte-identity of `unidiv verify`, `unidiv table1` and `unidiv embed` against stored outputs.

The files under tests/data/cli/ are the stdout of these commands as
written by the matrix-determinant implementation of the reduced
characteristic polynomial, before the coordinate closed form replaced it.
element.json holds one record whose three L parts all have nonzero theta
components, so its characteristic polynomial takes the generic formula.
"""

from pathlib import Path

import pytest

from unidiv.cli import main

DATA = Path(__file__).resolve().parent / "data" / "cli"
ELEMENT = str(DATA / "element.json")

CASES = {
    "verify.txt": ["verify"],
    "verify.ascii.txt": ["verify", "--ascii"],
    "verify.json": ["verify", "--format", "json"],
    "table1.txt": ["table1"],
    "table1.json": ["table1", "--format", "json"],
    "embed_zeta9.txt": ["embed", "--zeta9", "1,1,0,1,0,1"],
    "embed_zeta9.json": ["embed", "--zeta9", "1,1,0,1,0,1", "--format", "json"],
    "embed_element.txt": ["embed", "--element", ELEMENT],
    "embed_element.json": ["embed", "--element", ELEMENT, "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, name):
    code = main(CASES[name])
    assert capsys.readouterr().out == (DATA / name).read_text()
    assert code == 0
