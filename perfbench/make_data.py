"""Regenerate the stored inputs and goldens under perfbench/data.

    python3 perfbench/make_data.py

pool.json holds, per CLI subfield, the elements `unidiv generate` writes
at Box(1,1); the diversity workload samples its files from it, so set-up
does not regenerate units.  codebook_golden.json holds, per codebook
request key (subfield, optionally with its reparametrisation a + b*g), the
digests of the first elements in order; the codebook workload checks
every output against it.  Both are made by the program at the commit the
benchmark was defined on, and any later change to them is a change of
output.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import unidiv.cli  # noqa: E402
import workloads  # noqa: E402

POOL_SIZES = {"zeta9": 24, "L": 16}
NU_POOL_SIZE = 12
GOLDEN_SIZE = max(workloads.CodebookWorkload.SIZES)


def make_pool() -> dict:
    pool = {}
    with tempfile.TemporaryDirectory() as tmp:
        for sub in workloads.SUBFIELDS:
            out = Path(tmp) / "cb.json"
            size = POOL_SIZES.get(sub, NU_POOL_SIZE)
            argv = ["generate", "--subfield", sub, "--box", "1", "--denom", "1",
                    "--size", str(size), "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                if unidiv.cli.main(argv) != 0:
                    raise SystemExit(f"generate failed for {sub}")
            pool[sub] = json.loads(out.read_text())["elements"]
    return pool


def make_golden() -> dict:
    golden = {}
    box = unidiv.codebook.Box(1, 1)
    for sub in workloads.SUBFIELDS:
        for reparam in (None, *workloads.CodebookWorkload.REPARAMS):
            spec = workloads.make_subfield(unidiv, sub, reparam)
            cb = unidiv.codebook.generate_codebook(spec, box, GOLDEN_SIZE)
            if not cb.complete:
                raise SystemExit(f"Box(1,1) runs out for {sub} {reparam}")
            key = workloads.golden_key(sub, reparam)
            golden[key] = [workloads.digest(workloads.serialize(x)) for x in cb.elements]
    return golden


def main() -> None:
    data = HERE / "data"
    data.mkdir(exist_ok=True)
    (data / "pool.json").write_text(json.dumps(make_pool(), indent=1) + "\n")
    (data / "codebook_golden.json").write_text(json.dumps(make_golden(), indent=1) + "\n")


if __name__ == "__main__":
    main()
