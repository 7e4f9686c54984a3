#!/usr/bin/env python3
"""Non-norm scan for the algebra's twisting unit, a cross-check of its certificate.

Searches coordinate boxes of growing size for field elements whose norm
down to Q(zeta3) equals zeta3 or zeta3^2.  `division_certificate` proves
there is none, so the expected outcome is a growing table of "none".
Positive controls confirm the search machinery: rational cubes, whose
witnesses lie in the first block of their stratum, and 71, whose first
witness 3 + theta + theta^2 lies in the last stratum of Box(3, 2), past its
first block, so that its hit is read back from a later block.

The search keeps each box's strata once built, so in the table's timing the
second target of a box (zeta3^2) reuses the strata the first (zeta3) built,
and the controls have already built every stratum of Box(3, 2).
"""

import time

from unidiv.codebook import Box, division_certificate, norm_witness_search
from unidiv.fields import KElem, ZETA3

BOXES = (Box(1, 1), Box(2, 1), Box(2, 2), Box(3, 2))


def main() -> None:
    print("positive controls:")
    for n in (1, 8, 27, 71):
        found = norm_witness_search(KElem(n), Box(3, 2))
        print(f"  norm(u) = {n}: witness u = {found}")
    print()
    print(f"{'box':>10} {'candidates':>12} {'zeta3':>8} {'zeta3^2':>8} {'ms':>7}")
    for box in BOXES:
        count = len(box.values()) ** 6 - 1  # nonzero six-tuples
        t0 = time.perf_counter()
        w1 = norm_witness_search(ZETA3, box)
        w2 = norm_witness_search(ZETA3 * ZETA3, box)
        elapsed = time.perf_counter() - t0
        fmt = lambda w: "none" if w is None else str(w)
        print(
            f"  B={box.numerator_bound} D={box.denominator_bound} "
            f"{count:>12} {fmt(w1):>8} {fmt(w2):>8} {elapsed * 1e3:>7.1f}"
        )
    print()
    cert = division_certificate(ZETA3)
    print(
        f"division certified: zeta3 = {cert.gamma_residue} mod {cert.prime} is not a cube "
        f"mod {cert.p} (cubes {sorted(cert.cubes)})"
    )


if __name__ == "__main__":
    main()
