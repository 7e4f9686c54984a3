#!/usr/bin/env python3
"""Scan diversity products of codebooks drawn from the named subfields.

For each subfield and codebook size, generates the deterministic codebook
over a unit coordinate box and prints the diversity product, minimal |det|
and the minimizing pair.  Everything is exact except the final cube root.
"""

import time

from unidiv.codebook import Box, generate_codebook, min_det_report, subfield

SIZES = (8, 16, 32, 64)
SUBFIELDS = (("zeta9", None), ("nu", 1), ("nu", 3), ("L", None))


def main() -> None:
    box = Box(1, 1)
    print(f"{'subfield':10} {'size':>5} {'zeta':>10} {'min |det|':>12} {'pair':>10} {'sec':>6}")
    for kind, k in SUBFIELDS:
        sub = subfield(kind, k)
        for size in SIZES:
            t0 = time.perf_counter()
            cb = generate_codebook(sub, box, size)
            if len(cb.elements) < 2:
                continue
            rep = min_det_report(cb.elements)
            elapsed = time.perf_counter() - t0
            label = sub.label + ("" if cb.complete else "*")
            print(
                f"{label:10} {len(cb.elements):>5} {rep.zeta:>10.6f} "
                f"{rep.min_abs_det:>12.6g} {str(rep.pair):>10} {elapsed:>6.2f}"
            )
            if not cb.complete:
                break
    print("(* box exhausted before reaching the requested size)")


if __name__ == "__main__":
    main()
