"""Exact construction of fully diverse 3x3 unitary matrix families.

The package builds the cubic cyclic algebra over Q(zeta3) whose degree-3
layer is Q(zeta7 + 1/zeta7, zeta3), equips it with the involution that
shadows the conjugate transpose under the matrix embedding, and produces
unitary matrices as quotients u/involution(u) drawn from commutative
subfields.  Because the algebra is division (certified by the tame
norm-residue criterion at the prime 2 - zeta3, with a bounded non-norm
search as a cross-check), any family obtained this way is fully diverse.
"""

from .rationals import Rat, as_rat, factor_small_int
from .polynomials import Polynomial, discriminant_cubic, has_rational_root
from .fields import KElem, LElem, ZETA3, THETA
from .algebra import (
    AlgElem,
    AlgebraSpec,
    InversionError,
    InvolutionUnavailable,
    MatL,
    STANDARD_ALGEBRA,
    char_poly_rational,
    from_zeta9,
    inverse,
    involution,
    matrix_embed,
    reduced_char_poly,
    reduced_norm,
    subfield_element,
    to_zeta9,
    worked_example,
    zeta9_str,
)

__all__ = [
    "Rat",
    "as_rat",
    "factor_small_int",
    "Polynomial",
    "discriminant_cubic",
    "has_rational_root",
    "KElem",
    "LElem",
    "ZETA3",
    "THETA",
    "AlgElem",
    "AlgebraSpec",
    "InversionError",
    "InvolutionUnavailable",
    "MatL",
    "STANDARD_ALGEBRA",
    "char_poly_rational",
    "from_zeta9",
    "inverse",
    "involution",
    "matrix_embed",
    "reduced_char_poly",
    "reduced_norm",
    "subfield_element",
    "to_zeta9",
    "worked_example",
    "zeta9_str",
]
