"""linmono: Galois groups of L(x) + tx over F_q(t) for q-linearized L.

Exact finite-field and polynomial arithmetic, Singer-normalizer matrix
groups, Frobenius cycle-type sampling by factoring specializations, and
a verdict engine that decides GL(n, q) versus GammaL(1, q^n) where a
theorem applies -- always with independently re-checkable evidence.
"""

from .ff import (CapExceededError, Field, FieldElement,
                 FieldMismatchError, embed, extend_field, frobenius,
                 is_prime, is_square, make_field, parse_field_spec)
from .poly import (Poly, discriminant, factor, factor_degrees,
                   is_irreducible, num_irreducible, resultant)
from .linpoly import (LinPoly, SquareClass, disc_square_class, evaluate,
                      parse_linpoly, reduced, root_space, specialize,
                      square_class, to_poly)
from .group import (CycleCensus, census, cycle_type_of, frobenius_matrix,
                    generate_group, gl_census, gl_order, normalizer_census,
                    perm_sign, singer_generator, singer_modulus)
from .engine import (Evidence, Sample, SampleRun, Verdict,
                     disc_nonsquare_witness, normalize,
                     normalizer_incompatibility_witness,
                     order_lcm_evidence, recheck, sample_cycle_types,
                     verdict, verify_alternating_char2, verify_disc_lemma,
                     verify_factor_identity, verify_gmg,
                     verify_normalizer)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError", "Field", "FieldElement", "FieldMismatchError",
    "embed", "extend_field", "frobenius", "is_prime", "is_square",
    "make_field", "parse_field_spec",
    "Poly", "discriminant", "factor", "factor_degrees", "is_irreducible",
    "num_irreducible", "resultant",
    "LinPoly", "SquareClass", "disc_square_class", "evaluate",
    "parse_linpoly", "reduced", "root_space", "specialize",
    "square_class", "to_poly",
    "CycleCensus", "census", "cycle_type_of", "frobenius_matrix",
    "generate_group", "gl_census", "gl_order", "normalizer_census",
    "perm_sign", "singer_generator", "singer_modulus",
    "Evidence", "Sample", "SampleRun", "Verdict",
    "disc_nonsquare_witness", "normalize",
    "normalizer_incompatibility_witness", "order_lcm_evidence", "recheck",
    "sample_cycle_types", "verdict", "verify_alternating_char2",
    "verify_disc_lemma", "verify_factor_identity", "verify_gmg",
    "verify_normalizer",
    "__version__",
]
