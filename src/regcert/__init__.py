"""Exact regularity certificates for polynomially parametrised varieties."""

from .groebner import (GroebnerBasis, IdealPresentation, Parametrisation,
                       buchberger, eliminate, groebner_basis, ideal_equal,
                       image_ideal, initial_ideal, kernel_of_map, normal_form,
                       passes_buchberger_criterion)
from .monomials import (HilbertSeries, MacaulayViolation, MonomialIdeal,
                        ci_hilbert_function, ci_lex_ideal, compute_G, g_cap,
                        hilbert_function, is_strongly_stable,
                        lex_segment_ideal, stable_regularity)
from .parser import ParseError, format_polynomial, parse_ideal_file
from .reports import VerificationReport
from .resolution import BettiTable, betti_table, regularity, t_invariants
from .rings import (BlockOrder, DegRevLexOrder, LexOrder, Polynomial,
                    PolyRing, PowerMap, apply_power_map, make_ring,
                    s_polynomial)
from .scalars import DEFAULT_PRIME, QQ, PrimeField, field_of_characteristic
from .verify import (verify_main, verify_main_trials, verify_poweli,
                     verify_poweli_trials, verify_regbound,
                     verify_regbound_trials, verify_regflat)

__version__ = "0.1.0"

__all__ = [
    "BettiTable", "BlockOrder", "DegRevLexOrder", "DEFAULT_PRIME",
    "GroebnerBasis", "HilbertSeries", "IdealPresentation", "LexOrder",
    "MacaulayViolation", "MonomialIdeal", "Parametrisation", "ParseError",
    "PolyRing", "Polynomial", "PowerMap", "PrimeField", "QQ",
    "VerificationReport", "apply_power_map", "betti_table", "buchberger",
    "ci_hilbert_function", "ci_lex_ideal", "compute_G",
    "eliminate", "field_of_characteristic",
    "format_polynomial", "g_cap", "groebner_basis", "hilbert_function",
    "ideal_equal", "image_ideal", "initial_ideal", "is_strongly_stable",
    "kernel_of_map", "lex_segment_ideal",
    "make_ring", "normal_form",
    "passes_buchberger_criterion", "parse_ideal_file", "regularity",
    "s_polynomial", "stable_regularity",
    "t_invariants", "verify_main", "verify_main_trials", "verify_poweli",
    "verify_poweli_trials", "verify_regbound", "verify_regbound_trials",
    "verify_regflat",
]
