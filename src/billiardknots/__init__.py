"""Kauffman bracket and Jones polynomials of billiard-table knot diagrams.

Two routes to every bracket value: closed-form term expansions evaluated
against a crossing-sign sequence (fast), and an exhaustive skein state sum
over the combinatorial diagram (the oracle the expansions are checked
against).
"""

from .billiard import BilliardDiagram, SignedDiagram, TableSpec, diagram
from .laurent import (
    DELTA,
    LaurentPoly,
    QuarterPoly,
    coefficient_string,
    delta_power,
    jones_normalize,
)
from .oracle import bracket_all_signs, bracket_bruteforce, sign_sequences
from .recursions import (
    b_terms,
    bt_terms,
    compositions,
    expand_block,
    f_terms,
    h_terms,
    padovan,
    writhe_recursive,
)
from .terms import (
    CompiledTermSum,
    Factor,
    TermSum,
    parse_signs,
)
from .tiling import count_domino_tilings, enumerate_term_tilings, tiling_to_term

__version__ = "0.1.0"

__all__ = [
    "BilliardDiagram",
    "CompiledTermSum",
    "DELTA",
    "Factor",
    "LaurentPoly",
    "QuarterPoly",
    "SignedDiagram",
    "TableSpec",
    "TermSum",
    "b_terms",
    "bracket_all_signs",
    "bracket_bruteforce",
    "bt_terms",
    "coefficient_string",
    "compositions",
    "count_domino_tilings",
    "delta_power",
    "diagram",
    "enumerate_term_tilings",
    "expand_block",
    "f_terms",
    "h_terms",
    "jones_normalize",
    "padovan",
    "parse_signs",
    "sign_sequences",
    "tiling_to_term",
    "writhe_recursive",
]
