"""Wieferich and non-Wieferich places of imaginary quadratic rings.

The package classifies prime ideals P of the ring of integers of
Q(sqrt(-d)) (or plain rational primes) as Wieferich or non-Wieferich
places for a fixed base a, splits the ideals (a^n - 1) into squarefree
and powerful parts level by level, runs censuses of new non-Wieferich
places whose norms lie in a fixed residue class, and exposes exact
checks for every finite inequality the construction relies on.
"""

from .cyclo import (
    CycloFactorCache,
    Decomposition,
    cyclotomic_eval,
    decompose,
    divisors,
    euler_phi,
    high_totient_count,
    totient_density_constant,
)
from .ideals import (
    BudgetExhausted,
    IdealFactorization,
    KIND_INERT,
    KIND_RAMIFIED,
    KIND_RATIONAL,
    KIND_SPLIT,
    PrimeIdeal,
    element_valuation,
    factor_principal,
    primes_above,
    residue_order,
    residue_pow,
)
from .intfactor import FactorBudget, FactorResult, certify_prime, factorize, is_probable_prime
from .places import (
    CensusRecord,
    CensusResult,
    InvariantViolation,
    PlaceReport,
    STRATEGY_ALL_LEVELS,
    STRATEGY_PRIME_LEVELS,
    census,
    is_wieferich_place,
    place_report,
    scan_wieferich_places,
)
from .qfield import BaseClass, FieldSpec, InexactDivisionError, QuadInt, classify_base, is_squarefree
from .verify import (
    FullVerification,
    QualityReport,
    abc_quality,
    check_cyclotomic_norm_lower_bound,
    check_order_consistency_range,
    check_pairwise_coprime,
    check_sandwich,
    check_squarefree_nonwieferich,
    check_upper_norm_bound,
    exception_set,
    exception_set_union,
    run_full_verification,
)

__version__ = "0.1.0"

__all__ = [
    "BaseClass",
    "BudgetExhausted",
    "CensusRecord",
    "CensusResult",
    "CycloFactorCache",
    "Decomposition",
    "FactorBudget",
    "FactorResult",
    "FieldSpec",
    "FullVerification",
    "IdealFactorization",
    "InexactDivisionError",
    "InvariantViolation",
    "KIND_INERT",
    "KIND_RAMIFIED",
    "KIND_RATIONAL",
    "KIND_SPLIT",
    "PlaceReport",
    "PrimeIdeal",
    "QuadInt",
    "QualityReport",
    "STRATEGY_ALL_LEVELS",
    "STRATEGY_PRIME_LEVELS",
    "abc_quality",
    "census",
    "certify_prime",
    "check_cyclotomic_norm_lower_bound",
    "check_order_consistency_range",
    "check_pairwise_coprime",
    "check_sandwich",
    "check_squarefree_nonwieferich",
    "check_upper_norm_bound",
    "classify_base",
    "cyclotomic_eval",
    "decompose",
    "divisors",
    "element_valuation",
    "euler_phi",
    "exception_set",
    "exception_set_union",
    "factor_principal",
    "factorize",
    "high_totient_count",
    "is_probable_prime",
    "is_squarefree",
    "is_wieferich_place",
    "place_report",
    "primes_above",
    "residue_order",
    "residue_pow",
    "run_full_verification",
    "scan_wieferich_places",
    "totient_density_constant",
]
