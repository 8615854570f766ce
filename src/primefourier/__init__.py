"""Exact Fourier analysis on prime cyclic groups.

Everything runs in the cyclotomic field Q(w), w = e^(2*pi*i/p), with exact
rational coefficients, so statements like "this determinant is nonzero" or
"this signal is supported exactly on A" are decided, not approximated.
"""

from .applications import (
    CDCheck,
    CDInequalityChain,
    CDWitness,
    MeshulamReport,
    MultiSignal,
    SparsePoly,
    SparseZeroReport,
    cauchy_davenport_check,
    cd_proof_witness,
    meshulam_check,
    multi_dft,
    multi_idft,
    sparse_zero_count,
    sumset,
)
from .cyclotomic import (
    CycloNum,
    PrimeModulus,
    is_prime,
)
from .errors import BudgetExceededError, TheoremViolationError
from .fourier import (
    FourierMinor,
    SignalFn,
    SupportSet,
    convolve,
    dft,
    fourier_support,
    idft,
    minor_cramer,
    minor_det,
    minor_nonsingular,
    minor_solve,
    support,
)
from .uncertainty import (
    AchievabilityWitness,
    CertificationSummary,
    UncertaintyReport,
    certify_tightness,
    construct_support_pair,
    exhaustive_certification,
    verify_uncertainty,
)

__version__ = "0.1.0"

__all__ = [
    "AchievabilityWitness",
    "BudgetExceededError",
    "CDCheck",
    "CDInequalityChain",
    "CDWitness",
    "CertificationSummary",
    "CycloNum",
    "FourierMinor",
    "MeshulamReport",
    "MultiSignal",
    "PrimeModulus",
    "SignalFn",
    "SparsePoly",
    "SparseZeroReport",
    "SupportSet",
    "TheoremViolationError",
    "UncertaintyReport",
    "cauchy_davenport_check",
    "cd_proof_witness",
    "certify_tightness",
    "construct_support_pair",
    "convolve",
    "dft",
    "exhaustive_certification",
    "fourier_support",
    "idft",
    "is_prime",
    "meshulam_check",
    "minor_cramer",
    "minor_det",
    "minor_nonsingular",
    "minor_solve",
    "multi_dft",
    "multi_idft",
    "sparse_zero_count",
    "sumset",
    "support",
    "verify_uncertainty",
]
