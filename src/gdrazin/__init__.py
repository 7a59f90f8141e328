"""Drazin inverses of sums and 2x2 block matrices under scalar
power-commutation hypotheses, with an independent SVD-based oracle for
cross-validation and a seeded generator of valid and deliberately broken
instances.
"""

from .additive import (
    FactorCheck,
    check_factor_condition,
    drazin_sum,
    drazin_sum_nilpotent,
    nilpotent_sum_closure,
)
from .blockmat import (
    RULE_IDS,
    Block2x2,
    assemble,
    block_drazin,
    check_hypothesis,
    closed_form_drazin,
    exchange,
)
from .casegen import (
    BLOCK_TARGETS,
    PAIR_TARGETS,
    PRESET_SPECS,
    TARGETS,
    CaseSpec,
    GeneratedCase,
    certify,
    generate,
    preset,
)
from .drazin import (
    AxiomReport,
    DrazinResult,
    check_drazin_axioms,
    drazin_index,
    drazin_oracle,
    is_quasinilpotent,
)
from .errors import (
    AxiomViolation,
    ConvergenceError,
    GDrazinError,
    GenerationFailed,
    NotIdempotent,
    NotTriangular,
    PreconditionViolated,
    ReconciliationError,
)
from .evaluation import Outcome, evaluate
from .linalg import DEFAULT_TOL, Tolerance, fro_norm, scale_of
from .pierce import PierceSplit, cline_drazin, pierce_split, triangular_drazin

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "AxiomViolation",
    "BLOCK_TARGETS",
    "Block2x2",
    "CaseSpec",
    "ConvergenceError",
    "DEFAULT_TOL",
    "DrazinResult",
    "FactorCheck",
    "GDrazinError",
    "GeneratedCase",
    "GenerationFailed",
    "NotIdempotent",
    "NotTriangular",
    "Outcome",
    "PAIR_TARGETS",
    "PRESET_SPECS",
    "PierceSplit",
    "PreconditionViolated",
    "RULE_IDS",
    "ReconciliationError",
    "TARGETS",
    "Tolerance",
    "assemble",
    "block_drazin",
    "certify",
    "check_drazin_axioms",
    "check_factor_condition",
    "check_hypothesis",
    "cline_drazin",
    "closed_form_drazin",
    "drazin_index",
    "drazin_oracle",
    "drazin_sum",
    "drazin_sum_nilpotent",
    "evaluate",
    "exchange",
    "fro_norm",
    "generate",
    "is_quasinilpotent",
    "nilpotent_sum_closure",
    "pierce_split",
    "preset",
    "scale_of",
    "triangular_drazin",
    "__version__",
]
