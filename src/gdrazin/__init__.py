"""Drazin inverses of sums and 2x2 block matrices under scalar
power-commutation hypotheses, with an independent SVD-based oracle for
cross-validation and a seeded generator of valid and deliberately broken
instances.

Importing the package loads none of its modules. Each public name is read
from its defining module on every access (PEP 562), and that module is
imported on the first one, so ``import gdrazin`` costs almost nothing and
only the generator's users load the generator (and ``numpy.random``). A
name replaced in its defining module, by ``monkeypatch`` for example, is
what the package gives. A submodule (``gdrazin.casegen``) is imported on
first access as well.
"""

import importlib

__version__ = "0.1.0"

# Each public name, under the module that defines it.
_EXPORTS = {
    "additive": (
        "FactorCheck",
        "PAIR_TARGETS",
        "check_factor_condition",
        "drazin_sum",
        "drazin_sum_nilpotent",
        "nilpotent_sum_closure",
    ),
    "blockmat": (
        "RULE_IDS",
        "Block2x2",
        "assemble",
        "block_drazin",
        "check_hypothesis",
        "closed_form_drazin",
        "exchange",
    ),
    "casegen": (
        "PRESET_SPECS",
        "CaseSpec",
        "GeneratedCase",
        "generate",
        "preset",
    ),
    "drazin": (
        "AxiomReport",
        "DrazinResult",
        "check_drazin_axioms",
        "drazin_index",
        "drazin_oracle",
        "is_quasinilpotent",
    ),
    "errors": (
        "AxiomViolation",
        "ConvergenceError",
        "GDrazinError",
        "GenerationFailed",
        "NotIdempotent",
        "NotTriangular",
        "PreconditionViolated",
        "ReconciliationError",
    ),
    "evaluation": ("TARGETS", "Outcome", "certify", "evaluate"),
    "linalg": ("fro_norm", "scale_of"),
    "pierce": ("PierceSplit", "cline_drazin", "pierce_split", "triangular_drazin"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "io", "series"}

__all__ = [*sorted(_ORIGIN), "__version__"]


def __getattr__(name: str):
    if name in _ORIGIN:
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
