"""One evaluation route for an instance of a pair or block target.

``evaluate`` judges an instance two ways, in order: the hypothesis rows of
the target (``certify``), then either the closure verdict (2.2) or the
formula against the SVD oracle on the assembled matrix. The oracle data of
the operands is computed once and read by both the rows and the formula.
``gdz sum``, ``gdz block`` and ``gdz verify`` call it and only report what
it found.
"""

from dataclasses import dataclass

import numpy as np

from .additive import FactorCheck, drazin_sum, pair_oracles
from .blockmat import Block2x2, assemble, block_drazin, block_oracles
from .casegen import certify
from .drazin import DrazinResult, drazin_oracle, is_quasinilpotent
from .errors import AxiomViolation, ConvergenceError
from .linalg import DEFAULT_TOL, Tolerance, fro_norm, scale_of

__all__ = ["Outcome", "evaluate"]


@dataclass
class Outcome:
    """What ``evaluate`` found; the fields past ``failing`` stay None where
    it stopped.

    Attributes
    ----------
    conditions : tuple of FactorCheck
        Every hypothesis row of the target, in catalog order.
    failing : list of FactorCheck
        The rows that do not hold.
    closed : bool or None
        Target 2.2 only: whether a + b is quasinilpotent.
    formula : ndarray or None
        The formula's Drazin inverse of the sum or the block matrix.
    m : ndarray or None
        The matrix the formula inverts: a + b, or the assembled blocks.
    oracle : DrazinResult or None
        The oracle's result on ``m``.
    gap : float or None
        ||formula - oracle.d||, Frobenius norm.
    bound : float or None
        eps_match times the scale of the operands; the formula matches the
        oracle when gap <= bound.
    error : str or None
        The ConvergenceError or AxiomViolation raised by the formula or by
        the oracle on ``m``.
    """

    conditions: tuple[FactorCheck, ...]
    failing: list[FactorCheck]
    closed: bool | None = None
    formula: np.ndarray | None = None
    m: np.ndarray | None = None
    oracle: DrazinResult | None = None
    gap: float | None = None
    bound: float | None = None
    error: str | None = None


def evaluate(
    kind: str,
    target: str,
    mats: dict[str, np.ndarray],
    lam: complex | None = None,
    tol: Tolerance = DEFAULT_TOL,
    force: bool = False,
) -> Outcome:
    """Conditions, then closure (2.2) or formula, oracle and gap.

    ``kind`` is "pair" (matrices {"a", "b"}, targets 2.2-2.4) or "block"
    ({"a", "b", "c", "d"}, the block rules). ``lam`` fixes the scalar of the
    conditions and the formula; None fits it. Without ``force`` the outcome
    stops after the conditions when one fails. An AxiomViolation of the
    oracle on an operand propagates; one raised on ``m``, and a
    ConvergenceError of the formula, end up in ``error``.
    """
    if kind == "block":
        blocks = Block2x2(**mats)
        oracles = block_oracles(blocks, target, tol)
    else:
        oracles = pair_oracles(target, mats["a"], mats["b"], tol)
    conditions = certify(kind, target, mats, lam, tol, oracles)
    out = Outcome(conditions, [c for c in conditions if not c.holds])
    if out.failing and not force:
        return out
    if target == "2.2":
        # certify has checked every condition of the closure theorem
        out.closed = not out.failing and is_quasinilpotent(mats["a"] + mats["b"], tol)
        return out
    try:
        if kind == "block":
            out.formula = block_drazin(blocks, target, tol, lam=lam, force=True, **oracles)
            out.m = assemble(blocks)
        else:
            out.formula = drazin_sum(mats["a"], mats["b"], tol, lam=lam, force=True, **oracles)
            out.m = mats["a"] + mats["b"]
        out.oracle = drazin_oracle(out.m, tol)
    except (ConvergenceError, AxiomViolation) as exc:
        out.error = str(exc)
        return out
    out.gap = fro_norm(out.formula - out.oracle.d)
    out.bound = tol.eps_match * scale_of(*mats.values())
    return out
