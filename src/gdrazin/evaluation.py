"""One evaluation route for an instance of a pair or block target.

The target says which operands an instance has (``target_kind``; their
names are ``OPERANDS``). ``evaluate`` refuses any other set, checks the
operands once (``square_pair`` or ``Block2x2``) and judges the instance two
ways, in order: the hypothesis rows of the target, then either the closure
verdict (2.2) or the formula against the SVD oracle on the assembled matrix.
Oracle data is formed here alone, one set per request, which the rows and
the engine (``sum_formula`` or ``block_formula``) read with the checked
operands as they are. ``gdz sum``, ``gdz block`` and ``gdz verify`` call it,
and the library routes too: each public formula entry is ``solve``.
"""

from dataclasses import dataclass

import numpy as np

from .additive import (
    _PAIR_CONDITIONS, PAIR_TARGETS, FactorCheck, _pair_factors, check_condition_rows, condition_rows,
    pair_oracles, require_hypothesis, require_lambda, square_pair, sum_formula,
)
from .blockmat import _CONDITIONS, RULE_IDS, Block2x2, _block_factors, assemble, block_formula, block_oracles
from .drazin import DrazinResult, drazin_oracle, is_quasinilpotent
from .errors import AxiomViolation, ConvergenceError
from .linalg import EPS_MATCH, fro_norm, scale_of

__all__ = ["OPERANDS", "TARGETS", "Outcome", "target_kind", "certify", "evaluate", "solve"]

# Every target id: the pair targets, then the block rules.
TARGETS = PAIR_TARGETS + RULE_IDS

# The operand names of each kind of target: an instance maps exactly these.
OPERANDS = {"pair": ("a", "b"), "block": ("a", "b", "c", "d")}
# The factors that the labels of each target name, for both kinds: the
# factor maps bind only the idempotents named here.
_NAMED = {target: frozenset(f for _, lhs, rhs, _ in conditions for f in lhs + (rhs or ()))
          for target, conditions in {**_PAIR_CONDITIONS, **_CONDITIONS}.items()}


def target_kind(target: str) -> str:
    """"pair" for a pair target (PAIR_TARGETS), "block" for a block rule
    (RULE_IDS); ValueError for any other id."""
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}; valid: {', '.join(TARGETS)}")
    return "pair" if target in PAIR_TARGETS else "block"


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
        EPS_MATCH times the scale of the operands; the formula matches the
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


def _judge(
    target: str, mats: dict[str, np.ndarray], lam: complex | None
) -> tuple[Block2x2 | tuple[np.ndarray, np.ndarray], dict, tuple[FactorCheck, ...]]:
    """The checked operands of a request, their oracle data and the
    hypothesis rows of ``target``: its parsed labels, multiplied out on the
    factor map of that data and checked at ``lam`` (None fits the scalar).
    ValueError for a bad ``lam``, before any oracle runs, and unless
    ``mats`` maps exactly the target's OPERANDS."""
    require_lambda(lam)
    kind = target_kind(target)
    if set(mats) != set(OPERANDS[kind]):
        raise ValueError(f"target {target} takes operands {list(OPERANDS[kind])}, got {list(mats)}")
    if kind == "block":
        ops = Block2x2(**mats)
        oracles = block_oracles(ops, target)
        table, factors = _CONDITIONS, _block_factors(ops, _NAMED[target], **oracles)
    else:
        ops = square_pair(**mats)
        oracles = pair_oracles(target, *ops)
        table, factors = _PAIR_CONDITIONS, _pair_factors(*ops, _NAMED[target], **oracles)
    return ops, oracles, tuple(check_condition_rows(condition_rows(table[target], factors), lam))


def _formula(target: str, ops, oracles: dict) -> tuple[np.ndarray, np.ndarray]:
    """The engine of ``target`` on _judge's operands and oracle data: the
    formula, and the matrix it inverts (a + b, or the assembled blocks)."""
    if isinstance(ops, Block2x2):
        return block_formula(ops, target, **oracles), assemble(ops)
    return sum_formula(*ops, **oracles), ops[0] + ops[1]


def certify(target: str, mats: dict[str, np.ndarray], lam: complex | None) -> tuple[FactorCheck, ...]:
    """Every hypothesis condition of a target, checked on explicit matrices.

    ``lam`` fixes the scalar; None fits it per condition. ``evaluate``
    judges by these same rows, on the same oracle data, so a generator
    certificate can be reproduced from the saved matrices alone. ValueError
    for an unknown target or operands that do not fit it.
    """
    return _judge(target, mats, lam)[2]


def solve(
    target: str, mats: dict[str, np.ndarray], lam: complex | None = None, force: bool = False
) -> np.ndarray | bool:
    """The library route: the closure verdict of 2.2, or the formula of any
    other target, on ``evaluate``'s judge. PreconditionViolated naming every
    failing condition unless ``force`` (a forced 2.2 verdict is then False).
    A ConvergenceError of the formula propagates, as does an AxiomViolation
    of the oracle on an operand; ValueError as for ``evaluate``.
    """
    ops, oracles, conditions = _judge(target, mats, lam)
    if not force:
        require_hypothesis(conditions)
    if target == "2.2":
        return all(c.holds for c in conditions) and is_quasinilpotent(ops[0] + ops[1])
    return _formula(target, ops, oracles)[0]


def evaluate(
    target: str, mats: dict[str, np.ndarray], lam: complex | None = None, force: bool = False
) -> Outcome:
    """Conditions, then closure (2.2) or formula, oracle and gap.

    ``mats`` holds exactly the operands the target reads (``OPERANDS``).
    ``lam`` fixes the scalar of the conditions and the formula; None fits
    it. Without ``force`` the outcome stops after the conditions when one
    fails. ValueError for an unknown target or operands that do not fit it.
    An AxiomViolation of the oracle on an operand propagates; one raised on
    ``m``, and a ConvergenceError of the formula, end up in ``error``.
    """
    ops, oracles, conditions = _judge(target, mats, lam)
    out = Outcome(conditions, [c for c in conditions if not c.holds])
    if out.failing and not force:
        return out
    if target == "2.2":
        # the rows have checked every condition of the closure theorem
        out.closed = not out.failing and is_quasinilpotent(ops[0] + ops[1])
        return out
    try:
        out.formula, out.m = _formula(target, ops, oracles)
        del oracles  # the operands' oracle data has no reader left
        out.oracle = drazin_oracle(out.m)
    except (ConvergenceError, AxiomViolation) as exc:
        out.error = str(exc)
        return out
    out.gap = fro_norm(out.formula - out.oracle.d)
    out.bound = EPS_MATCH * scale_of(*mats.values())
    return out
