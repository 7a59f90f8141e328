"""Drazin inverses of 2x2 block matrices under scalar power-commutation
hypotheses on the blocks.

Each supported rule id names one hypothesis set from the catalog below; the
inverse of M = [[A, B], [C, D]] is computed by splitting M into a diagonal
part P and an off-diagonal (or corner-weighted) part Q whose inverses are
known in closed form, then running the additive engine on the pair.

Rule catalog (lambda is one nonzero complex scalar per rule):

    3.1   B D = lambda (B C)^pi A B D^pi   and   C A = lambda (C B)^pi D C A^pi
    3.2   B D = lambda A B D^pi,   C A = lambda D C A^pi,   B C = 0
    3.3   A B = lambda A^pi B D (C B)^pi   and   D C = lambda D^pi C A (B C)^pi
    3.4   A B = lambda A^pi B D,   D C = 0,   B C = 0
    4.1   B D = lambda A^pi A B,   D C = (1/lambda) D^pi C A A^pi,   B C = 0
    4.2   C A = lambda D^pi D C,   A B = (1/lambda) A^pi B D D^pi,   C B = 0
    4.3   A B = lambda A^pi B D,   D C = lambda D^pi C A,   B C = 0

Rules 4.1 and 4.2 pair their two scalars reciprocally; all other two-scalar
rules share a single value. 4.2 is the block-exchange image of 4.1, and is
computed as 4.1 on the exchanged blocks with the result's quadrants swapped.
"""

from dataclasses import dataclass

import numpy as np

from .additive import (
    ConditionRow,
    FactorCheck,
    check_condition_rows,
    drazin_sum,
    require_hypothesis,
    require_lambda,
)
from .drazin import DrazinResult, drazin_oracle
from .errors import ReconciliationError
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, fro_norm, scale_of
from .series import PowerCache, series_cap, summed

__all__ = [
    "RULE_IDS",
    "Block2x2",
    "assemble",
    "exchange",
    "block_oracles",
    "check_hypothesis",
    "block_drazin",
    "closed_form_drazin",
]

RULE_IDS = ("3.1", "3.2", "3.3", "3.4", "4.1", "4.2", "4.3")
# Rules whose conditions and splitting read the Drazin data of B C.
_BC_RULES = ("3.1", "3.3")


@dataclass(frozen=True)
class Block2x2:
    """Blocks of M = [[a, b], [c, d]] with a square m x m, d square n x n,
    b of shape m x n and c of shape n x m."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", as_matrix(self.a))
        object.__setattr__(self, "b", as_matrix(self.b))
        object.__setattr__(self, "c", as_matrix(self.c))
        object.__setattr__(self, "d", as_matrix(self.d))
        _block_shapes(self.a, self.b, self.c, self.d)

    @property
    def dims(self) -> tuple[int, int]:
        return self.a.shape[0], self.d.shape[0]


def _block_shapes(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> None:
    """Block2x2's shape rule on 2-D arrays: a and d square, b and c conforming."""
    m, m2 = a.shape
    n, n2 = d.shape
    if m != m2 or n != n2:
        raise ValueError(f"diagonal blocks must be square, got {a.shape} and {d.shape}")
    if b.shape != (m, n) or c.shape != (n, m):
        raise ValueError(
            f"off-diagonal blocks must be {m}x{n} and {n}x{m}, "
            f"got {b.shape} and {c.shape}"
        )


def _quad(tl: np.ndarray, tr: np.ndarray, bl: np.ndarray, br: np.ndarray) -> np.ndarray:
    """The complex matrix [[tl, tr], [bl, br]] of conforming blocks: the
    bytes np.block gives, without its recursion over nested lists."""
    m, k = tl.shape
    out = np.empty((m + br.shape[0], k + br.shape[1]), dtype=complex)
    out[:m, :k] = tl
    out[:m, k:] = tr
    out[m:, :k] = bl
    out[m:, k:] = br
    return out


def assemble(blocks: Block2x2) -> np.ndarray:
    """The full matrix [[a, b], [c, d]]."""
    return _quad(blocks.a, blocks.b, blocks.c, blocks.d)


def exchange(blocks: Block2x2) -> Block2x2:
    """Swap the roles of the two diagonal corners: [[d, c], [b, a]].

    The assembled exchange image is similar to the original matrix by the
    permutation that swaps the two index ranges, so Drazin inverses transfer
    by that similarity: swap the quadrants of the image's inverse.
    """
    return Block2x2(a=blocks.d, b=blocks.c, c=blocks.b, d=blocks.a)


def _zero_like(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=complex)


def _bc_drazin(blocks: Block2x2, tol: Tolerance) -> DrazinResult | None:
    """Oracle data of B C, or None when B C is at rounding-noise level.

    Such a product is an exact zero of the hypotheses (and makes Q^3 = 0);
    handing it to the oracle would invert the noise.
    """
    b, c = blocks.b, blocks.c
    bc = b @ c
    if fro_norm(bc) <= tol.eps_check * scale_of(b, c):
        return None
    return drazin_oracle(bc, tol)


def block_oracles(
    blocks: Block2x2,
    rule: str,
    tol: Tolerance = DEFAULT_TOL,
    a_dr: DrazinResult | None = None,
    d_dr: DrazinResult | None = None,
    bc_dr: DrazinResult | None = None,
) -> dict[str, DrazinResult | None]:
    """Oracle data that the conditions and the splitting of ``rule`` read:
    the Drazin data of A, D and (rules 3.1, 3.3) B C. The oracle runs only
    for the data the caller did not supply.

    Keys are the keyword parameters of check_hypothesis and block_drazin
    ("a_dr", "d_dr", "bc_dr"), so one result can be handed to both and each
    matrix goes through the oracle once. "bc_dr" is None for rules that do
    not read B C, and when B C is at rounding-noise level.
    """
    if rule not in RULE_IDS:
        raise ValueError(f"unknown rule {rule!r}; valid ids: {', '.join(RULE_IDS)}")
    if a_dr is None:
        a_dr = drazin_oracle(blocks.a, tol)
    if d_dr is None:
        d_dr = drazin_oracle(blocks.d, tol)
    if rule not in _BC_RULES:
        bc_dr = None
    elif bc_dr is None:
        bc_dr = _bc_drazin(blocks, tol)
    return {"a_dr": a_dr, "d_dr": d_dr, "bc_dr": bc_dr}


def _conditions(
    blocks: Block2x2,
    rule: str,
    a_dr: DrazinResult,
    d_dr: DrazinResult,
    bc_dr: DrazinResult | None,
) -> list[ConditionRow]:
    """Condition rows (label, lhs, rhs_base, lambda_power) for one rule, as
    check_condition_rows reads them: lambda_power is +1 or -1 for scalar
    conditions, None for zero conditions (whose rhs_base is the zero matrix).
    """
    a, b, c, d = blocks.a, blocks.b, blocks.c, blocks.d
    m, n = blocks.dims
    api, dpi = a_dr.pi, d_dr.pi
    rows: list[ConditionRow] = []

    if rule in _BC_RULES:
        if bc_dr is None:  # B C = 0: both idempotents are the identity
            bc_pi = np.eye(m, dtype=complex)
            cb_pi = np.eye(n, dtype=complex)
        else:
            bc_pi = bc_dr.pi
            cb_d = c @ bc_dr.d @ bc_dr.d @ b
            cb_pi = np.eye(n, dtype=complex) - (c @ b) @ cb_d

    if rule == "3.1":
        rows.append(("B D = lambda (B C)^pi A B D^pi", b @ d, bc_pi @ a @ b @ dpi, 1))
        rows.append(("C A = lambda (C B)^pi D C A^pi", c @ a, cb_pi @ d @ c @ api, 1))
    elif rule == "3.2":
        rows.append(("B D = lambda A B D^pi", b @ d, a @ b @ dpi, 1))
        rows.append(("C A = lambda D C A^pi", c @ a, d @ c @ api, 1))
        rows.append(("B C = 0", b @ c, _zero_like(m, m), None))
    elif rule == "3.3":
        rows.append(("A B = lambda A^pi B D (C B)^pi", a @ b, api @ b @ d @ cb_pi, 1))
        rows.append(("D C = lambda D^pi C A (B C)^pi", d @ c, dpi @ c @ a @ bc_pi, 1))
    elif rule == "3.4":
        rows.append(("A B = lambda A^pi B D", a @ b, api @ b @ d, 1))
        rows.append(("D C = 0", d @ c, _zero_like(n, m), None))
        rows.append(("B C = 0", b @ c, _zero_like(m, m), None))
    elif rule == "4.1":
        rows.append(("B D = lambda A^pi A B", b @ d, api @ a @ b, 1))
        rows.append(("D C = (1/lambda) D^pi C A A^pi", d @ c, dpi @ c @ a @ api, -1))
        rows.append(("B C = 0", b @ c, _zero_like(m, m), None))
    elif rule == "4.2":
        rows.append(("C A = lambda D^pi D C", c @ a, dpi @ d @ c, 1))
        rows.append(("A B = (1/lambda) A^pi B D D^pi", a @ b, api @ b @ d @ dpi, -1))
        rows.append(("C B = 0", c @ b, _zero_like(n, n), None))
    elif rule == "4.3":
        rows.append(("A B = lambda A^pi B D", a @ b, api @ b @ d, 1))
        rows.append(("D C = lambda D^pi C A", d @ c, dpi @ c @ a, 1))
        rows.append(("B C = 0", b @ c, _zero_like(m, m), None))
    return rows


def check_hypothesis(
    blocks: Block2x2,
    rule: str,
    tol: Tolerance = DEFAULT_TOL,
    lam: complex | None = None,
    a_dr: DrazinResult | None = None,
    d_dr: DrazinResult | None = None,
    bc_dr: DrazinResult | None = None,
) -> list[FactorCheck]:
    """Evaluate every hypothesis condition of a rule on the given blocks.

    With ``lam`` each scalar condition is tested at that value (reciprocal
    conditions at 1/lam). Without it each scalar is fitted independently and,
    when at least two conditions produced usable scalars, a final
    "lambda consistency" row reports whether they agree. Every scalar row
    reports lambda itself, the (1/lambda) rows of 4.1 and 4.2 included.

    Parameters
    ----------
    blocks : Block2x2
    rule : str
        One of RULE_IDS.
    tol : Tolerance
    lam : complex, optional
        Declared scalar; None fits per condition.
    a_dr, d_dr, bc_dr : DrazinResult, optional
        Oracle data of A, D and B C to use instead of running the oracle,
        as block_oracles returns it.

    Returns
    -------
    list of FactorCheck
        One entry per condition, in catalog order, plus the consistency row
        in fitted mode.
    """
    require_lambda(lam)
    rows = _conditions(blocks, rule, **block_oracles(blocks, rule, tol, a_dr, d_dr, bc_dr))
    return check_condition_rows(rows, tol, lam)


def block_drazin(
    blocks: Block2x2,
    rule: str,
    tol: Tolerance = DEFAULT_TOL,
    lam: complex | None = None,
    force: bool = False,
    a_dr: DrazinResult | None = None,
    d_dr: DrazinResult | None = None,
    bc_dr: DrazinResult | None = None,
) -> np.ndarray:
    """Drazin inverse of the assembled block matrix under the named rule.

    Parameters
    ----------
    blocks : Block2x2
    rule : str
        One of RULE_IDS; selects the hypothesis set and splitting.
    tol : Tolerance
    lam : complex, optional
        Declared scalar for the hypothesis test; None fits it.
    force : bool
        Skip the hypothesis check and evaluate the rule's formula. The output
        then carries no guarantee; validate it with check_drazin_axioms.
    a_dr, d_dr, bc_dr : DrazinResult, optional
        Oracle data of A, D and B C to use instead of running the oracle,
        as block_oracles returns it.

    Returns
    -------
    ndarray
        Square matrix of size m + n.

    Raises
    ------
    PreconditionViolated
        If (without force) any hypothesis condition fails.
    ConvergenceError
        If a series fails to terminate within the cap (reachable only under
        force).
    """
    require_lambda(lam)
    oracles = block_oracles(blocks, rule, tol, a_dr, d_dr, bc_dr)
    if not force:
        require_hypothesis(check_hypothesis(blocks, rule, tol, lam, **oracles))
    return _dispatch(blocks, rule, tol, **oracles)


def _diag_dr(a_dr: DrazinResult, d_dr: DrazinResult, m: int, n: int) -> DrazinResult:
    d = _quad(a_dr.d, _zero_like(m, n), _zero_like(n, m), d_dr.d)
    pi = _quad(a_dr.pi, _zero_like(m, n), _zero_like(n, m), d_dr.pi)
    return DrazinResult(d=d, pi=pi, index=None)


def _antidiag_dr(blocks: Block2x2, bc_dr: DrazinResult | None) -> tuple[np.ndarray, DrazinResult]:
    """The corner part Q = [[0, B], [C, 0]] and its Drazin data.

    Without B C data (B C = 0 by hypothesis or at rounding-noise level) the
    cube of Q vanishes, so Q^d = 0. Otherwise Q^d follows from the
    product-exchange identity applied to the corner factors:
    (C B)^d = C ((B C)^d)^2 B and Q^d = [[0, B (C B)^d], [C (B C)^d, 0]].
    """
    m, n = blocks.dims
    b, c = blocks.b, blocks.c
    q = _quad(_zero_like(m, m), b, c, _zero_like(n, n))
    dim = m + n
    if bc_dr is None:
        return q, DrazinResult.nilpotent(dim)
    cb_d = c @ bc_dr.d @ bc_dr.d @ b
    qd = _quad(_zero_like(m, m), b @ cb_d, c @ bc_dr.d, _zero_like(n, n))
    qpi = np.eye(dim, dtype=complex) - q @ qd
    return q, DrazinResult(d=qd, pi=qpi, index=None)


def _dispatch(
    blocks: Block2x2,
    rule: str,
    tol: Tolerance,
    a_dr: DrazinResult,
    d_dr: DrazinResult,
    bc_dr: DrazinResult | None,
) -> np.ndarray:
    m, n = blocks.dims
    a, b, c, d = blocks.a, blocks.b, blocks.c, blocks.d
    if rule == "4.2":
        # 4.1's splitting of the exchanged blocks [[d, c], [b, a]], on the
        # same arrays; the quadrant swap below undoes the exchange similarity
        a, b, c, d, a_dr, d_dr, m, n = d, c, b, a, d_dr, a_dr, n, m

    if rule in ("4.1", "4.2"):
        ad, api = a_dr.d, a_dr.pi
        p = _quad(a @ api, _zero_like(m, n), _zero_like(n, m), d)
        q = _quad(a @ a @ ad, b, c, _zero_like(n, n))
        p_dr = _diag_dr(DrazinResult.nilpotent(m), d_dr, m, n)  # A A^pi is nilpotent
        ad2 = ad @ ad
        qd = _quad(ad, ad2 @ b, c @ ad2, c @ ad2 @ ad @ b)
        qpi = np.eye(m + n, dtype=complex) - q @ qd
        q_dr = DrazinResult(d=qd, pi=qpi, index=None)
        x = drazin_sum(p, q, tol=tol, force=True, a_dr=p_dr, b_dr=q_dr)
        return x if rule == "4.1" else _quad(x[m:, m:], x[m:, :m], x[:m, m:], x[:m, :m])

    p = _quad(a, _zero_like(m, n), _zero_like(n, m), d)
    p_dr = _diag_dr(a_dr, d_dr, m, n)
    q, q_dr = _antidiag_dr(blocks, bc_dr)
    if rule in ("3.1", "3.2"):
        return drazin_sum(q, p, tol=tol, force=True, a_dr=q_dr, b_dr=p_dr)
    return drazin_sum(p, q, tol=tol, force=True, a_dr=p_dr, b_dr=q_dr)


def closed_form_drazin(
    blocks: Block2x2,
    tol: Tolerance = DEFAULT_TOL,
    lam: complex | None = None,
    force: bool = False,
) -> np.ndarray:
    """Direct closed form for rule 4.1, cross-checked against the engine.

    Under B D = lambda A^pi A B, D C = (1/lambda) D^pi C A A^pi, B C = 0 the
    inverse has explicit corners:

        top-left      A^d
        top-right     (A^d)^2 B + sum_{n >= 0} A^n B (D^d)^(n+2)
        bottom-left   C (A^d)^2
        bottom-right  D^d + C (A^d)^3 B
                      + sum_{n >= 1} sum_{k=1..n} D^(k-1) C A^(n-k) B (D^d)^(n+2)

    The result is compared against the splitting route of ``block_drazin``;
    disagreement beyond eps_match * scale raises ReconciliationError.

    Raises
    ------
    PreconditionViolated
        If (without force) a condition of rule 4.1 fails.
    ReconciliationError
        If the two computation routes disagree.
    """
    require_lambda(lam)
    oracles = block_oracles(blocks, "4.1", tol)
    if not force:
        require_hypothesis(check_hypothesis(blocks, "4.1", tol, lam, **oracles))
    a_dr, d_dr = oracles["a_dr"], oracles["d_dr"]

    a, b, c, d = blocks.a, blocks.b, blocks.c, blocks.d
    m, n = blocks.dims
    dim = m + n
    scale = scale_of(a, b, c, d)
    tiny = tol.eps_tail * scale
    nmax = series_cap(dim)
    a_pow = PowerCache(a)
    d_pow = PowerCache(d)
    dd_pow = PowerCache(d_dr.d)
    ad = a_dr.d
    ad2 = ad @ ad

    def tr_terms():
        i = 0
        while True:
            yield a_pow(i) @ b @ dd_pow(i + 2)
            i += 1

    def br_terms():
        i = 1
        while True:
            acc = _zero_like(n, m)
            for k in range(1, i + 1):
                acc = acc + d_pow(k - 1) @ c @ a_pow(i - k)
            yield acc @ b @ dd_pow(i + 2)
            i += 1

    tr = ad2 @ b + summed(tr_terms(), nmax, tiny, "closed form corner series")
    br = d_dr.d + c @ ad2 @ ad @ b + summed(br_terms(), nmax, tiny, "closed form tail series")
    closed = _quad(ad, tr, c @ ad2, br)

    general = _dispatch(blocks, "4.1", tol, a_dr, d_dr, None)
    gap = fro_norm(closed - general)
    if gap > tol.eps_match * scale:
        raise ReconciliationError(
            f"closed form and splitting route disagree: {gap:.3e} "
            f"exceeds {tol.eps_match * scale:.3e}"
        )
    return closed
