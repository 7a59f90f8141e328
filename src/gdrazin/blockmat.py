"""Drazin inverses of 2x2 block matrices under scalar power-commutation
hypotheses on the blocks.

Each rule id of ``RULES`` names one hypothesis set, written as the labels
the certificates print; each label is also its definition, parsed once by
``parse_condition``. Every rule shares one nonzero complex scalar lambda
between its scalar conditions: a "(1/lambda)" condition (rules 4.1 and 4.2)
pairs it reciprocally. The inverse of M = [[A, B], [C, D]] is computed by
splitting M into a diagonal part P and an off-diagonal (or corner-weighted)
part Q whose inverses are known in closed form, then running the additive
engine on the pair. 4.2 is the block-exchange image of 4.1, and is computed
as 4.1 on the exchanged blocks with the result's quadrants swapped.
``block_formula`` is that splitting on given Drazin data; the public routes
take none, and ``evaluation`` forms it and judges their rows.
"""

from dataclasses import dataclass

import numpy as np

from .additive import FactorCheck, parse_rules, require_hypothesis, sum_formula
from .drazin import DrazinResult, drazin_oracle
from .errors import ReconciliationError
from .linalg import EPS_CHECK, EPS_MATCH, as_matrix, fro_norm, scale_of
from .series import PowerCache, series_cap, summed

__all__ = [
    "RULES",
    "RULE_IDS",
    "Block2x2",
    "assemble",
    "exchange",
    "block_oracles",
    "check_hypothesis",
    "block_drazin",
    "block_formula",
    "closed_form_drazin",
]

# The conditions of each rule, in catalog order; see parse_condition.
RULES = {
    "3.1": ("B D = lambda (B C)^pi A B D^pi", "C A = lambda (C B)^pi D C A^pi"),
    "3.2": ("B D = lambda A B D^pi", "C A = lambda D C A^pi", "B C = 0"),
    "3.3": ("A B = lambda A^pi B D (C B)^pi", "D C = lambda D^pi C A (B C)^pi"),
    "3.4": ("A B = lambda A^pi B D", "D C = 0", "B C = 0"),
    "4.1": ("B D = lambda A^pi A B", "D C = (1/lambda) D^pi C A A^pi", "B C = 0"),
    "4.2": ("C A = lambda D^pi D C", "A B = (1/lambda) A^pi B D D^pi", "C B = 0"),
    "4.3": ("A B = lambda A^pi B D", "D C = lambda D^pi C A", "B C = 0"),
}
RULE_IDS = tuple(RULES)
# The factors a rule label may name, the blocks first.
_BLOCK_FACTORS = ("A", "B", "C", "D", "A^pi", "D^pi", "(B C)^pi", "(C B)^pi")
_CONDITIONS = parse_rules(RULES, _BLOCK_FACTORS)
# Rules whose conditions name (B C)^pi (and then (C B)^pi too): they and
# their splitting read the Drazin data of Q = [[0, B], [C, 0]]. Every other
# rule has B C = 0 or C B = 0 among its conditions, which makes Q^3 = 0.
_BC_RULES = frozenset(rule for rule, labels in RULES.items() if any("(B C)^pi" in c for c in labels))


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


def _diag(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The block diagonal diag(x, y) of square x and y."""
    return _quad(x, _zero_like(len(x), len(y)), _zero_like(len(y), len(x)), y)


def _anti(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The corner [[0, b], [c, 0]] of an m x n block b and an n x m block c."""
    m, n = b.shape
    return _quad(_zero_like(m, m), b, c, _zero_like(n, n))


def _q_drazin(blocks: Block2x2) -> DrazinResult:
    """Drazin data of the corner Q = [[0, B], [C, 0]], from one oracle run on
    B C by the product-exchange identity (C B)^d = C ((B C)^d)^2 B:
    Q^d = [[0, B (C B)^d], [C (B C)^d, 0]], and Q^pi = I - Q Q^d is block
    diagonal, with blocks (B C)^pi = I - B C (B C)^d and
    (C B)^pi = I - C B (C B)^d, each formed at its own size.

    A product B C at rounding-noise level is an exact zero of the
    hypotheses (and makes Q^3 = 0, so Q^d = 0): then the result is
    DrazinResult.nilpotent, the data (0, I), rather than the oracle on the
    noise, which would invert it.
    """
    m, n = blocks.dims
    b, c = blocks.b, blocks.c
    bc = b @ c
    if fro_norm(bc) <= EPS_CHECK * scale_of(b, c):
        return DrazinResult.nilpotent(m + n)
    bc_d = drazin_oracle(bc).d
    del bc
    c_bcd = c @ bc_d  # C (B C)^d
    b_cbd = b @ (c_bcd @ bc_d @ b)  # B (C B)^d
    qd = _anti(b_cbd, c_bcd)
    qpi = _diag(np.eye(m, dtype=complex) - b @ c_bcd, np.eye(n, dtype=complex) - c @ b_cbd)
    return DrazinResult(d=qd, pi=qpi, index=None)


def _require_rule(rule: str) -> None:
    """ValueError unless ``rule`` is one of RULE_IDS."""
    if rule not in RULE_IDS:
        raise ValueError(f"unknown rule {rule!r}; valid ids: {', '.join(RULE_IDS)}")


def block_oracles(blocks: Block2x2, rule: str) -> dict[str, DrazinResult]:
    """Oracle data that the conditions and the splitting of ``rule`` read:
    the Drazin data of A, D and of the corner Q = [[0, B], [C, 0]], keyed
    "a_dr", "d_dr" and "q_dr". evaluation's judge forms it once per request
    and hands it to the rows and to the engine, so each matrix goes through
    the oracle once; an oracle's idempotent is formed on its first read, so
    one that no row and no series reads (D^pi of rule 3.4) is never formed.
    "q_dr" is formed (``_q_drazin``) only for the rules whose conditions
    name (B C)^pi or (C B)^pi (3.1, 3.3). For the others, whose hypotheses
    make Q^3 = 0, it is DrazinResult.nilpotent, the data (0, I): forced by a
    hypothesis, it takes no oracle run and forms nothing, and rules 4.1 and
    4.2 do not read it.
    """
    _require_rule(rule)
    return {
        "a_dr": drazin_oracle(blocks.a),
        "d_dr": drazin_oracle(blocks.d),
        "q_dr": _q_drazin(blocks) if rule in _BC_RULES else DrazinResult.nilpotent(sum(blocks.dims)),
    }


def _block_factors(
    blocks: Block2x2, named: frozenset[str], a_dr: DrazinResult, d_dr: DrazinResult, q_dr: DrazinResult
) -> dict[str, np.ndarray]:
    """The factor map the block labels read, on block_oracles' data: the
    blocks, and the idempotents among ``named``, the factors the rule's
    labels name. (B C)^pi and (C B)^pi are the diagonal blocks of Q^pi."""
    m = blocks.dims[0]
    factors = dict(zip(_BLOCK_FACTORS, (blocks.a, blocks.b, blocks.c, blocks.d)))
    if "A^pi" in named:
        factors["A^pi"] = a_dr.pi
    if "D^pi" in named:
        factors["D^pi"] = d_dr.pi
    if "(B C)^pi" in named:
        factors["(B C)^pi"], factors["(C B)^pi"] = q_dr.pi[:m, :m], q_dr.pi[m:, m:]
    return factors


def check_hypothesis(blocks: Block2x2, rule: str, lam: complex | None = None) -> list[FactorCheck]:
    """Every hypothesis condition of a rule on the given blocks, as
    ``evaluation.certify`` checks it.

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
    lam : complex, optional
        Declared scalar; None fits per condition.

    Returns
    -------
    list of FactorCheck
        One entry per condition, in catalog order, plus the consistency row
        in fitted mode.
    """
    from .evaluation import certify  # evaluation imports this module

    _require_rule(rule)
    return list(certify(rule, vars(blocks), lam))


def block_drazin(
    blocks: Block2x2, rule: str, lam: complex | None = None, force: bool = False
) -> np.ndarray:
    """Drazin inverse of the assembled block matrix under the named rule:
    ``evaluation.solve`` on the rule, which runs block_formula.

    Parameters
    ----------
    blocks : Block2x2
    rule : str
        One of RULE_IDS; selects the hypothesis set and splitting.
    lam : complex, optional
        Declared scalar for the hypothesis test; None fits it.
    force : bool
        Skip the hypothesis check and evaluate the rule's formula. The output
        then carries no guarantee; validate it with check_drazin_axioms.

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
    from .evaluation import solve  # evaluation imports this module

    _require_rule(rule)
    return solve(rule, vars(blocks), lam, force)


def _diag_dr(x_dr: DrazinResult, y_dr: DrazinResult) -> DrazinResult:
    """The data of diag(x, y) from that of square x and y; the idempotent
    diag(x^pi, y^pi) is formed on its first read, which a single-series
    splitting never makes."""
    return DrazinResult(d=_diag(x_dr.d, y_dr.d), pi=lambda: _diag(x_dr.pi, y_dr.pi), index=None)


def _corner_inverse(ad: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """[[A^d, (A^d)^2 B], [C (A^d)^2, C (A^d)^3 B]] from A^d: the Drazin
    inverse of rule 4.1's corner Q = [[A^2 A^d, B], [C, 0]], which
    ``block_formula`` reads as Q^d and ``closed_form_drazin`` as its head."""
    ad2 = ad @ ad
    cad2 = c @ ad2
    return _quad(ad, ad2 @ b, cad2, cad2 @ ad @ b)


def block_formula(
    blocks: Block2x2, rule: str, a_dr: DrazinResult, d_dr: DrazinResult, q_dr: DrazinResult
) -> np.ndarray:
    """The splitting of ``rule`` (one of RULE_IDS) on given Drazin data of A,
    D and the corner Q = [[0, B], [C, 0]], as block_oracles keys it; it
    checks no hypothesis. Under the rule's hypothesis the result is the
    Drazin inverse of the assembled matrix. The index is not read. Where a
    hypothesis forces Q^3 = 0, q_dr is DrazinResult.nilpotent, (0, I), on
    which sum_formula forms no power of Q^d; rules 4.1 and 4.2 do not read
    q_dr, and take their corner's Q^d from ``_corner_inverse``.

    The parts P and Q and their data go to sum_formula as temporaries, with
    no name here, so that the engine can release the splitting operand and
    the idempotents after their last reader. Only the data that the caller
    handed in (q_dr of rules 3.1 and 3.3) outlive it."""
    m, n = blocks.dims
    a, b, c, d = blocks.a, blocks.b, blocks.c, blocks.d
    if rule == "4.2":
        # 4.1's splitting of the exchanged blocks [[d, c], [b, a]], on the
        # same arrays; the quadrant swap below undoes the exchange similarity
        a, b, c, d, a_dr, d_dr, m, n = d, c, b, a, d_dr, a_dr, n, m

    if rule in ("4.1", "4.2"):
        ad = a_dr.d
        q = _quad(a @ a @ ad, b, c, _zero_like(n, n))
        qd = _corner_inverse(ad, b, c)
        x = sum_formula(
            _diag(a @ a_dr.pi, d),
            q,
            _diag_dr(DrazinResult.nilpotent(m), d_dr),  # A A^pi is nilpotent
            DrazinResult(d=qd, pi=lambda: np.eye(m + n, dtype=complex) - q @ qd, index=None),
        )
        return x if rule == "4.1" else _quad(x[m:, m:], x[m:, :m], x[:m, m:], x[:m, :m])

    if rule in ("3.1", "3.2"):
        return sum_formula(_anti(b, c), _diag(a, d), q_dr, _diag_dr(a_dr, d_dr))
    return sum_formula(_diag(a, d), _anti(b, c), _diag_dr(a_dr, d_dr), q_dr)


def closed_form_drazin(blocks: Block2x2, lam: complex | None = None, force: bool = False) -> np.ndarray:
    """Direct closed form for rule 4.1, cross-checked against the engine.

    Under B D = lambda A^pi A B, D C = (1/lambda) D^pi C A A^pi, B C = 0 the
    inverse has explicit corners:

        top-left      A^d
        top-right     (A^d)^2 B + sum_{n >= 0} A^n B (D^d)^(n+2)
        bottom-left   C (A^d)^2
        bottom-right  D^d + C (A^d)^3 B
                      + sum_{n >= 1} sum_{k=1..n} D^(k-1) C A^(n-k) B (D^d)^(n+2)

    The head, every corner without its series, is the splitting's corner
    inverse (``_corner_inverse``) plus D^d. The series step by their
    recurrences: A^(n+1) B = A (A^n B), and the inner sum
    s_n = sum_{k=1..n} D^(k-1) C A^(n-k) by s_(n+1) = D s_n + C A^n.

    The result is compared against the splitting route, ``block_formula``;
    disagreement beyond EPS_MATCH * scale raises ReconciliationError.

    Raises
    ------
    PreconditionViolated
        If (without force) a condition of rule 4.1 fails.
    ReconciliationError
        If the two computation routes disagree.
    """
    from .evaluation import _judge  # evaluation imports this module

    blocks, oracles, conditions = _judge("4.1", vars(blocks), lam)
    if not force:
        require_hypothesis(conditions)
    a_dr, d_dr = oracles["a_dr"], oracles["d_dr"]

    a, b, c, d = blocks.a, blocks.b, blocks.c, blocks.d
    m = blocks.dims[0]
    scale = scale_of(a, b, c, d)
    nmax = series_cap(m + blocks.dims[1])
    dd_pow = PowerCache(d_dr.d)

    def tr_terms():
        i, ab = 0, b  # ab = A^i B
        while True:
            yield ab @ dd_pow(i + 2)
            i, ab = i + 1, a @ ab

    def br_terms():
        i, s, ca = 1, c, c @ a  # s = s_i, ca = C A^i
        while True:
            yield s @ b @ dd_pow(i + 2)
            i, s, ca = i + 1, d @ s + ca, ca @ a

    closed = _corner_inverse(a_dr.d, b, c)
    closed[:m, m:] += summed(tr_terms(), nmax, scale, "closed form corner series")
    closed[m:, m:] += d_dr.d
    closed[m:, m:] += summed(br_terms(), nmax, scale, "closed form tail series")

    general = block_formula(blocks, "4.1", **oracles)
    gap = fro_norm(closed - general)
    if gap > EPS_MATCH * scale:
        raise ReconciliationError(
            f"closed form and splitting route disagree: {gap:.3e} "
            f"exceeds {EPS_MATCH * scale:.3e}"
        )
    return closed
