"""Independent Drazin-inverse oracle: index, inverse, spectral idempotent.

The oracle is deliberately formula-free with respect to the rest of the
package: a^d = a^k (a^{2k+1})^+ a^k with k the Drazin index. Everything else
in the package is validated against it, so nothing here may depend on the
additive or block-matrix modules.

Numerical strategy: the input is normalized by its largest singular value
before any power is taken. One values-only SVD of a gives that value, and
the same singular values divided by it are those of the first power, so the
sweep starts its own SVDs at the second power. ``_sweep`` is that one route,
zero matrix included, for both ``drazin_index`` and the oracle. Ranks of
powers are decided with the absolute cutoff EPS_RANK (a relative cutoff
would promote the rounding noise that powers of a conjugated nilpotent
consist of to full rank), and the pseudoinverse of a^{2k+1} is truncated to
the stationary rank found during index computation (a relative cutoff would
invert that noise whenever the whole power decays). The sweep hands back a^k
and a^{k+1}: the oracle forms a^{2m+1} = a^m a^{m+1} (m = max(k, 1)) from
them, reuses a^m on both sides of the pseudoinverse, and self-checks with
the same two powers.
Inputs whose singular values fall too close to the cutoff, or whose spectral
gap at the stationary rank is too thin, are rejected with AxiomViolation
rather than guessed at. At each power the guard is two counts: r singular
values above EPS_RANK / AMBIGUITY_BAND, and the power is refused unless
exactly r are at least EPS_RANK * AMBIGUITY_BAND, so that none lies strictly
inside the band. When it passes, r is the rank at the cutoff EPS_RANK too.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AxiomViolation
from .linalg import EPS_CHECK, EPS_MATCH, EPS_RANK, as_matrix, checked_norm, fro_norm

__all__ = [
    "DrazinResult",
    "AxiomReport",
    "drazin_index",
    "drazin_oracle",
    "is_quasinilpotent",
    "nilpotency_residual",
    "check_drazin_axioms",
]

# Singular values within this factor of the rank cutoff make the rank
# decision ambiguous; the gap between kept and dropped singular values of
# a^{2k+1} must exceed GAP_MIN.
AMBIGUITY_BAND = 100.0
GAP_MIN = 1e4


class DrazinResult:
    """The Drazin inverse d = a^d, spectral idempotent pi = I - a a^d, and index.

    ``pi`` is given as the array, or as a function of no arguments that
    forms it: then it is formed on its first read, and kept. The oracle
    gives such a function, so a caller that reads only ``d`` (the reference
    run on the assembled matrix) forms no idempotent. The result is
    read-only.

    ``index`` is None for results assembled from other results (the parts
    P and Q of the block splittings) rather than computed by the oracle; no
    formula reads it. The data (0, I) of a quasinilpotent matrix has one
    form, ``nilpotent``: the oracle gives it on a nilpotent matrix, and the
    judge gives it, with no oracle run, to an operand that is quasinilpotent
    by hypothesis (the a of theorem 2.3, the corner Q of the rules whose
    hypotheses make Q^3 = 0).
    """

    __slots__ = ("d", "index", "_pi")

    def __init__(self, d: np.ndarray, pi, index: int | None):
        for name, value in (("d", d), ("_pi", pi), ("index", index)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"DrazinResult is read-only: cannot set {name!r}")

    @property
    def pi(self) -> np.ndarray:
        if callable(self._pi):
            object.__setattr__(self, "_pi", self._pi())
        return self._pi

    @classmethod
    def nilpotent(cls, n: int, index: int | None = None) -> "DrazinResult":
        """The data (0, I) of a quasinilpotent n x n matrix. The zero is a
        read-only view of one complex zero, with no n x n buffer; I is
        formed on its first read."""
        return cls(np.broadcast_to(0j, (n, n)), lambda: np.eye(n, dtype=complex), index)


@dataclass(frozen=True)
class AxiomReport:
    """Residuals of the three Drazin axioms for a candidate inverse.

    solution  ||cand a cand - cand||
    commute   ||a cand - cand a||
    power     ||a^{k+1} cand - a^k||
    """

    solution: float
    commute: float
    power: float
    ok: bool

    def worst(self) -> float:
        return max(self.solution, self.commute, self.power)


def _require_square(a: np.ndarray) -> np.ndarray:
    """``a``, checked by as_matrix already, unless it is not square."""
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got {a.shape}")
    return a


def _power_ranks(ah: np.ndarray, sv: np.ndarray) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Index k, stationary rank, ah^k and ah^{k+1} from the rank sequence of
    powers of the sigma_max-normalized matrix ``ah``, whose own singular
    values are ``sv``. Absolute cutoff; ambiguity guarded at every power.
    The sweep stops at the first power of rank 0 (a nilpotent ``ah``)."""
    n = ah.shape[0]
    prev = n
    lo_edge, hi_edge = EPS_RANK / AMBIGUITY_BAND, EPS_RANK * AMBIGUITY_BAND
    lo, hi = None, ah  # powers j - 1 and j; the identity is formed only at k = 0
    for j in range(1, n + 2):
        if j > 1:
            lo, hi = hi, hi @ ah
            sv = np.linalg.svd(hi, compute_uv=False)
        # no singular value strictly inside the band exactly when the two
        # counts agree; then r is also the count above EPS_RANK itself
        r = int(np.count_nonzero(sv > lo_edge))
        if r != np.count_nonzero(sv >= hi_edge):
            raise AxiomViolation(
                f"rank of power {j} is ambiguous: singular values too close "
                f"to the cutoff {EPS_RANK:g}"
            )
        if r == prev:
            return j - 1, r, np.eye(n, dtype=complex) if lo is None else lo, hi
        if r == 0:
            # a power of rank 0 has norm at most EPS_RANK / AMBIGUITY_BAND, so
            # the next one has rank 0 too; no SVD is spent confirming it
            return j, 0, hi, hi @ ah
        prev = r
    raise AxiomViolation("rank sequence of powers failed to stabilize")


def _sweep(a: np.ndarray) -> tuple:
    """sigma_max s of the square matrix ``a`` and the power-rank sweep of
    a / s: (s, a / s, k, r, (a/s)^k, (a/s)^{k+1}) as _power_ranks gives
    them. The zero matrix has index 1 and rank 0, and no powers."""
    sv = np.linalg.svd(a, compute_uv=False)
    s = float(sv[0])
    if s == 0.0:
        return s, None, 1, 0, None, None
    ah = a / s
    return (s, ah, *_power_ranks(ah, sv / s))


def drazin_index(a) -> int:
    """Smallest k >= 0 with rank(a^k) = rank(a^{k+1})."""
    return _sweep(_require_square(as_matrix(a)))[2]


def drazin_oracle(a) -> DrazinResult:
    """Drazin inverse via a^d = a^k (a^{2k+1})^+ a^k, self-checked.

    The pseudoinverse is truncated to the stationary rank of the power
    sequence; see the module docstring. Raises AxiomViolation if the result
    fails any Drazin axiom beyond EPS_MATCH, or if the input's rank structure
    is numerically ambiguous.
    """
    a = _require_square(as_matrix(a))
    n = a.shape[0]
    s, ah, k, r, ak, ak1 = _sweep(a)
    if r == 0:
        return DrazinResult.nilpotent(n, index=k)
    # a^m and a^{m+1} for m = max(k, 1)
    am, am1 = (ak, ak1) if k else (ak1, ak1 @ ah)
    u, sv, vh = np.linalg.svd(am @ am1)
    if r < sv.size and sv[r] > 0.0 and sv[r - 1] / sv[r] < GAP_MIN:
        raise AxiomViolation(
            f"spectral gap at stationary rank {r} too thin: "
            f"{sv[r - 1]:.3e} vs {sv[r]:.3e}"
        )
    x_pinv = (vh[:r].conj().T / sv[:r]) @ u[:, :r].conj().T
    dh = am @ x_pinv @ am
    del u, vh, x_pinv  # no reader left; the self-check forms its own products
    # self-check in the normalized domain, where powers cannot overflow
    report = _axiom_report(ah, dh, ak, ak1)
    if not report.ok:
        raise AxiomViolation(
            f"oracle output fails Drazin axioms: residuals "
            f"({report.solution:.3e}, {report.commute:.3e}, {report.power:.3e})"
        )
    d = dh / s
    return DrazinResult(d=d, pi=lambda: np.eye(n, dtype=complex) - a @ d, index=k)


def nilpotency_residual(a) -> float:
    """||(a / ||a||)^n|| at n = rows(a), Frobenius norms; 0 for the zero matrix.

    Normalizing first makes the residual independent of the scale of a.
    """
    a, s = checked_norm(a)
    _require_square(a)
    if s == 0.0:
        return 0.0
    return fro_norm(np.linalg.matrix_power(a / s, a.shape[0]))


def is_quasinilpotent(a) -> bool:
    """Nilpotency test: nilpotency_residual(a) <= EPS_CHECK, so the verdict
    on a equals the verdict on s a for every nonzero scalar s."""
    return nilpotency_residual(a) <= EPS_CHECK


def _axiom_report(a: np.ndarray, cand: np.ndarray, ak: np.ndarray, ak1: np.ndarray) -> AxiomReport:
    """Axiom residuals of cand for a, given a^k and a^{k+1} at its index k."""
    ca = cand @ a
    r1 = fro_norm(ca @ cand - cand)
    r2 = fro_norm(a @ cand - ca)
    r3 = fro_norm(ak1 @ cand - ak)
    na, nc = fro_norm(a), fro_norm(cand)
    s12 = max(1.0, na, nc)
    s3 = max(1.0, na, nc, fro_norm(ak))
    ok = r1 <= EPS_MATCH * s12 and r2 <= EPS_MATCH * s12 and r3 <= EPS_MATCH * s3
    return AxiomReport(solution=r1, commute=r2, power=r3, ok=ok)


def check_drazin_axioms(a, cand, index: int | None = None) -> AxiomReport:
    """Residuals of cand as a Drazin inverse of a.

    ``index`` is the Drazin index of a when the caller already knows it, as
    ``drazin_oracle(a).index``; None computes it with drazin_index.

    Verdict: every residual <= EPS_MATCH * scale, where scale is max(1,
    largest operand norm) of the corresponding identity.
    """
    a = _require_square(as_matrix(a))
    cand = _require_square(as_matrix(cand))
    if a.shape != cand.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {cand.shape}")
    k = drazin_index(a) if index is None else index
    ak = np.linalg.matrix_power(a, k)
    return _axiom_report(a, cand, ak, ak @ a)
