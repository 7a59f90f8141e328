"""Pierce decomposition, triangular-split Drazin inversion, and the
factorization-exchange identity for products.

Given an idempotent p, any square x splits into the four corners
p x p, p x q, q x p, q x q with q = 1 - p. When one off-corner vanishes the
Drazin inverse of x is assembled from the corner inverses plus a coupling
series; triangular_drazin finds which one vanishes, p x q first. No other
module of the package imports this one; it serves the acceptance gate's
supporting-operations criterion (criterion 5) and ``test_pierce``.
"""

from dataclasses import dataclass
from itertools import count

import numpy as np

from .drazin import drazin_oracle
from .errors import NotIdempotent, NotTriangular
from .linalg import EPS_CHECK, as_matrix, fro_norm, scale_of
from .series import PowerCache, series_cap, summed

__all__ = ["PierceSplit", "pierce_split", "triangular_drazin", "cline_drazin"]


@dataclass(frozen=True)
class PierceSplit:
    """Corners of x relative to an idempotent p, kept at full size.

    Attributes
    ----------
    p : ndarray
        The idempotent used for the split.
    pp, pq, qp, qq : ndarray
        p x p, p x q, q x p and q x q with q = 1 - p. All four are the same
        shape as x; their sum reconstructs x, and each is absorbed by the
        matching side projections (p @ pp == pp == pp @ p, and so on).
    """

    p: np.ndarray
    pp: np.ndarray
    pq: np.ndarray
    qp: np.ndarray
    qq: np.ndarray


def pierce_split(x: np.ndarray, p: np.ndarray) -> PierceSplit:
    """Split x into Pierce corners relative to the idempotent p.

    Raises
    ------
    NotIdempotent
        If ``p @ p`` differs from ``p`` beyond EPS_CHECK * scale.
    """
    x = as_matrix(x)
    p = as_matrix(p)
    if x.shape[0] != x.shape[1] or x.shape != p.shape:
        raise ValueError(f"need square x and p of equal shape, got {x.shape} and {p.shape}")
    scale = scale_of(p)
    if fro_norm(p @ p - p) > EPS_CHECK * scale:
        raise NotIdempotent(f"p @ p - p has norm {fro_norm(p @ p - p):.3e}")
    q = np.eye(p.shape[0], dtype=complex) - p
    return PierceSplit(p=p, pp=p @ x @ p, pq=p @ x @ q, qp=q @ x @ p, qq=q @ x @ q)


def triangular_drazin(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Drazin inverse of a matrix that is triangular relative to an idempotent.

    The function reads the orientation off x. If the corner p x (1-p)
    vanishes (lower, tried first), the roles are a = p x p on the diagonal,
    b = (1-p) x (1-p), with coupling c = (1-p) x p. Otherwise, if the corner
    (1-p) x p vanishes (upper), the roles swap: b = p x p, a = (1-p) x (1-p),
    c = p x (1-p). Either way the result is

        x^d = a^d + b^d + z,
        z = sum_i (b^d)^(i+2) c (a a^pi)^i a^pi
          + sum_i (b b^pi)^i b^pi c (a^d)^(i+2)
          - b^d c a^d.

    Both series terminate: a a^pi and b b^pi are nilpotent, so terms past the
    matrix dimension vanish up to rounding, and the series stop by the shared
    early exit. a^pi commutes with a, so the running factors are formed as
    a^pi (a a^pi)^i and b^pi (b b^pi)^i.

    Parameters
    ----------
    x, p : ndarray
        Square matrix and idempotent of the same shape.

    Returns
    -------
    ndarray
        The Drazin inverse of x.

    Raises
    ------
    NotTriangular
        If both off-corners exceed EPS_CHECK * scale.
    NotIdempotent
        If p is not an idempotent.
    ConvergenceError
        If a series fails to terminate within 2 * dim + 2 terms (not
        reachable when the triangularity precondition holds).
    """
    split = pierce_split(x, p)
    scale = scale_of(split.pp, split.qq, x)
    limit = EPS_CHECK * scale
    if fro_norm(split.pq) <= limit:
        a, b, c = split.pp, split.qq, split.qp
    elif fro_norm(split.qp) <= limit:
        a, b, c = split.qq, split.pp, split.pq
    else:
        pq, qp = fro_norm(split.pq), fro_norm(split.qp)
        raise NotTriangular(f"off-corner norms {pq:.3e} and {qp:.3e} exceed {limit:.3e}")

    a_dr = drazin_oracle(a)
    b_dr = drazin_oracle(b)
    nmax = series_cap(x.shape[0])
    ad_pow = PowerCache(a_dr.d)
    bd_pow = PowerCache(b_dr.d)
    a_run = PowerCache(a @ a_dr.pi, start=a_dr.pi)
    b_run = PowerCache(b @ b_dr.pi, start=b_dr.pi)

    def left_terms():
        for i in count():
            yield bd_pow(i + 2) @ c @ a_run(i)

    def right_terms():
        for i in count():
            yield b_run(i) @ c @ ad_pow(i + 2)

    s1 = summed(left_terms(), nmax, scale, "triangular coupling series (left)")
    s2 = summed(right_terms(), nmax, scale, "triangular coupling series (right)")
    z = s1 + s2 - bd_pow(1) @ c @ ad_pow(1)
    return a_dr.d + b_dr.d + z


def cline_drazin(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Drazin inverse of a product via the exchange identity.

    (a b)^d = a ((b a)^d)^2 b, valid for any conformable pair, including
    rectangular factors where a b and b a have different sizes.

    Parameters
    ----------
    a : ndarray, shape (m, n)
    b : ndarray, shape (n, m)

    Returns
    -------
    ndarray, shape (m, m)
        The Drazin inverse of a @ b.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0] or a.shape[0] != b.shape[1]:
        raise ValueError(f"need shapes (m, n) and (n, m), got {a.shape} and {b.shape}")
    ba_d = drazin_oracle(b @ a).d
    return a @ ba_d @ ba_d @ b
