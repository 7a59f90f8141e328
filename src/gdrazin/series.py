"""Truncated series evaluation shared by the formula modules.

Every formula in this package sums series that terminate exactly on valid
inputs (a nilpotent running factor dies at the matrix dimension). The policy,
applied uniformly: cap at N_max = 2*dim + 2 terms, exit early once two
consecutive terms fall below EPS_TAIL * scale, and raise ConvergenceError if
the final term at the cap is still above that threshold (reachable only when
a formula is forced outside its hypothesis).

Every series stops through summed's early exit alone; its running factors
are PowerCache products.
"""

from typing import Iterable, Iterator

import numpy as np

from .errors import ConvergenceError

__all__ = ["PowerCache", "series_cap", "summed"]


def series_cap(dim: int) -> int:
    return 2 * dim + 2


class PowerCache:
    """Memoized nonnegative powers m^i of a fixed square matrix, or the
    products start m^i when ``start`` is given; each is formed once, from
    the one before."""

    def __init__(self, m: np.ndarray, start: np.ndarray | None = None):
        self._m = np.asarray(m, dtype=complex)
        if start is None:
            self._pows = [np.eye(m.shape[0], dtype=complex), self._m]
        else:
            self._pows = [np.asarray(start, dtype=complex)]

    def __call__(self, i: int) -> np.ndarray:
        while len(self._pows) <= i:
            self._pows.append(self._pows[-1] @ self._m)
        return self._pows[i]


def summed(
    terms: Iterable[np.ndarray] | Iterator[np.ndarray],
    nmax: int,
    tiny: float,
    label: str,
) -> np.ndarray:
    """Sum up to nmax terms with the early-exit/tail policy above."""
    total = None
    last = 0.0
    consecutive_tiny = 0
    it = iter(terms)
    for _ in range(nmax):
        try:
            t = next(it)
        except StopIteration:
            return total
        total = t.copy() if total is None else total + t
        last = float(np.linalg.norm(t))
        consecutive_tiny = consecutive_tiny + 1 if last < tiny else 0
        if consecutive_tiny >= 2:
            return total
    if last > tiny:
        raise ConvergenceError(
            f"{label}: term norm {last:.3e} still above {tiny:.3e} after {nmax} terms"
        )
    return total
