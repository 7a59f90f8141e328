"""Truncated series evaluation shared by the formula modules.

Every formula in this package sums series that terminate exactly on valid
inputs (a nilpotent running factor dies at the matrix dimension). The policy,
applied uniformly: cap at N_max = 2*dim + 2 terms, exit early once two
consecutive terms fall below the tail band EPS_TAIL * scale, and raise
ConvergenceError if the final term at the cap is still above that band
(reachable only when a formula is forced outside its hypothesis). Each
caller passes only its scale; summed alone forms the band.

Every series is an endless stream of terms, and summed alone ends it: by the
early exit, or at the cap. Its running factors are PowerCache products. A
product lives only until its last reader has run: PowerCache.drop releases a
power that no later term reads, and summed keeps one running total. A series
whose powers no other series reads drops each one after its term, so it
holds a fixed number of arrays however many terms it runs.
"""

from itertools import islice
from typing import Iterator

import numpy as np

from .errors import ConvergenceError
from .linalg import EPS_TAIL

__all__ = ["PowerCache", "series_cap", "summed"]


def series_cap(dim: int) -> int:
    return 2 * dim + 2


class PowerCache:
    """Memoized positive powers m^i of a fixed square matrix, or the
    products start m^i from i = 0 when ``start`` is given; each is formed
    once, from the one before, and kept until ``drop`` releases it."""

    def __init__(self, m: np.ndarray, start: np.ndarray | None = None):
        self._m = np.asarray(m, dtype=complex)
        self._top = 1 if start is None else 0
        # the highest power formed: the next is formed from it, so it stays
        # here when drop releases it
        self._last = self._m if start is None else np.asarray(start, dtype=complex)
        self._pows = {self._top: self._last}

    def __call__(self, i: int) -> np.ndarray:
        while self._top < i:
            self._top += 1
            self._last = self._pows[self._top] = self._last @ self._m
        return self._pows[i]

    def drop(self, i: int) -> None:
        """Release power i, which no later read may ask for."""
        del self._pows[i]


def summed(terms: Iterator[np.ndarray], nmax: int, scale: float, label: str) -> np.ndarray:
    """Sum the first nmax terms of the endless stream ``terms`` with the
    early-exit/tail policy above, at the band EPS_TAIL * scale, in order,
    into one running total of the first term's dtype; the total is a copy,
    so no term is changed."""
    tiny = EPS_TAIL * scale
    total = None
    last = 0.0
    consecutive_tiny = 0
    for t in islice(terms, nmax):
        if total is None:
            total = t.copy()
        else:
            total += t
        last = float(np.linalg.norm(t))
        del t  # the next term is formed without this one
        consecutive_tiny = consecutive_tiny + 1 if last < tiny else 0
        if consecutive_tiny >= 2:
            return total
    if last > tiny:
        raise ConvergenceError(
            f"{label}: term norm {last:.3e} still above {tiny:.3e} after {nmax} terms"
        )
    return total
