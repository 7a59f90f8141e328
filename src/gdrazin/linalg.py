"""Dense complex-matrix primitives: coercion, norms, and the package's
numerical thresholds.

All matrices are 2-D numpy arrays of complex128. ``as_matrix`` coerces and
validates; everything downstream assumes its output.

Finite-norm rule: a Frobenius norm that is finite proves every entry finite,
since a NaN or an infinity in the matrix makes the sum of squares NaN or
infinite. So ``checked_norm`` and ``fro_norm`` validate an operand by the
norm they compute anyway, with no separate non-finite scan. Only a
non-finite norm (a non-finite entry, or a sum of squares that overflows)
gets the full ``as_matrix`` scan, which raises the same ValueError as before
when an entry is not finite. A finite matrix never gets an infinite norm:
when the scan finds every entry finite, the norm is taken again of the
matrix divided by the power of two just above its largest entry, which is
exact (as in Blue's norm), and scaled back; a norm beyond the float range
even so is a ValueError.
``checked_norm`` is the package's one Frobenius norm: ``fro_norm`` and
``scale_of`` read theirs from it.
"""

import math

import numpy as np

__all__ = [
    "EPS_RANK",
    "EPS_CHECK",
    "EPS_MATCH",
    "EPS_TAIL",
    "as_matrix",
    "checked_norm",
    "fro_norm",
    "scale_of",
]

# The thresholds every verdict is decided by, one per pipeline stage; fixed,
# so that no setting can loosen a bound.
EPS_RANK = 1e-10  # singular-value cutoff for rank decisions (sigma_max-normalized)
EPS_CHECK = 1e-9  # residual bound for hypothesis checks
EPS_MATCH = 1e-8  # bound for formula-vs-oracle and axiom comparisons
EPS_TAIL = 1e-12  # series tail bound, relative to a scale (see series.summed)


def _coerce(a) -> np.ndarray:
    """``a`` as a 2-D complex128 array with positive dimensions (``a``
    itself when it is one); its entries are not looked at."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m.shape}")
    return m


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array and reject non-finite entries; an
    array that already is one is returned as it is."""
    m = _coerce(a)
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def checked_norm(a) -> tuple[np.ndarray, float]:
    """``(as_matrix(a), its Frobenius norm)``, with finiteness read off the
    norm (the finite-norm rule of the module docstring): the same checks and
    the same ValueError as as_matrix, without its scan when the norm is
    finite, and a ValueError for a norm beyond the float range."""
    m = _coerce(a)
    norm = float(np.linalg.norm(m))
    if not math.isfinite(norm):
        as_matrix(m)
        # every entry is finite, so the sum of squares overflowed
        e = math.frexp(max(np.abs(m.real).max(), np.abs(m.imag).max()))[1]
        try:
            norm = math.ldexp(float(np.linalg.norm(m * math.ldexp(1.0, -e))), e)
        except OverflowError:
            raise ValueError("matrix norm exceeds the float range") from None
    return m, norm


def fro_norm(a) -> float:
    """Frobenius norm of ``as_matrix(a)``; see checked_norm."""
    return checked_norm(a)[1]


def scale_of(*mats) -> float:
    """max(1, largest Frobenius norm among the operands)."""
    return max([1.0, *map(fro_norm, mats)])

