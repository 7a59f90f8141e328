"""Seeded matrix builders shared across the test modules.

Constructions keep eigenvalue moduli and conditioning inside the ranges the
oracle's ambiguity guard tolerates, so sweeps are deterministic: no retry
loops, no tolerance fudging.
"""

import numpy as np

import gdrazin.drazin


def unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def jordan_block(lam: complex, size: int) -> np.ndarray:
    return lam * np.eye(size, dtype=complex) + np.diag(np.ones(size - 1), k=1)


def mixture(
    n: int,
    rng: np.random.Generator,
    moduli: tuple[float, float] = (0.7, 1.4),
    chain_max: int = 4,
) -> np.ndarray:
    """Unitarily conjugated block-diagonal mix of nilpotent chains,
    semisimple invertible blocks, and defective Jordan blocks."""
    blocks = []
    left = n
    while left > 0:
        size = int(rng.integers(1, min(chain_max, left) + 1))
        kind = int(rng.integers(0, 3))
        if kind == 0 and size > 1:
            blocks.append(jordan_block(0.0, size))
        elif kind == 1 or size == 1:
            mods = rng.uniform(*moduli, size)
            phases = np.exp(2j * np.pi * rng.uniform(size=size))
            blocks.append(np.diag(mods * phases))
        else:
            lam = rng.uniform(*moduli) * np.exp(2j * np.pi * rng.uniform())
            blocks.append(jordan_block(lam, size))
        left -= size
    j = np.zeros((n, n), dtype=complex)
    at = 0
    for b in blocks:
        s = b.shape[0]
        j[at : at + s, at : at + s] = b
        at += s
    u = unitary(n, rng)
    return u @ j @ u.conj().T


def nilpotent(n: int, rng: np.random.Generator) -> np.ndarray:
    w = rng.uniform(0.8, 1.25, n - 1) * np.exp(2j * np.pi * rng.uniform(size=n - 1))
    u = unitary(n, rng)
    return u @ np.diag(w, k=1) @ u.conj().T


def invertible(n: int, rng: np.random.Generator) -> np.ndarray:
    mods = rng.uniform(0.7, 1.4, n)
    phases = np.exp(2j * np.pi * rng.uniform(size=n))
    u = unitary(n, rng)
    return u @ np.diag(mods * phases) @ u.conj().T


def mild_similarity(n: int, rng: np.random.Generator, skew: float = 0.25) -> np.ndarray:
    # cond(s) stays single-digit for skew <= 0.3, keeping conjugation noise
    # well under the oracle's rank-ambiguity band
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.eye(n, dtype=complex) + skew * z / np.sqrt(n)


def oblique_idempotent(
    n: int, r: int, rng: np.random.Generator, skew: float = 0.3
) -> tuple[np.ndarray, np.ndarray]:
    """Non-orthogonal projector of rank r together with the frame that
    diagonalizes it."""
    s = mild_similarity(n, rng, skew)
    e = np.zeros((n, n), dtype=complex)
    e[:r, :r] = np.eye(r)
    return s @ e @ np.linalg.inv(s), s


def triangular_instance(
    n: int, rng: np.random.Generator, orientation: str = "lower"
) -> tuple[np.ndarray, np.ndarray]:
    """Matrix x that is block-triangular with respect to an oblique
    idempotent p, in the stated orientation (lower: p x q = 0)."""
    r = int(rng.integers(1, n))
    core = np.zeros((n, n), dtype=complex)
    core[:r, :r] = mixture(r, rng, moduli=(0.85, 1.2))
    core[r:, r:] = mixture(n - r, rng, moduli=(0.85, 1.2))
    coupling = rng.normal(size=(n - r, r)) + 1j * rng.normal(size=(n - r, r))
    if orientation == "lower":
        core[r:, :r] = coupling
    else:
        core[:r, r:] = coupling.conj().T
    p, s = oblique_idempotent(n, r, rng)
    x = s @ core @ np.linalg.inv(s)
    return x, p


def rectangular_pair(
    m: int, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """a (m x n) and b (n x m) with singular values in [0.7, 1.4]."""

    def factor(rows, cols):
        k = min(rows, cols)
        u = unitary(rows, rng)[:, :k]
        v = unitary(cols, rng)[:k, :]
        return u @ np.diag(rng.uniform(0.7, 1.4, k)) @ v

    return factor(m, n), factor(n, m)


def count_sweeps(monkeypatch) -> list:
    """Record each power-rank sweep (one per oracle run, one per index
    computation) from now on; returns the list the sweeps are appended to."""
    sweeps = []
    original = gdrazin.drazin._power_ranks

    def counting(ah, eps_rank):
        sweeps.append(ah.shape[0])
        return original(ah, eps_rank)

    monkeypatch.setattr(gdrazin.drazin, "_power_ranks", counting)
    return sweeps
