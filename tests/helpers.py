"""Seeded matrix builders and file fixtures shared across the test modules.

Constructions keep eigenvalue moduli and conditioning inside the ranges the
oracle's ambiguity guard tolerates, so sweeps are deterministic: no retry
loops, no tolerance fudging.
"""

import functools
import json

import numpy as np

import gdrazin.drazin
from gdrazin import TARGETS, AxiomViolation, CaseSpec, ConvergenceError, DrazinResult, generate
from gdrazin.drazin import AMBIGUITY_BAND, GAP_MIN
from gdrazin.linalg import EPS_MATCH, EPS_RANK, EPS_TAIL, fro_norm, scale_of
from gdrazin.series import PowerCache, series_cap, summed

# Finite nonzero scalars whose reciprocal, which the (1/lambda) condition
# rows test at, is not finite (a modulus below about 5.6e-309) or is zero.
NO_RECIPROCAL = (5e-324, 1e-310j, complex(1e308, 1e308))

# The scalars the sweeps cycle through, lambda = LAMBDAS[i % 4] at index i.
LAMBDAS = (0.5, 3.0, 1j, -2.0)


def is_unformed_nilpotent(dr, n: int) -> bool:
    """Whether ``dr`` is DrazinResult.nilpotent(n) as it is made: its d a
    read-only n x n zero view with no buffer of its own (every stride 0),
    and its pi not yet formed."""
    d = dr.d
    unformed = d.strides == (0, 0) and not d.flags.writeable and callable(dr._pi)
    return unformed and d.shape == (n, n) and not d.any()


def _read_only(case):
    for m in case.matrices.values():
        m.flags.writeable = False
    return case


@functools.cache
def criterion_4_corpus() -> tuple:
    """The valid instances of acceptance criterion 4, in its order: (target,
    i, lambda, case) for every target but 2.2 and i < 100, at dim 2 + i % 7,
    LAMBDAS[i % 4] and seed i // 4. Built once; every matrix is read-only."""
    return tuple(
        (target, i, LAMBDAS[i % 4],
         _read_only(generate(CaseSpec(target, dim=2 + i % 7, lam=LAMBDAS[i % 4], seed=i // 4))))
        for target in TARGETS
        if target != "2.2"
        for i in range(100)
    )


@functools.cache
def criterion_7_corpus() -> tuple:
    """The negated instances of acceptance criterion 7, in its order:
    (target, i, lambda, case) for every target and i < 50, at dim 2 + i % 7,
    LAMBDAS[i % 4] and seed i. Built once; every matrix is read-only."""
    return tuple(
        (target, i, LAMBDAS[i % 4],
         _read_only(generate(CaseSpec(target, dim=2 + i % 7, lam=LAMBDAS[i % 4], seed=i, negate=True))))
        for target in TARGETS
        for i in range(50)
    )


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

    def counting(ah, sv):
        sweeps.append(ah.shape[0])
        return original(ah, sv)

    monkeypatch.setattr(gdrazin.drazin, "_power_ranks", counting)
    return sweeps


def count_finite_scans(monkeypatch) -> list:
    """Record each full non-finite scan (np.isfinite over a whole matrix, as
    as_matrix and the document decoder make it) from now on; returns the
    list of scanned shapes."""
    scans = []
    original = np.isfinite

    def counting(x, *args, **kwargs):
        scans.append(np.shape(x))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    return scans


# ------------------------------------------------------------ references
# The oracle and the sum series as they were before each power and each
# series product was formed once: sigma_max from norm(a, 2), a sweep that
# takes the SVD of every power from the first, x and a^m rebuilt with
# matrix_power, a self-check that rebuilds a^k and a^{k+1}, and series
# terms that multiply every factor out, m^0 = I included (the start of
# their power caches). The tests compare the package against these.


def reference_axioms_ok(a, cand, k) -> bool:
    """Verdict of the Drazin-axiom check of cand for a at index k."""
    ak = np.linalg.matrix_power(a, k)
    r1 = fro_norm(cand @ a @ cand - cand)
    r2 = fro_norm(a @ cand - cand @ a)
    r3 = fro_norm(np.linalg.matrix_power(a, k + 1) @ cand - ak)
    na, nc = fro_norm(a), fro_norm(cand)
    s12 = max(1.0, na, nc)
    s3 = max(1.0, na, nc, fro_norm(ak))
    return r1 <= EPS_MATCH * s12 and r2 <= EPS_MATCH * s12 and r3 <= EPS_MATCH * s3


def _reference_power_ranks(ah):
    n = ah.shape[0]
    prev = n
    p = np.eye(n, dtype=complex)
    for j in range(1, n + 2):
        p = p @ ah
        sv = np.linalg.svd(p, compute_uv=False)
        if np.any((sv > EPS_RANK / AMBIGUITY_BAND) & (sv < EPS_RANK * AMBIGUITY_BAND)):
            raise AxiomViolation(f"rank of power {j} is ambiguous")
        r = int(np.count_nonzero(sv > EPS_RANK))
        if r == prev:
            return j - 1, r
        prev = r
    raise AxiomViolation("rank sequence of powers failed to stabilize")


def reference_oracle(a) -> DrazinResult:
    """a^d = a^k (a^{2k+1})^+ a^k along the reference route; raises
    AxiomViolation exactly where that route refused."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    s = float(np.linalg.norm(a, 2))
    if s == 0.0:
        return DrazinResult(d=np.zeros_like(a), pi=np.eye(n, dtype=complex), index=1)
    ah = a / s
    k, r = _reference_power_ranks(ah)
    if r == 0:
        return DrazinResult(d=np.zeros_like(a), pi=np.eye(n, dtype=complex), index=k)
    m = max(k, 1)
    u, sv, vh = np.linalg.svd(np.linalg.matrix_power(ah, 2 * m + 1))
    if r < sv.size and sv[r] > 0.0 and sv[r - 1] / sv[r] < GAP_MIN:
        raise AxiomViolation(f"spectral gap at stationary rank {r} too thin")
    x_pinv = (vh[:r].conj().T / sv[:r]) @ u[:, :r].conj().T
    am = np.linalg.matrix_power(ah, m)
    dh = am @ x_pinv @ am
    if not reference_axioms_ok(ah, dh, k):
        raise AxiomViolation("oracle output fails Drazin axioms")
    d = dh / s
    return DrazinResult(d=d, pi=np.eye(n, dtype=complex) - a @ d, index=k)


def reference_sum_nilpotent(a, b, b_dr):
    """b^d + sum_n (b^d)^(n+2) a (a + b)^n with every factor multiplied out."""
    m_pow = PowerCache(a + b, start=np.eye(a.shape[0], dtype=complex))
    bd_pow = PowerCache(b_dr.d)

    def terms():
        n = 0
        while True:
            yield bd_pow(n + 2) @ a @ m_pow(n)
            n += 1

    return b_dr.d + summed(terms(), series_cap(a.shape[0]), scale_of(a, b), "nilpotent-plus-b series")


def reference_sum(a, b, a_dr, b_dr):
    """The six-part sum formula (see gdrazin.additive.sum_formula) with every
    factor of every term multiplied out; no hypothesis check."""
    scale = scale_of(a, b)
    tiny = EPS_TAIL * scale  # the band of the outer loop below
    nmax = series_cap(a.shape[0])
    m_pow = PowerCache(a + b, start=np.eye(a.shape[0], dtype=complex))
    ad_pow = PowerCache(a_dr.d)
    bd_pow = PowerCache(b_dr.d)
    a_pi, b_pi = a_dr.pi, b_dr.pi

    def series(term):
        def terms():
            n = 0
            while True:
                yield term(n)
                n += 1

        return summed(terms(), nmax, scale, "reference series")

    s3 = series(lambda n: bd_pow(n + 2) @ a @ m_pow(n) @ a_pi)
    s4 = series(lambda n: b_pi @ m_pow(n) @ b @ ad_pow(n + 2))
    s6 = series(lambda n: bd_pow(n + 2) @ a @ m_pow(n) @ b @ ad_pow(1))
    s5 = np.zeros_like(a)
    consecutive_tiny = 0
    last = 0.0
    for n in range(nmax):
        inner = series(lambda k, n=n: bd_pow(k + 1) @ a @ m_pow(n + k) @ b)
        term = inner @ ad_pow(n + 2)
        s5 = s5 + term
        last = fro_norm(term)
        consecutive_tiny = consecutive_tiny + 1 if last < tiny else 0
        if consecutive_tiny >= 2:
            break
    else:
        if last > tiny:
            raise ConvergenceError("reference series 3: outer term still large")
    return b_pi @ ad_pow(1) + bd_pow(1) @ a_pi + s3 + s4 - s5 - s6


# The hypothesis rows as they were written by hand beside their labels, one
# branch per target, reading the factor map the package builds (a, b, a^pi,
# b^pi for pairs; A..D, A^pi, D^pi, (B C)^pi, (C B)^pi for blocks). The
# tests compare the rows built from the labels against these.


def reference_pair_rows(target, f):
    """Rows (label, lhs, rhs_base, lambda_power) of a pair target."""
    a, b = f["a"], f["b"]
    if target == "2.2":
        return [("a is quasinilpotent", a, None, None), ("b is quasinilpotent", b, None, None),
                ("a b = lambda b a", a @ b, b @ a, 1)]
    if target == "2.3":
        return [("a is quasinilpotent", a, None, None),
                ("a b = lambda b a b^pi", a @ b, b @ a @ f["b^pi"], 1)]
    return [("a b = lambda a^pi b a b^pi", a @ b, f["a^pi"] @ b @ a @ f["b^pi"], 1)]


def reference_block_rows(rule, f):
    """Rows (label, lhs, rhs_base, lambda_power) of a block rule; an
    idempotent that the rule's labels do not name is not in the map."""
    a, b, c, d = f["A"], f["B"], f["C"], f["D"]
    api, dpi, bc_pi, cb_pi = (f.get(name) for name in ("A^pi", "D^pi", "(B C)^pi", "(C B)^pi"))
    m, n = a.shape[0], d.shape[0]
    rows = []
    if rule == "3.1":
        rows.append(("B D = lambda (B C)^pi A B D^pi", b @ d, bc_pi @ a @ b @ dpi, 1))
        rows.append(("C A = lambda (C B)^pi D C A^pi", c @ a, cb_pi @ d @ c @ api, 1))
    elif rule == "3.2":
        rows.append(("B D = lambda A B D^pi", b @ d, a @ b @ dpi, 1))
        rows.append(("C A = lambda D C A^pi", c @ a, d @ c @ api, 1))
        rows.append(("B C = 0", b @ c, np.zeros((m, m), dtype=complex), None))
    elif rule == "3.3":
        rows.append(("A B = lambda A^pi B D (C B)^pi", a @ b, api @ b @ d @ cb_pi, 1))
        rows.append(("D C = lambda D^pi C A (B C)^pi", d @ c, dpi @ c @ a @ bc_pi, 1))
    elif rule == "3.4":
        rows.append(("A B = lambda A^pi B D", a @ b, api @ b @ d, 1))
        rows.append(("D C = 0", d @ c, np.zeros((n, m), dtype=complex), None))
        rows.append(("B C = 0", b @ c, np.zeros((m, m), dtype=complex), None))
    elif rule == "4.1":
        rows.append(("B D = lambda A^pi A B", b @ d, api @ a @ b, 1))
        rows.append(("D C = (1/lambda) D^pi C A A^pi", d @ c, dpi @ c @ a @ api, -1))
        rows.append(("B C = 0", b @ c, np.zeros((m, m), dtype=complex), None))
    elif rule == "4.2":
        rows.append(("C A = lambda D^pi D C", c @ a, dpi @ d @ c, 1))
        rows.append(("A B = (1/lambda) A^pi B D D^pi", a @ b, api @ b @ d @ dpi, -1))
        rows.append(("C B = 0", c @ b, np.zeros((n, n), dtype=complex), None))
    elif rule == "4.3":
        rows.append(("A B = lambda A^pi B D", a @ b, api @ b @ d, 1))
        rows.append(("D C = lambda D^pi C A", d @ c, dpi @ c @ a, 1))
        rows.append(("B C = 0", b @ c, np.zeros((m, m), dtype=complex), None))
    return rows


def write_schema_1(directory) -> None:
    """Rewrite a saved instance as schema 1 wrote it: [re, im] pair lists,
    by the stdlib encoder."""
    manifest = json.loads((directory / "instance.json").read_text())
    for fname in manifest["files"].values():
        doc = json.loads((directory / fname).read_text())
        doc["data"] = [doc["data"][i:i + 2] for i in range(0, len(doc["data"]), 2)]
        (directory / fname).write_text(json.dumps(doc))
    (directory / "instance.json").write_text(json.dumps({**manifest, "schema_version": 1}, indent=2))
