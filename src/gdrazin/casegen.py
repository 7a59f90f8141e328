"""Seeded construction of matrix instances that satisfy (or deliberately
violate) each supported hypothesis set.

Pair targets "2.2", "2.3" and "2.4" produce a pair (a, b) for the additive
formulas; block targets (the rule catalog of ``blockmat``) produce the four
blocks of a 2x2 block matrix. Construction is weighted-shift algebra: inside
a "window" zone every matrix is an upper shift band, and the hypothesis
reduces to a scalar recurrence along the band weights that is solved exactly
for the declared lambda. Invertible "core" zones give the diagonal blocks
nontrivial group-invertible parts, and a final unitary conjugation hides the
zone structure without touching any hypothesis.

Negated instances re-run the same construction and then apply the first
applicable break recipe (a doubled band weight or an injected coupling entry)
that makes exactly one certificate condition fail at the declared lambda;
every candidate is re-verified before it is returned.

Every instance is a deterministic function of its CaseSpec.
"""

import math
from dataclasses import dataclass

import numpy as np

from .additive import PAIR_TARGETS, FactorCheck, require_lambda
from .blockmat import RULE_IDS, Block2x2
from .errors import AxiomViolation, GenerationFailed
from .evaluation import certify, target_kind
from .linalg import DEFAULT_TOL, Tolerance

__all__ = [
    "PAIR_TARGETS",
    "BLOCK_TARGETS",
    "TARGETS",
    "PRESET_SPECS",
    "CaseSpec",
    "GeneratedCase",
    "certify",
    "generate",
    "preset",
]

BLOCK_TARGETS = RULE_IDS
TARGETS = PAIR_TARGETS + BLOCK_TARGETS

_RETRIES = 4


@dataclass(frozen=True)
class CaseSpec:
    """Deterministic description of one generated instance.

    Attributes
    ----------
    target : str
        Hypothesis set id: "2.2", "2.3", "2.4" (pair kinds) or a block rule.
    dim : int
        Matrix size for pair targets; per-side block size for block targets.
    lam : complex
        The nonzero finite scalar the instance is built for.
    seed : int
        RNG seed; the instance is a pure function of the full spec.
    negate : bool
        Build an instance where exactly one hypothesis condition fails at
        the declared lambda.
    """

    target: str
    dim: int
    lam: complex = 1.0
    seed: int = 0
    negate: bool = False

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}; valid: {', '.join(TARGETS)}")
        if int(self.dim) != self.dim or self.dim < 2:
            raise ValueError(f"dim must be an integer >= 2, got {self.dim!r}")
        require_lambda(complex(self.lam))
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True)
class GeneratedCase:
    """A generated instance plus its verification certificate.

    ``matrices`` holds {"a", "b"} for pair kinds and {"a", "b", "c", "d"}
    for block kinds. ``certificate`` lists every hypothesis condition checked
    at the declared lambda; for negated instances ``broken`` names the single
    condition that fails.
    """

    spec: CaseSpec
    matrices: dict[str, np.ndarray]
    certificate: tuple[FactorCheck, ...]
    broken: str | None = None

    @property
    def kind(self) -> str:
        """"pair" or "block", as the target says (``target_kind``)."""
        return target_kind(self.spec.target)

    @property
    def pair(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind != "pair":
            raise ValueError("not a pair instance")
        return self.matrices["a"], self.matrices["b"]

    @property
    def blocks(self) -> Block2x2:
        if self.kind != "block":
            raise ValueError("not a block instance")
        return Block2x2(**self.matrices)


PRESET_SPECS: dict[str, CaseSpec] = {
    "example-2.5": CaseSpec(target="2.4", dim=3, lam=0.5, seed=0),
    "example-4.4": CaseSpec(target="4.3", dim=4, lam=3.0, seed=0),
}


def preset(name: str, tol: Tolerance = DEFAULT_TOL) -> GeneratedCase:
    """Named canonical instances (the seed-0 anchors of their specs)."""
    if name not in PRESET_SPECS:
        raise ValueError(f"unknown preset {name!r}; valid: {', '.join(sorted(PRESET_SPECS))}")
    return generate(PRESET_SPECS[name], tol)


# ----------------------------------------------------------------- helpers

def _rng_for(spec: CaseSpec, attempt: int) -> np.random.Generator:
    major, minor = (int(x) for x in spec.target.split("."))
    return np.random.default_rng([spec.seed, major, minor, spec.dim, int(spec.negate), attempt])


def _weights(rng: np.random.Generator, k: int) -> np.ndarray:
    mod = rng.uniform(0.8, 1.25, size=k)
    arg = rng.uniform(0.0, 2.0 * np.pi, size=k)
    return mod * np.exp(1j * arg)


def _unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph = ph / np.abs(ph)
    return q * ph


def _band(size: int, gap: int, weights: np.ndarray) -> np.ndarray:
    """Upper band sum_i weights[i] E_{i, i+gap} inside a size x size zone."""
    m = np.zeros((size, size), dtype=complex)
    for i, w in enumerate(weights):
        m[i, i + gap] = w
    return m


def _normalized(weights: list[complex]) -> np.ndarray:
    w = np.asarray(weights, dtype=complex)
    if w.size and np.abs(w).max() > 0:
        w = w / np.abs(w).max()
    return w


def _embed(dim: int, start: int, zone: np.ndarray) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    w = zone.shape[0]
    m[start : start + w, start : start + w] = zone
    return m


# ------------------------------------------------------------ pair builders

def _shift_pair_weights(
    rng: np.random.Generator, count: int, lam: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Weight vectors (u, v) for two upper shifts a, b with a b = lambda b a.

    With upper bands (a b)_{i, i+2} = u_i v_{i+1} and (b a)_{i, i+2} =
    v_i u_{i+1}, so the condition pins v_{i+1} = lambda v_i u_{i+1} / u_i.
    """
    if count <= 0:
        return np.zeros(0, dtype=complex), np.zeros(0, dtype=complex)
    u = _weights(rng, count)
    v = [complex(_weights(rng, 1)[0])]
    for i in range(count - 1):
        v.append(lam * v[-1] * u[i + 1] / u[i])
    return u, _normalized(v)


def _build_22(dim: int, lam: complex, rng: np.random.Generator) -> dict[str, np.ndarray]:
    u, v = _shift_pair_weights(rng, dim - 1, lam)
    a = _band(dim, 1, u)
    b = _band(dim, 1, v)
    return {"a": a, "b": b}


def _build_23(dim: int, lam: complex, rng: np.random.Generator) -> dict[str, np.ndarray]:
    w = dim - 1
    z, wv = _shift_pair_weights(rng, max(w - 1, 0), lam)
    alpha = _band(w, 1, z)
    beta = _band(w, 1, wv)
    a = _embed(dim, 1, alpha)
    b = _embed(dim, 1, beta)
    b[0, 0] = _weights(rng, 1)[0]
    return {"a": a, "b": b}


def _layout_24(dim: int) -> tuple[int, int, int]:
    """Zone sizes of a 2.4 pair: the shift window u and the cores r of a and
    t of b."""
    u = min(max(dim - 2, 0), 6)
    r = (dim - u + 1) // 2
    return u, r, dim - u - r


def _build_24(dim: int, lam: complex, rng: np.random.Generator) -> dict[str, np.ndarray]:
    u, r, t = _layout_24(dim)
    z, wv = _shift_pair_weights(rng, max(u - 1, 0), lam)
    a = _embed(dim, r + t, _band(u, 1, z))
    b = _embed(dim, r + t, _band(u, 1, wv))
    a[np.arange(r), np.arange(r)] = _weights(rng, r)
    b[np.arange(r, r + t), np.arange(r, r + t)] = _weights(rng, t)
    return {"a": a, "b": b}


def _pair_valid(target: str, dim: int, lam: complex, rng: np.random.Generator) -> dict[str, np.ndarray]:
    builder = {"2.2": _build_22, "2.3": _build_23, "2.4": _build_24}[target]
    mats = builder(dim, lam, rng)
    un = _unitary(rng, dim)
    return {k: un @ m @ un.conj().T for k, m in mats.items()}


def _with_last_band_doubled(mats: dict[str, np.ndarray], key: str) -> list[dict[str, np.ndarray]]:
    """[mats] with the last off-diagonal nonzero entry of mats[key] (row-major
    order) doubled, or [] when mats[key] has none."""
    rows, cols = np.nonzero(mats[key] - np.diag(np.diag(mats[key])))
    if not rows.size:
        return []
    mats[key][rows[-1], cols[-1]] *= 2.0
    return [mats]


def _pair_negates(
    target: str, dim: int, lam: complex, rng: np.random.Generator
) -> list[dict[str, np.ndarray]]:
    """Candidate negated pair instances, in recipe order."""
    candidates: list[dict[str, np.ndarray]] = []
    e = complex(_weights(rng, 1)[0])

    if target == "2.2":
        if dim >= 3:
            candidates += _with_last_band_doubled(_build_22(dim, lam, rng), "b")
        # Nilpotency break: an invertible slot appended to b in a zone
        # where a vanishes, so the scalar condition is untouched.
        sub = _build_22(dim - 1, lam, rng) if dim >= 3 else {"a": np.zeros((1, 1), complex), "b": np.zeros((1, 1), complex)}
        w = dim - 1
        a = np.zeros((dim, dim), dtype=complex)
        b = np.zeros((dim, dim), dtype=complex)
        a[:w, :w] = sub["a"]
        b[:w, :w] = sub["b"]
        b[w, w] = 1.0
        candidates.append({"a": a, "b": b})

    elif target == "2.3":
        mats = _build_23(dim, lam, rng)
        mats["a"][0, 1] = e
        candidates.append(mats)
        if dim >= 4:
            candidates += _with_last_band_doubled(_build_23(dim, lam, rng), "b")

    elif target == "2.4":
        if dim == 2:
            a = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
            b = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
            candidates.append({"a": a, "b": b})
        else:
            u, r, t = _layout_24(dim)
            if t >= 1 and u >= 1:
                mats = _build_24(dim, lam, rng)
                mats["a"][r, r + t] = e
                candidates.append(mats)
            if u >= 3:
                candidates += _with_last_band_doubled(_build_24(dim, lam, rng), "b")

    un = _unitary(rng, dim)
    return [{k: un @ m @ un.conj().T for k, m in mats.items()} for mats in candidates]


# ----------------------------------------------------------- block builders

def _layout(target: str, dim: int) -> tuple[int, int, int, int]:
    """Zone sizes (s_q, s_p, w) and band gap g for one side."""
    if target in ("3.1", "3.3"):
        s_q = 1
        w = min(dim - 1, 4)
        s_p = dim - 1 - w
        g = 1
    else:
        s_q = 0
        w = min(dim, 4)
        s_p = dim - w
        g = max(1, math.ceil(w / 2))
    return s_q, s_p, w, g


def _block_window(
    target: str, w: int, g: int, lam: complex, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Window-zone matrices solving the target's recurrence at lambda."""
    alpha = _weights(rng, max(w - 1, 0))
    delta = _weights(rng, max(w - 1, 0))
    blen = max(w - g, 0)

    def chain(start: complex, step) -> np.ndarray:
        vals = [start]
        for i in range(blen - 1):
            vals.append(step(vals[-1], i))
        return _normalized(vals[:blen]) if blen else np.zeros(0, dtype=complex)

    beta0 = complex(_weights(rng, 1)[0])
    gamma0 = complex(_weights(rng, 1)[0])
    if target in ("3.1", "3.2", "4.1"):
        beta = chain(beta0, lambda v, i: v * delta[i + g] / (lam * alpha[i]))
    else:  # 3.3, 3.4, 4.3
        beta = chain(beta0, lambda v, i: lam * v * delta[i + g] / alpha[i])
    if target in ("3.1", "3.2", "4.1"):
        gamma = chain(gamma0, lambda v, i: v * alpha[i + g] / (lam * delta[i]))
    elif target in ("3.3", "4.3"):
        gamma = chain(gamma0, lambda v, i: lam * v * alpha[i + g] / delta[i])
    else:  # 3.4: no gamma band
        gamma = np.zeros(0, dtype=complex)

    zones = {
        "a": _band(w, 1, alpha),
        "d": _band(w, 1, delta),
        "b": _band(w, g, beta),
        "c": _band(w, g, gamma),
    }
    if target == "3.4":
        zones["c"] = np.zeros((w, w), dtype=complex)
        if w >= 2:
            zones["c"][0, w - 1] = gamma0
    return zones


def _build_block(target: str, dim: int, lam: complex, rng: np.random.Generator) -> dict[str, np.ndarray]:
    if target == "4.2":
        inner = _build_block("4.1", dim, lam, rng)
        return {"a": inner["d"], "b": inner["c"], "c": inner["b"], "d": inner["a"]}
    s_q, s_p, w, g = _layout(target, dim)
    win = _block_window(target, w, g, lam, rng)
    start = s_q + s_p
    mats = {k: _embed(dim, start, win[k]) for k in ("a", "b", "c", "d")}
    if s_q:
        mats["b"][0, 0] = _weights(rng, 1)[0]
        mats["c"][0, 0] = _weights(rng, 1)[0]
    if s_p:
        idx = np.arange(s_q, s_q + s_p)
        mats["a"][idx, idx] = _weights(rng, s_p)
        mats["d"][idx, idx] = _weights(rng, s_p)
    return mats


def _block_valid(target: str, dim: int, lam: complex, rng: np.random.Generator) -> dict[str, np.ndarray]:
    return _conjugate_block(_build_block(target, dim, lam, rng), rng)


def _conjugate_block(mats: dict[str, np.ndarray], rng: np.random.Generator) -> dict[str, np.ndarray]:
    dim = mats["a"].shape[0]
    um = _unitary(rng, dim)
    un = _unitary(rng, dim)
    return {
        "a": um @ mats["a"] @ um.conj().T,
        "b": um @ mats["b"] @ un.conj().T,
        "c": un @ mats["c"] @ um.conj().T,
        "d": un @ mats["d"] @ un.conj().T,
    }


def _block_negates(
    target: str, dim: int, lam: complex, rng: np.random.Generator
) -> list[dict[str, np.ndarray]]:
    """Candidate negated block instances, in recipe order."""
    if target == "4.2":
        inner = _block_negates("4.1", dim, lam, rng)
        return [{"a": m["d"], "b": m["c"], "c": m["b"], "d": m["a"]} for m in inner]

    candidates: list[dict[str, np.ndarray]] = []
    s_q, s_p, w, g = _layout(target, dim)

    def fresh() -> dict[str, np.ndarray]:
        return _build_block(target, dim, lam, _rng_clone(rng))

    if w - g >= 2:
        for key in ("b", "c"):
            candidates += _with_last_band_doubled(fresh(), key)

    # Core injection: couple the invertible diagonal zone through b (or c).
    # Falls back to a rebuilt layout with one core slot when the default
    # layout has none.
    def with_core(key: str) -> dict[str, np.ndarray]:
        if s_p >= 1:
            mats = fresh()
            p = s_q
        else:
            sq2 = 1 if target in ("3.1", "3.3") else 0
            w2 = dim - 1 - sq2
            win = _block_window(target, w2, max(1, math.ceil(w2 / 2)) if sq2 == 0 else 1, lam, _rng_clone(rng))
            mats = {k: _embed(dim, sq2 + 1, win[k]) for k in ("a", "b", "c", "d")}
            if sq2:
                mats["b"][0, 0] = _weights(rng, 1)[0]
                mats["c"][0, 0] = _weights(rng, 1)[0]
            p = sq2
            mats["a"][p, p] = _weights(rng, 1)[0]
            mats["d"][p, p] = _weights(rng, 1)[0]
        mats[key][p, p] = complex(_weights(rng, 1)[0])
        return mats

    candidates.append(with_core("b"))
    candidates.append(with_core("c"))
    return [_conjugate_block(m, _rng_clone(rng)) for m in candidates]


def _rng_clone(rng: np.random.Generator) -> np.random.Generator:
    return np.random.default_rng(rng.integers(0, 2**63 - 1))


# ---------------------------------------------------------------- generate

_CANONICAL_PAIR_25 = (
    np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [1, 0, 0], [0, 2, 0]], dtype=complex),
)

_CANONICAL_BLOCKS_44 = {
    "a": np.diag(np.ones(3, dtype=complex), k=1),
    "d": np.diag(np.ones(3, dtype=complex), k=1),
    "b": np.array(
        [[0, 0, 1, 0], [0, 0, 0, 3], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=complex
    ),
    "c": np.array(
        [[0, 0, 1, 0], [0, 0, 0, 3], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=complex
    ),
}


def _canonical(spec: CaseSpec) -> dict[str, np.ndarray] | None:
    if spec.negate or spec.seed != 0:
        return None
    if spec == PRESET_SPECS["example-2.5"]:
        a, b = _CANONICAL_PAIR_25
        return {"a": a.copy(), "b": b.copy()}
    if spec == PRESET_SPECS["example-4.4"]:
        return {k: v.copy() for k, v in _CANONICAL_BLOCKS_44.items()}
    return None


def generate(spec: CaseSpec, tol: Tolerance = DEFAULT_TOL) -> GeneratedCase:
    """Build the instance described by ``spec``.

    Valid instances satisfy every hypothesis condition of the target at the
    declared lambda; negated instances fail exactly one. Generation is
    deterministic in the spec, and the returned certificate re-verifies the
    instance with the same checks the formula entry points use.

    Raises
    ------
    GenerationFailed
        If no candidate satisfying the contract is found within the retry
        budget (negated targets with no applicable break recipe at this
        dimension, for example).
    """
    lam = complex(spec.lam)

    canonical = _canonical(spec)
    if canonical is not None:
        cert = certify(spec.target, canonical, lam, tol)
        if not all(c.holds for c in cert):
            raise GenerationFailed("canonical instance failed its own certificate")
        return GeneratedCase(spec=spec, matrices=canonical, certificate=cert)

    pair = target_kind(spec.target) == "pair"
    valid, negates = (_pair_valid, _pair_negates) if pair else (_block_valid, _block_negates)
    for attempt in range(_RETRIES):
        rng = _rng_for(spec, attempt)
        if spec.negate:
            candidates = negates(spec.target, spec.dim, lam, rng)
        else:
            candidates = [valid(spec.target, spec.dim, lam, rng)]
        if candidates:
            rot = spec.seed % len(candidates)
            candidates = candidates[rot:] + candidates[:rot]
        for mats in candidates:
            try:
                cert = certify(spec.target, mats, lam, tol)
            except AxiomViolation:
                # Near-cutoff singular values make the certificate unreliable;
                # discard this candidate rather than certify ambiguously.
                continue
            failing = [c.condition for c in cert if not c.holds]
            # a valid instance fails no condition, a negated one exactly one
            if len(failing) == spec.negate:
                return GeneratedCase(spec, mats, cert, broken=failing[0] if failing else None)

    raise GenerationFailed(
        f"no admissible instance for {spec.target} (dim {spec.dim}, "
        f"lambda {lam}, negate {spec.negate}) within {_RETRIES} attempts"
    )
