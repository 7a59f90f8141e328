"""Seeded construction of matrix instances that satisfy (or deliberately
violate) each supported hypothesis set.

Pair targets "2.2", "2.3" and "2.4" produce a pair (a, b) for the additive
formulas; block targets (the rule catalog of ``blockmat``) produce the four
blocks of a 2x2 block matrix. Construction is weighted-shift algebra, and
every instance has one zone layout, written once (``_lay_out``): diagonal
core slots first, then one "window" zone. Inside the window every matrix is
an upper shift band, and the hypothesis reduces to a scalar recurrence along
the band weights that is solved exactly for the declared lambda. A core slot
(key, first, count) puts fresh invertible diagonal weights into one matrix,
which gives the diagonal blocks nontrivial group-invertible parts. A target
only chooses the core counts: none for 2.2, one of b for 2.3, a split
between a and b for 2.4 (``_pair_cores``); one of b and c for the rules
whose conditions name (B C)^pi or (C B)^pi (3.1 and 3.3), and for a and d
what a window of at most 4 leaves (``_block_layout``).
Rule 4.2's instances are rule 4.1's with the blocks exchanged. A final
unitary conjugation hides the zone structure without touching any
hypothesis.

Negated instances are candidates, each from one break recipe (a doubled
last band weight, a coupling entry injected next to a core slot, or for 2.2
an invertible slot of b where a vanishes), in a fixed order per target that
the seed rotates. The first candidate whose certificate fails exactly one
condition at the declared lambda is returned. Every candidate is built, but
only those tried are conjugated: each comes as a builder that draws, if at
all, from a stream no other candidate reads, so the instances do not depend
on which builders run.

Every instance is a deterministic function of its CaseSpec.
"""

from __future__ import annotations  # numpy.random loads at the first draw

import functools
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .additive import PAIR_TARGETS, FactorCheck, require_lambda
from .blockmat import _BC_RULES, Block2x2
from .errors import AxiomViolation, GenerationFailed
from .evaluation import PRESET_NAMES, TARGETS, certify, target_kind
from .linalg import DEFAULT_TOL, Tolerance

__all__ = [
    "PAIR_TARGETS",
    "TARGETS",
    "PRESET_SPECS",
    "CaseSpec",
    "GeneratedCase",
    "certify",
    "generate",
    "preset",
]

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
        Any integer ``operator.index`` takes, except a bool; likewise seed.
    lam : complex
        The nonzero finite scalar the instance is built for.
    seed : int
        RNG seed; the instance is a pure function of the full spec.
    negate : bool
        Build an instance where exactly one hypothesis condition fails at
        the declared lambda. Only a bool is taken.
    """

    target: str
    dim: int
    lam: complex = 1.0
    seed: int = 0
    negate: bool = False

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}; valid: {', '.join(TARGETS)}")
        _require_int("dim", self.dim, 2)
        require_lambda(complex(self.lam))
        _require_int("seed", self.seed, 0)
        if not isinstance(self.negate, bool):
            raise ValueError(f"negate must be a bool, got {self.negate!r}")


def _require_int(name: str, value, least: int) -> None:
    """ValueError unless value is an integer (not a bool) of at least ``least``."""
    try:
        ok = not isinstance(value, bool) and operator.index(value) >= least
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


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


PRESET_SPECS: dict[str, CaseSpec] = dict(zip(PRESET_NAMES, (
    CaseSpec(target="2.4", dim=3, lam=0.5, seed=0),
    CaseSpec(target="4.3", dim=4, lam=3.0, seed=0),
), strict=True))


def preset(name: str, tol: Tolerance = DEFAULT_TOL) -> GeneratedCase:
    """Named canonical instances (the seed-0 anchors of their specs)."""
    if name not in PRESET_SPECS:
        raise ValueError(f"unknown preset {name!r}; valid: {', '.join(sorted(PRESET_SPECS))}")
    return generate(PRESET_SPECS[name], tol)


# ----------------------------------------------------------------- helpers

def _rng_for(spec: CaseSpec, attempt: int) -> np.random.Generator:
    major, minor = (int(x) for x in spec.target.split("."))
    seed, dim = operator.index(spec.seed), operator.index(spec.dim)
    return np.random.default_rng([seed, major, minor, dim, int(spec.negate), attempt])


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


def _lay_out(
    dim: int, start: int, zones: dict[str, np.ndarray],
    slots: list[tuple[str, int, int]], rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    """The window zones embedded at ``start`` in dim x dim matrices, then each
    diagonal core slot (key, first, count) filled with fresh weights, in slot
    order. An empty slot draws nothing."""
    mats = {}
    for key, zone in zones.items():
        mats[key] = np.zeros((dim, dim), dtype=complex)
        mats[key][start : start + len(zone), start : start + len(zone)] = zone
    for key, first, count in slots:
        if count:
            idx = np.arange(first, first + count)
            mats[key][idx, idx] = _weights(rng, count)
    return mats


def _with_last_band_doubled(mats: dict[str, np.ndarray], key: str) -> list[dict[str, np.ndarray]]:
    """[mats] with the last off-diagonal nonzero entry of mats[key] (row-major
    order) doubled, or [] when mats[key] has none."""
    rows, cols = np.nonzero(mats[key] - np.diag(np.diag(mats[key])))
    if not rows.size:
        return []
    mats[key][rows[-1], cols[-1]] *= 2.0
    return [mats]


def _rng_clone(rng: np.random.Generator) -> np.random.Generator:
    return np.random.default_rng(rng.integers(0, 2**63 - 1))


# ------------------------------------------------------------ pair builders

def _pair_cores(target: str, dim: int) -> tuple[int, int]:
    """Core counts of a and of b in a pair target's layout: a's cores come
    first, then b's, and the shift window takes the rest (at most 6 wide
    for 2.4)."""
    if target == "2.2":
        return 0, 0
    if target == "2.3":
        return 0, 1
    u = min(max(dim - 2, 0), 6)
    r = (dim - u + 1) // 2
    return r, dim - u - r


def _pair_window(size: int, lam: complex, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Two upper shifts a, b of one size x size zone with a b = lambda b a.

    With upper bands (a b)_{i, i+2} = u_i v_{i+1} and (b a)_{i, i+2} =
    v_i u_{i+1}, so the condition pins v_{i+1} = lambda v_i u_{i+1} / u_i.
    """
    u = v = np.zeros(0, dtype=complex)
    if size >= 2:
        u = _weights(rng, size - 1)
        v = [complex(_weights(rng, 1)[0])]
        for i in range(size - 2):
            v.append(lam * v[-1] * u[i + 1] / u[i])
        v = _normalized(v)
    return {"a": _band(size, 1, u), "b": _band(size, 1, v)}


def _build_pair(
    dim: int, cores: tuple[int, int], lam: complex, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    ra, rb = cores
    window = _pair_window(dim - ra - rb, lam, rng)
    return _lay_out(dim, ra + rb, window, [("a", 0, ra), ("b", ra, rb)], rng)


def _conjugate_pair(mats: dict[str, np.ndarray], un: np.ndarray) -> dict[str, np.ndarray]:
    return {k: un @ m @ un.conj().T for k, m in mats.items()}


def _pair_cases(
    target: str, dim: int, lam: complex, rng: np.random.Generator, negate: bool
) -> list[Callable[[], dict[str, np.ndarray]]]:
    """The valid pair instance, or the negated candidates in recipe order,
    each as a builder that conjugates it by one shared unitary. Every draw
    is made here, so the builders do only the matmuls."""
    cores = _pair_cores(target, dim)
    if not negate:
        candidates = [_build_pair(dim, cores, lam, rng)]
    else:
        candidates = []
        e = complex(_weights(rng, 1)[0])
        ra, rb = cores
        w = dim - ra - rb
        if target == "2.4" and dim == 2:
            a = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
            b = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
            candidates.append({"a": a, "b": b})
        if rb >= 1 and w >= 1:
            # Coupling: the first core slot of b feeds the window through a.
            mats = _build_pair(dim, cores, lam, rng)
            mats["a"][ra, ra + rb] = e
            candidates.append(mats)
        if w >= 3:
            candidates += _with_last_band_doubled(_build_pair(dim, cores, lam, rng), "b")
        if target == "2.2":
            # Nilpotency break: the dim-1 instance at offset 0 and an
            # invertible slot of b after it, where a vanishes, so the scalar
            # condition is untouched.
            mats = _lay_out(dim, 0, _pair_window(dim - 1, lam, rng), [], rng)
            mats["b"][dim - 1, dim - 1] = 1.0
            candidates.append(mats)
    un = _unitary(rng, dim)
    return [functools.partial(_conjugate_pair, mats, un) for mats in candidates]


# ----------------------------------------------------------- block builders

def _block_layout(target: str, dim: int, cores: int | None = None) -> tuple[int, int, int, int]:
    """Core count s_q of b and c, core count s_p of a and d (``cores``, or
    what a window of at most 4 leaves), window w and band gap g of one side.
    Cores come first: b's and c's at slot 0, then a's and d's."""
    s_q = 1 if target in _BC_RULES else 0
    w = min(dim - s_q, 4) if cores is None else dim - s_q - cores
    g = 1 if s_q else max(1, math.ceil(w / 2))
    return s_q, dim - s_q - w, w, g


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
        gamma = chain(gamma0, lambda v, i: v * alpha[i + g] / (lam * delta[i]))
    else:  # 3.3, 3.4, 4.3
        beta = chain(beta0, lambda v, i: lam * v * delta[i + g] / alpha[i])
        gamma = chain(gamma0, lambda v, i: lam * v * alpha[i + g] / delta[i])
    zones = {
        "a": _band(w, 1, alpha),
        "b": _band(w, g, beta),
        "c": _band(w, g, gamma),
        "d": _band(w, 1, delta),
    }
    if target == "3.4":  # no gamma band, one corner entry instead
        zones["c"][:] = 0.0
        if w >= 2:
            zones["c"][0, w - 1] = gamma0
    return zones


def _exchanged(mats: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The blocks [[d, c], [b, a]]: rule 4.2 is rule 4.1 on these."""
    return {"a": mats["d"], "b": mats["c"], "c": mats["b"], "d": mats["a"]}


def _build_block(
    target: str, dim: int, lam: complex, rng: np.random.Generator,
    cores: int | None = None, slot_rng: np.random.Generator | None = None,
) -> dict[str, np.ndarray]:
    """The window drawn from ``rng``, the core slots from ``slot_rng``
    (default ``rng``)."""
    if target == "4.2":
        return _exchanged(_build_block("4.1", dim, lam, rng, cores, slot_rng))
    s_q, s_p, w, g = _block_layout(target, dim, cores)
    window = _block_window(target, w, g, lam, rng)
    slots = [("b", 0, s_q), ("c", 0, s_q), ("a", s_q, s_p), ("d", s_q, s_p)]
    return _lay_out(dim, s_q + s_p, window, slots, rng if slot_rng is None else slot_rng)


def _conjugate_block(
    mats: dict[str, np.ndarray], rng: np.random.Generator
) -> dict[str, np.ndarray]:
    dim = mats["a"].shape[0]
    um = _unitary(rng, dim)
    un = _unitary(rng, dim)
    return {
        "a": um @ mats["a"] @ um.conj().T,
        "b": um @ mats["b"] @ un.conj().T,
        "c": un @ mats["c"] @ um.conj().T,
        "d": un @ mats["d"] @ un.conj().T,
    }


def _block_cases(
    target: str, dim: int, lam: complex, rng: np.random.Generator, negate: bool
) -> list[Callable[[], dict[str, np.ndarray]]]:
    """The valid block instance, or the negated candidates in recipe order,
    each as a builder that conjugates it by its own pair of unitaries. A
    negated candidate's unitaries come from a clone whose seed is drawn
    here, so a builder left uncalled changes no other candidate."""
    if not negate:
        return [functools.partial(_conjugate_block, _build_block(target, dim, lam, rng), rng)]
    if target == "4.2":
        return [lambda build=build: _exchanged(build())
                for build in _block_cases("4.1", dim, lam, rng, negate)]

    candidates: list[dict[str, np.ndarray]] = []
    s_q, s_p, w, g = _block_layout(target, dim)
    if w - g >= 2:
        for key in ("b", "c"):
            mats = _build_block(target, dim, lam, _rng_clone(rng))
            candidates += _with_last_band_doubled(mats, key)

    # Core injection: couple the invertible diagonal zone through b (or c).
    # Without a core slot in the default layout, the layout is rebuilt with
    # one; its window still comes from a clone, its slots from rng.
    for key in ("b", "c"):
        if s_p >= 1:
            mats = _build_block(target, dim, lam, _rng_clone(rng))
        else:
            mats = _build_block(target, dim, lam, _rng_clone(rng), cores=1, slot_rng=rng)
        mats[key][s_q, s_q] = complex(_weights(rng, 1)[0])
        candidates.append(mats)
    return [functools.partial(_conjugate_block, m, _rng_clone(rng)) for m in candidates]


# ---------------------------------------------------------------- generate

# Each preset spec with its matrices, which generate copies instead of
# building a candidate. Found by ==, so a spec given with numpy scalars or
# 0-d arrays still finds its preset.
_PRESET_MATRICES = (
    (PRESET_SPECS["example-2.5"], {
        "a": np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex),
        "b": np.array([[0, 0, 0], [1, 0, 0], [0, 2, 0]], dtype=complex),
    }),
    (PRESET_SPECS["example-4.4"], {
        "a": np.diag(np.ones(3, dtype=complex), k=1),
        "d": np.diag(np.ones(3, dtype=complex), k=1),
        "b": np.array([[0, 0, 1, 0], [0, 0, 0, 3], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=complex),
        "c": np.array([[0, 0, 1, 0], [0, 0, 0, 3], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=complex),
    }),
)


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

    stored = next((m for s, m in _PRESET_MATRICES if s == spec), None)
    if stored is not None:
        mats = {k: v.copy() for k, v in stored.items()}
        cert = certify(spec.target, mats, lam, tol)
        if not all(c.holds for c in cert):
            raise GenerationFailed("canonical instance failed its own certificate")
        return GeneratedCase(spec=spec, matrices=mats, certificate=cert)

    cases = _pair_cases if target_kind(spec.target) == "pair" else _block_cases
    for attempt in range(_RETRIES):
        candidates = cases(spec.target, spec.dim, lam, _rng_for(spec, attempt), spec.negate)
        if candidates:
            rot = spec.seed % len(candidates)
            candidates = candidates[rot:] + candidates[:rot]
        for build in candidates:
            mats = build()
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
