"""Drazin inverses of sums a + b under one-sided power-commutation
hypotheses of the form (left side) = lambda * (right side).

The engine is ``sum_formula``: under a b = lambda a^pi b a b^pi the inverse
of the sum is a finite combination of corner inverses and four terminating
series, which it evaluates on given Drazin data of a and b, checking no
hypothesis. It is the only series engine for sums; at a^d = 0 it forms only
the one series that a^d does not multiply, at b^d = 0 only the one that
b^d does not multiply, and when both are zero none. It keeps each product
alive only until its last reader has run, so a run that forms one series
holds a fixed number of arrays however many terms that series takes.
``drazin_sum`` (theorem 2.4), ``drazin_sum_nilpotent`` (theorem 2.3, at a
quasinilpotent a: a^d = 0, a^pi = I) and ``nilpotent_sum_closure``
(theorem 2.2, closure of nilpotency under lambda-commutation) are
``evaluation.solve`` on their target, which forms the oracle data and
judges the hypothesis. Their
hypotheses live in one table, ``PAIR_RULES``, as the labels the
certificates print; each label is also its definition. ``parse_condition`` reads a label once, at import,
``condition_rows`` multiplies its factors out on one factor map, and
``check_condition_rows`` turns the rows of this table and of the block table
into FactorChecks. ``check_factor_condition`` is the scalar-fit primitive
those rows reduce to.
"""

import cmath
import math
import re
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .drazin import DrazinResult, drazin_oracle, nilpotency_residual
from .errors import PreconditionViolated
from .linalg import EPS_CHECK, as_matrix, checked_norm, fro_norm
from .series import PowerCache, series_cap, summed

__all__ = [
    "PAIR_RULES",
    "PAIR_TARGETS",
    "FactorCheck",
    "require_lambda",
    "check_factor_condition",
    "check_condition_rows",
    "square_pair",
    "pair_oracles",
    "require_hypothesis",
    "nilpotent_sum_closure",
    "drazin_sum_nilpotent",
    "drazin_sum",
    "sum_formula",
]

# The conditions of each pair target, in catalog order; see parse_condition.
PAIR_RULES = {
    "2.2": ("a is quasinilpotent", "b is quasinilpotent", "a b = lambda b a"),
    "2.3": ("a is quasinilpotent", "a b = lambda b a b^pi"),
    "2.4": ("a b = lambda a^pi b a b^pi",),
}
PAIR_TARGETS = tuple(PAIR_RULES)
# The factors a pair label may name.
_PAIR_FACTORS = ("a", "b", "a^pi", "b^pi")

# A parsed label (label, lhs factors, rhs factors, lambda_power), and the
# condition row (label, lhs, rhs_base, lambda_power) it gives on one factor
# map; see parse_condition and check_condition_rows.
Condition = tuple[str, tuple[str, ...], tuple[str, ...] | None, int | None]
ConditionRow = tuple[str, np.ndarray, np.ndarray | None, int | None]

_SCALARS = {"0": None, "lambda": 1, "(1/lambda)": -1}
_FACTOR = re.compile(r"\([^)]*\)\S*|\S+")  # "(B C)^pi" is one factor


@dataclass(frozen=True)
class FactorCheck:
    """Outcome of testing lhs == lambda * rhs_base for some scalar lambda.

    Attributes
    ----------
    condition : str
        Human-readable label of the tested identity.
    holds : bool
        Whether the identity holds at the examined lambda to EPS_CHECK.
    lam : complex or None
        The lambda used: the given value, or the least-squares fit. None when
        the check is degenerate (both sides vanish, any lambda works) or when
        no usable scalar exists. check_condition_rows reports the hypothesis'
        lambda here on every scalar row, (1/lambda) rows included.
    residual : float
        Frobenius norm of lhs - lambda * rhs_base (of lhs alone when no
        scalar applies).
    degenerate : bool
        True when both sides vanish to EPS_CHECK * scale; then holds is True
        and lam is None.
    """

    condition: str
    holds: bool
    lam: complex | None
    residual: float
    degenerate: bool


def require_lambda(lam: complex | None) -> None:
    """ValueError unless ``lam`` is None (fit the scalar) or a finite nonzero
    scalar whose reciprocal is finite and nonzero: the hypotheses hold for
    nonzero lambda, the (1/lambda) rows test at its reciprocal, and a NaN or
    infinite scalar makes every residual NaN or infinite. This is the one
    gate of the lambda domain; the message names the ``lam`` given."""
    if lam is None:
        return
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    z = complex(lam)
    if not cmath.isfinite(z):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    inverse = 1 / z
    if inverse == 0 or not cmath.isfinite(inverse):
        raise ValueError(f"lambda must have a finite nonzero reciprocal, got {lam!r}")


def check_factor_condition(
    lhs: np.ndarray,
    rhs_base: np.ndarray,
    given_lambda: complex | None = None,
    condition: str = "lhs = lambda * rhs",
) -> FactorCheck:
    """Test whether lhs equals lambda * rhs_base for a nonzero scalar lambda.

    With ``given_lambda`` the identity is tested at that exact value.
    Otherwise lambda is fitted by least squares over the matrix entries:

        lambda = <vec(rhs_base), vec(lhs)> / ||vec(rhs_base)||^2

    (inner product conjugate-linear in the first slot). A fitted lambda with
    modulus at most EPS_CHECK is rejected: the scalar in these hypotheses is
    nonzero by convention, and a vanishing fit means lhs has no component
    along rhs_base.

    When both sides are below EPS_CHECK * scale the check is degenerate: it
    holds for every lambda and ``lam`` is reported as None.

    Each operand is checked as as_matrix checks it, by the finite-norm rule
    (see ``linalg``): the Frobenius norm the scale needs proves its entries
    finite, and only a non-finite norm gets the full scan and its
    ValueError.

    Parameters
    ----------
    lhs, rhs_base : ndarray
        Same-shape matrices.
    given_lambda : complex, optional
        Fixed finite nonzero scalar to test at. None fits the scalar instead.
    condition : str
        Label copied into the result.

    Returns
    -------
    FactorCheck
    """
    # each operand's norm is taken once: it checks the operand, and the
    # scale, small-side tests and degenerate residual read it
    lhs, lhs_norm = checked_norm(lhs)
    rhs_base, rhs_norm = checked_norm(rhs_base)
    if lhs.shape != rhs_base.shape:
        raise ValueError(f"shape mismatch: {lhs.shape} vs {rhs_base.shape}")
    require_lambda(given_lambda)
    band = EPS_CHECK * max(1.0, lhs_norm, rhs_norm)
    lhs_small = lhs_norm <= band
    rhs_small = rhs_norm <= band

    if lhs_small and rhs_small:
        return FactorCheck(condition, True, None, lhs_norm, True)
    if rhs_small:
        # No scalar multiple of a (numerically) zero base can reach lhs.
        return FactorCheck(condition, False, None, lhs_norm, False)

    if given_lambda is not None:
        lam = complex(given_lambda)
    else:
        num, den = np.vdot(rhs_base, lhs), np.vdot(rhs_base, rhs_base)
        if not (cmath.isfinite(num) and cmath.isfinite(den)):
            # an inner product overflowed: fit again with both sides divided
            # exactly, by the power of two just above their larger norm
            s = math.ldexp(1.0, -math.frexp(max(lhs_norm, rhs_norm))[1])
            num, den = np.vdot(s * rhs_base, s * lhs), np.vdot(s * rhs_base, s * rhs_base)
        lam = complex(num / den)
    # formed at the scale 2**-e, 2**e >= |lam|, so that lam * rhs_base cannot
    # overflow where the residual is finite; a power of two scales exactly
    e = max(0, math.frexp(max(abs(lam.real), abs(lam.imag)))[1] + 1)
    s = math.ldexp(1.0, -e)
    try:
        residual = math.ldexp(fro_norm(lhs * s - (lam * s) * rhs_base), e)
    except OverflowError:  # a residual beyond the float range
        residual = math.inf
    holds = residual <= band
    if given_lambda is None and abs(lam) <= EPS_CHECK:
        holds = False
        lam = None
    return FactorCheck(condition, holds, lam, residual, False)


def parse_condition(label: str, names: tuple[str, ...]) -> Condition:
    """The parsed form of one condition label, in one of four shapes:

        x is quasinilpotent        rhs factors None, lambda_power None
        lhs = 0                    rhs factors (),   lambda_power None
        lhs = lambda rhs           lambda_power +1
        lhs = (1/lambda) rhs       lambda_power -1

    where each side is a product of factors from ``names``, separated by
    spaces (a parenthesized factor such as "(B C)^pi" counts as one).
    ValueError, naming the label, for anything else.
    """

    def product(text: str) -> tuple[str, ...]:
        factors = tuple(_FACTOR.findall(text))
        if not factors or any(f not in names for f in factors):
            raise ValueError(f"condition {label!r}: {text!r} is not a product of {', '.join(names)}")
        return factors

    subject, quasi, rest = label.partition(" is quasinilpotent")
    if quasi and not rest:
        return label, product(subject), None, None
    lhs, eq, rhs = label.partition(" = ")
    scalar, _, rhs = rhs.partition(" ")
    if not eq or scalar not in _SCALARS or (scalar == "0" and rhs):
        raise ValueError(f"condition {label!r} is not 'x is quasinilpotent', 'lhs = 0', "
                         "'lhs = lambda rhs' or 'lhs = (1/lambda) rhs'")
    power = _SCALARS[scalar]
    return label, product(lhs), () if power is None else product(rhs), power


def condition_rows(
    conditions: tuple[Condition, ...], factors: dict[str, np.ndarray]
) -> list[ConditionRow]:
    """The condition rows of parsed labels on one factor map: each side is
    the product of its factors, multiplied left to right (the bits of
    ``x @ y @ z``); a zero row's rhs_base is the zero matrix."""

    def product(names: tuple[str, ...]) -> np.ndarray:
        return reduce(np.matmul, [factors[f] for f in names])

    rows = []
    for label, lhs, rhs, power in conditions:
        left = product(lhs)
        right = None if rhs is None else product(rhs) if rhs else np.zeros_like(left)
        rows.append((label, left, right, power))
    return rows


def parse_rules(rules: dict[str, tuple[str, ...]], names: tuple[str, ...]) -> dict[str, tuple]:
    """parse_condition of every label of a rule table, keyed and ordered as
    the table."""
    return {rule: tuple(parse_condition(c, names) for c in labels) for rule, labels in rules.items()}


_PAIR_CONDITIONS = parse_rules(PAIR_RULES, _PAIR_FACTORS)


def check_condition_rows(rows: list[ConditionRow], lam: complex | None = None) -> list[FactorCheck]:
    """FactorChecks of condition rows (label, lhs, rhs_base, lambda_power),
    in row order; the pair and block hypothesis tables both go through here.

    lambda_power +1 tests lhs = lambda * rhs_base and -1 tests
    lhs = (1/lambda) * rhs_base, at ``lam`` when given, else with a fitted
    scalar. Either way the row's ``lam`` is lambda: a -1 row's scalar is
    inverted here, once. lambda_power None marks a zero row (rhs_base the
    zero matrix), tested with no scalar. rhs_base None marks a
    quasinilpotency row on lhs: it carries no scalar and its residual is
    nilpotency_residual(lhs).

    When ``lam`` is None and at least two scalar rows produced usable
    scalars, a final "lambda consistency" row reports whether they agree.
    """
    require_lambda(lam)
    checks: list[FactorCheck] = []
    fitted: list[complex] = []
    for label, lhs, rhs, power in rows:
        if rhs is None:
            residual = nilpotency_residual(lhs)
            checks.append(FactorCheck(label, residual <= EPS_CHECK, None, residual, False))
            continue
        if power is None:
            checks.append(check_factor_condition(lhs, rhs, None, condition=label))
            continue
        given = None
        if lam is not None:
            given = complex(lam) if power == 1 else 1.0 / complex(lam)
        chk = check_factor_condition(lhs, rhs, given, condition=label)
        if power == -1 and chk.lam is not None:
            chk = replace(chk, lam=complex(lam) if lam is not None else 1.0 / chk.lam)
        checks.append(chk)
        if lam is None and chk.holds and not chk.degenerate and chk.lam is not None:
            fitted.append(chk.lam)
    if len(fitted) >= 2:
        spread = max(abs(v - fitted[0]) for v in fitted[1:])
        band = EPS_CHECK * max(1.0, max(abs(v) for v in fitted))
        checks.append(
            FactorCheck(
                condition="lambda consistency",
                holds=spread <= band,
                lam=None,
                residual=spread,
                degenerate=False,
            )
        )
    return checks


def square_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) as complex matrices; ValueError unless both are square of one shape."""
    return _same_square(as_matrix(a), as_matrix(b))


def _same_square(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"need square matrices of equal shape, got {a.shape} and {b.shape}")
    return a, b


def pair_oracles(target: str, a: np.ndarray, b: np.ndarray) -> dict[str, DrazinResult]:
    """Oracle data that the conditions and the formula of ``target`` read:
    none for 2.2, "a_dr" and "b_dr" for 2.3 and 2.4, on a and b as
    square_pair returns them. evaluation's judge forms it once per request
    and hands it to the rows and to the engine, so each matrix sees the
    oracle once. No oracle runs on the a of 2.3: that a is quasinilpotent,
    so its "a_dr" is DrazinResult.nilpotent, the data (0, I), which forms
    neither. ValueError unless ``target`` is one of PAIR_TARGETS."""
    if target not in PAIR_TARGETS:
        raise ValueError(f"unknown pair target {target!r}; valid: {', '.join(PAIR_TARGETS)}")
    if target == "2.2":
        return {}
    a_dr = DrazinResult.nilpotent(a.shape[0]) if target == "2.3" else drazin_oracle(a)
    return {"a_dr": a_dr, "b_dr": drazin_oracle(b)}


def _pair_factors(
    a: np.ndarray, b: np.ndarray, named: frozenset[str], **oracles: DrazinResult
) -> dict[str, np.ndarray]:
    """The factor map the pair labels read, on pair_oracles' data: a, b and
    the idempotents among ``named``, the factors the target's labels name
    (none for 2.2, and b^pi alone for 2.3, so its a^pi is never formed)."""
    idempotents = (("a^pi", "a_dr"), ("b^pi", "b_dr"))
    return {"a": a, "b": b, **{name: oracles[key].pi for name, key in idempotents if name in named}}


def _refusal(c: FactorCheck) -> str:
    # a scalar condition names lambda on its right-hand side
    scalar = "lambda" in c.condition.partition(" = ")[2]
    return f"{c.condition} ({'not a scalar multiple, ' if scalar else ''}residual {c.residual:.3e})"


def require_hypothesis(checks: list[FactorCheck]) -> None:
    """Raise PreconditionViolated naming every failing condition and its
    residual; every guarded route refuses through this one helper."""
    failing = [_refusal(c) for c in checks if not c.holds]
    if failing:
        raise PreconditionViolated("hypothesis fails: " + "; ".join(failing))


def nilpotent_sum_closure(a: np.ndarray, b: np.ndarray, lam: complex | None = None) -> bool:
    """Decide whether a + b is quasinilpotent, given that a and b are and
    that a b = lambda * b a for some nonzero scalar: ``evaluation.solve``
    on target 2.2.

    Raises
    ------
    PreconditionViolated
        If a or b fails the quasinilpotency test, or a b is not a scalar
        multiple of b a.
    """
    from .evaluation import solve  # evaluation imports this module

    return solve("2.2", {"a": a, "b": b}, lam)


def drazin_sum_nilpotent(
    a: np.ndarray, b: np.ndarray, lam: complex | None = None, force: bool = False
) -> np.ndarray:
    """Drazin inverse of a + b when a is quasinilpotent and
    a b = lambda * b a b^pi: ``evaluation.solve`` on target 2.3.

    Under the hypothesis the inverse is

        (a + b)^d = b^d + sum_{n >= 0} (b^d)^(n+2) a (a + b)^n,

    which is sum_formula at the data solve gives a, a^d = 0 and a^pi = I.
    ``lam`` and ``force`` are as for drazin_sum. PreconditionViolated
    if (without force) a is not quasinilpotent or the hypothesis fails;
    ConvergenceError if the series fails to terminate within 2 * dim + 2
    terms.
    """
    from .evaluation import solve  # evaluation imports this module

    return solve("2.3", {"a": a, "b": b}, lam, force)


def drazin_sum(
    a: np.ndarray, b: np.ndarray, lam: complex | None = None, force: bool = False
) -> np.ndarray:
    """Drazin inverse of a + b under a b = lambda * a^pi b a b^pi:
    ``evaluation.solve`` on target 2.4, which checks the hypothesis on the
    oracle's data of a and b and runs sum_formula on that data.

    Parameters
    ----------
    a, b : ndarray
        Square matrices of equal shape.
    lam : complex, optional
        Fixed scalar for the hypothesis; None fits it.
    force : bool
        Evaluate despite a failing hypothesis. The output then carries no
        guarantee; validate it with check_drazin_axioms.

    Raises
    ------
    PreconditionViolated
        If (without force) the hypothesis fails.
    ConvergenceError
        If a series that is formed fails to terminate within the cap.
    """
    from .evaluation import solve  # evaluation imports this module

    return solve("2.4", {"a": a, "b": b}, lam, force)


def sum_formula(a: np.ndarray, b: np.ndarray, a_dr: DrazinResult, b_dr: DrazinResult) -> np.ndarray:
    """The sum formula of theorem 2.4 on the Drazin data (d, pi) of a and b,
    ``a_dr`` and ``b_dr`` (the index is not read); it checks no hypothesis.
    A quasinilpotent operand's data is DrazinResult.nilpotent, (0, I).

    Under a b = lambda * a^pi b a b^pi the result is (a + b)^d. It combines
    the corner inverses with four terminating series (m = a + b throughout):

        (a + b)^d = b^pi a^d + b^d a^pi
                  + sum_n (b^d)^(n+2) a m^n a^pi
                  + sum_n b^pi m^n b (a^d)^(n+2)
                  - sum_n sum_k (b^d)^(k+1) a m^(n+k) b (a^d)^(n+2)
                  - sum_n (b^d)^(n+2) a m^n b a^d

    with every index running from 0. All series obey the shared truncation
    policy (cap 2 * dim + 2, early exit on two consecutive tiny terms).

    When a^d is exactly zero (theorem 2.3's quasinilpotent a, or a rule
    3.1/3.2 splitting whose corner Q has Q^d = 0), a^pi = I - a a^d is the
    identity, and the display reduces to b^d plus the first series without
    its trailing a^pi: every term of the other three carries a power of
    a^d, so they sum to exactly zero and are not formed, and cannot raise
    ConvergenceError either. Likewise, when b^d is exactly zero (a rule
    3.3/3.4/4.3 splitting whose Q^d = 0) the result is a^d plus the second
    series without its leading b^pi. When both are zero, every term of every
    series is zero, and the result is the zero matrix, returned at once with
    no series formed. No idempotent is read on these routes, and multiplying by the identity is
    exact, so they give the bits of the full display.

    The result is one running total, added in the order of the display
    above; the series are formed in the order 1, 2, 4, 3, so a forced run
    raises the ConvergenceError of the first of them that fails. A product
    lives only until its last reader has run: a single series holds a fixed
    number of arrays however many terms it takes. The four-series run
    releases a^pi once series 1 has run, b^pi once series 2 has run, the
    operand a once series 4 has formed a b, and each (a^d)^(n+2) once
    series 3's outer term n has read it; it keeps the powers of b^d, which
    every inner sum of series 3 rereads from the first. A caller that hands
    over its operand a and both data as temporaries, with no name of its
    own for them, lets them go at these points, since the engine drops its
    own references to the data once it has read their parts. That takes
    CPython 3.11 or later: 3.10 keeps a call's arguments on the caller's
    stack until the call returns.

    a and b are checked as square_pair checks them, with finiteness read off
    the norms that the series scale max(1, ||a||, ||b||) needs (the
    finite-norm rule of ``linalg``); ``summed`` forms the tail band
    EPS_TAIL * scale from it. ConvergenceError if a series that is formed
    fails to terminate within the cap.
    """
    (a, a_norm), (b, b_norm) = checked_norm(a), checked_norm(b)
    _same_square(a, b)

    dim = a.shape[0]
    scale = max(1.0, a_norm, b_norm)  # scale_of(a, b)
    nmax = series_cap(dim)
    ad, bd = a_dr.d, b_dr.d
    a_zero, b_zero = not ad.any(), not bd.any()
    if a_zero and b_zero:
        return np.zeros((dim, dim), dtype=complex)
    # the four-series route reads both idempotents, formed before any
    # product; None is the identity of a single-series route. The data go
    # with their parts: a cached idempotent would outlive its last reader
    a_pi, b_pi = (None, None) if a_zero or b_zero else (a_dr.pi, b_dr.pi)
    del a_dr, b_dr
    # Each product of the series is formed once and lives until its last
    # reader has run. a m^n goes once a m^n b exists; a m^j b, read by
    # series 4 and by every inner sum of series 3 that starts at or below j,
    # goes once the outer index of series 3 passes j; m^n b, read by series
    # 2 alone, is its running product. The powers of b^d are reread by every
    # inner sum of series 3 and stay; (a^d)^(n+2), read by series 2 and last
    # by the outer term n of series 3, goes after that term. When one series
    # is all that is formed, it reads each of its powers once and drops it
    # after its term.
    m = a + b
    am = PowerCache(m, start=a)
    del a  # am holds it, as a m^0, until its last reader has run
    amb = {}
    ad_pow = None if a_zero else PowerCache(ad)
    bd_pow = None if b_zero else PowerCache(bd)

    def amb_at(j):
        if j not in amb:
            amb[j] = am(j) @ b
            am.drop(j)
        return amb[j]

    def s3_terms():
        n = 0
        while True:
            if a_pi is None:  # a^pi = I, and this series is the only one
                yield bd_pow(n + 2) @ am(n)
                bd_pow.drop(n + 2)
                am.drop(n)
            else:
                yield bd_pow(n + 2) @ am(n) @ a_pi
            n += 1

    def s4_terms():
        n, mb = 0, b  # mb = m^n b
        while True:
            if b_pi is None:  # b^pi = I, and this series is the only one
                yield mb @ ad_pow(n + 2)
                ad_pow.drop(n + 2)
            else:
                yield b_pi @ mb @ ad_pow(n + 2)
            n, mb = n + 1, m @ mb

    def s6_terms():
        n = 0
        while True:
            yield bd_pow(n + 2) @ amb_at(n) @ ad_pow(1)
            n += 1

    def s5_inner_terms(n):
        k = 0
        while True:
            yield bd_pow(k + 1) @ amb_at(n + k)
            k += 1

    def s5_terms():
        n = 0
        while True:
            yield summed(s5_inner_terms(n), nmax, scale, "sum formula series 3 (inner)") @ ad_pow(n + 2)
            del amb[n]  # every later inner sum starts past n
            ad_pow.drop(n + 2)
            n += 1

    if a_zero:
        # head b^pi 0 + b^d I = b^d; series 1 alone, added to the head in
        # the other order, which gives the same bits
        total = summed(s3_terms(), nmax, scale, "sum formula series 1")
        total += bd
        return total
    if b_zero:
        # head I a^d + 0 a^pi = a^d; series 2 alone
        total = summed(s4_terms(), nmax, scale, "sum formula series 2")
        total += ad
        return total
    # one running total, added in the order head + s3 + s4 - s5 - s6
    total = b_pi @ ad_pow(1) + bd_pow(1) @ a_pi
    total += summed(s3_terms(), nmax, scale, "sum formula series 1")
    del a_pi  # series 1 was its last reader
    total += summed(s4_terms(), nmax, scale, "sum formula series 2")
    del b_pi  # series 2 was its last reader
    s6 = summed(s6_terms(), nmax, scale, "sum formula series 4")
    total -= summed(s5_terms(), nmax, scale, "sum formula series 3 (outer)")
    total -= s6
    return total
