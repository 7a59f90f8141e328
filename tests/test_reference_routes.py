"""The oracle, the sum series and the hypothesis rows against their
references.

The package forms each power of the oracle and each product of the sum
series once; ``helpers.reference_oracle``, ``reference_sum`` and
``reference_sum_nilpotent`` multiply every factor out as the original route
did. Verdicts (index, refusals, axiom ``ok``) must be identical and every
matrix must agree to 1e-12 relative: regrouping may move only rounding.

One exception: on the mixture sweep, a few index-3 and index-4 matrices give
an a^{2k+1} whose pseudoinverse amplifies rounding to about 1e-12 relative
in either route. Against the exact inverses built from those matrices'
Jordan forms, both routes err by a median 4.8e-13 and at most 3.7e-12, and
their mutual gap (at most 4.0e-12) never exceeds the sum of their errors.
That sweep's inverses are therefore held to REL_ORACLE_FLOOR.

The hypothesis rows are built from their labels; ``helpers.reference_pair_rows``
and ``reference_block_rows`` write them out by hand on the same factor map,
and the two must agree bit for bit.
"""

import numpy as np
import pytest

import gdrazin.additive
import gdrazin.blockmat
import gdrazin.evaluation
from gdrazin import (
    CaseSpec,
    ConvergenceError,
    DrazinResult,
    assemble,
    block_drazin,
    check_drazin_axioms,
    drazin_oracle,
    drazin_sum,
    drazin_sum_nilpotent,
    fro_norm,
    generate,
)
from gdrazin.additive import sum_formula
from gdrazin.casegen import TARGETS
from helpers import (
    LAMBDAS,
    criterion_4_corpus,
    criterion_7_corpus,
    mixture,
    nilpotent,
    reference_axioms_ok,
    reference_block_rows,
    reference_oracle,
    reference_pair_rows,
    reference_sum,
    reference_sum_nilpotent,
)

REL = 1e-12
REL_ORACLE_FLOOR = 1e-11


def outcome(fn, *args, **kwargs):
    """fn's value, or the type of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the refusal itself is what is compared
        return type(exc)


def assert_close(new, ref, where, rel=REL):
    if isinstance(ref, type) or isinstance(new, type):
        assert new is ref, where
        return
    assert fro_norm(new - ref) <= rel * fro_norm(ref), where


def nilpotent_a(a, b_dr):
    """Theorem 2.3's oracle set: the data (0, I) of the quasinilpotent a,
    as pair_oracles gives it, and b's."""
    return {"a_dr": DrazinResult.nilpotent(a.shape[0]), "b_dr": b_dr}


def assert_same_oracle(a, where, rel=REL):
    new, ref = outcome(drazin_oracle, a), outcome(reference_oracle, a)
    assert_close(getattr(new, "d", new), getattr(ref, "d", ref), where, rel)
    if isinstance(ref, DrazinResult):
        assert new.index == ref.index, where
        ok = check_drazin_axioms(a, new.d, index=new.index).ok
        assert ok == reference_axioms_ok(a, ref.d, ref.index), where


def test_oracle_matches_reference_on_mixture_sweep():
    # the matrices of the acceptance gate's oracle sweep
    for seed in range(500):
        a = mixture(2 + seed % 11, np.random.default_rng(seed))
        assert_same_oracle(a, seed, REL_ORACLE_FLOOR)


def _reference_block_drazin(monkeypatch, blocks, target, lam):
    with monkeypatch.context() as mp:
        mp.setattr(gdrazin.blockmat, "drazin_oracle", reference_oracle)
        mp.setattr(gdrazin.additive, "drazin_oracle", reference_oracle)
        mp.setattr(gdrazin.blockmat, "sum_formula", reference_sum)
        return outcome(block_drazin, blocks, target, lam=lam)


@pytest.mark.parametrize("target", [t for t in TARGETS if t != "2.2"])
def test_criterion_4_corpus_matches_reference(target, monkeypatch):
    for _, i, lam, case in (x for x in criterion_4_corpus() if x[0] == target):
        where = (target, i)
        if case.kind == "pair":
            a, b = case.pair
            assert_same_oracle(a + b, where)
            b_dr = reference_oracle(b)
            if target == "2.3":
                new = outcome(drazin_sum_nilpotent, a, b, lam=lam)
                ref = outcome(reference_sum_nilpotent, a, b, b_dr)
            else:
                new = outcome(drazin_sum, a, b, lam=lam)
                ref = outcome(reference_sum, a, b, reference_oracle(a), b_dr)
        else:
            assert_same_oracle(assemble(case.blocks), where)
            new = outcome(block_drazin, case.blocks, target, lam=lam)
            ref = _reference_block_drazin(monkeypatch, case.blocks, target, lam)
        assert_close(new, ref, where)


def _label_and_reference_rows(target, mats):
    """The rows built from the target's labels and the hand-written
    reference rows, both on the factor map the package builds."""
    if target in gdrazin.additive.PAIR_TARGETS:
        a, b = gdrazin.additive.square_pair(mats["a"], mats["b"])
        oracles = gdrazin.additive.pair_oracles(target, a, b)
        factors = gdrazin.additive._pair_factors(a, b, gdrazin.evaluation._NAMED[target], **oracles)
        conditions, reference = gdrazin.additive._PAIR_CONDITIONS[target], reference_pair_rows
    else:
        blocks = gdrazin.blockmat.Block2x2(**mats)
        oracles = gdrazin.blockmat.block_oracles(blocks, target)
        factors = gdrazin.blockmat._block_factors(blocks, gdrazin.evaluation._NAMED[target], **oracles)
        conditions, reference = gdrazin.blockmat._CONDITIONS[target], reference_block_rows
    return gdrazin.additive.condition_rows(conditions, factors), reference(target, factors)


def _row_bits(row):
    label, lhs, rhs, power = row
    return label, lhs.tobytes(), None if rhs is None else rhs.tobytes(), power


@pytest.mark.parametrize("target", TARGETS)
def test_label_rows_match_reference_bit_for_bit(target):
    # the criterion-7 corpus (negated instances) and the criterion-4 corpus
    # (valid instances; none for 2.2)
    for _, _, _, case in (x for x in criterion_7_corpus() + criterion_4_corpus() if x[0] == target):
        rows, ref = _label_and_reference_rows(target, case.matrices)
        assert [_row_bits(r) for r in rows] == [_row_bits(r) for r in ref], case.spec


def test_forced_series_match_reference():
    # Forced runs carry series terms above rounding level, which valid
    # instances never do.
    for target in ("2.3", "2.4"):
        for i in range(100):
            case = generate(
                CaseSpec(target, dim=2 + i % 7, lam=LAMBDAS[i % 4], seed=i // 4, negate=True)
            )
            a, b = case.pair
            a_dr, b_dr = reference_oracle(a), reference_oracle(b)
            if target == "2.3":
                new = outcome(sum_formula, a, b, **nilpotent_a(a, b_dr))
                ref = outcome(reference_sum_nilpotent, a, b, b_dr)
            else:
                new = outcome(sum_formula, a, b, a_dr, b_dr)
                ref = outcome(reference_sum, a, b, a_dr, b_dr)
            assert_close(new, ref, (target, i))
    # Nilpotent stand-ins for the inverses make every series run to its
    # natural end, the double series included.
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 9
        a, b = 0.5 * nilpotent(n, rng), 0.5 * nilpotent(n, rng)
        a_dr, b_dr = (
            DrazinResult(0.6 * nilpotent(n, rng), mixture(n, rng) / n, None) for _ in range(2)
        )
        assert_close(sum_formula(a, b, a_dr, b_dr), reference_sum(a, b, a_dr, b_dr), seed)
        assert_close(
            sum_formula(a, b, **nilpotent_a(a, b_dr)), reference_sum_nilpotent(a, b, b_dr), seed
        )


def test_zero_a_drazin_return_matches_reference(monkeypatch):
    # At a^d = 0 sum_formula returns after series 1; the reference still sums
    # all four series, whose other three then vanish exactly. Theorem 2.3
    # always has a^d = 0, the splittings of rules 3.1 and 3.2 whenever
    # Q^d = 0.
    hits = {"3.1": 0, "3.2": 0}
    real_sum = gdrazin.blockmat.sum_formula

    def spy(a, b, a_dr, b_dr):
        new = outcome(real_sum, a, b, a_dr, b_dr)
        if not a_dr.d.any():
            hits[where[0]] += 1
            assert_close(new, outcome(reference_sum, a, b, a_dr, b_dr), where)
        return new

    monkeypatch.setattr(gdrazin.blockmat, "sum_formula", spy)
    for negate in (False, True):
        for i in range(40):
            spec = dict(dim=2 + i % 7, lam=LAMBDAS[i % 4], seed=i // 4, negate=negate)
            where = ("2.3", negate, i)
            a, b = generate(CaseSpec("2.3", **spec)).pair
            oracles = nilpotent_a(a, reference_oracle(b))
            assert_close(
                outcome(sum_formula, a, b, **oracles),
                outcome(reference_sum, a, b, **oracles),
                where,
            )
            # B C = 0 makes Q^d = 0; rule 3.2 instances satisfy rule 3.1 too
            blocks = generate(CaseSpec("3.2", **spec)).blocks
            for target in ("3.1", "3.2"):
                where = (target, negate, i)
                block_drazin(blocks, target, lam=spec["lam"], force=negate)
    assert hits == {"3.1": 80, "3.2": 80}


def test_zero_a_drazin_skips_series_that_cannot_terminate():
    # A valid 2.3 instance scaled by 1e5: an inner sum of the double series
    # stays above the tail bound at the cap (it grows as s^2 against a bound
    # linear in s), so the four-series evaluation raises. That sum is then
    # multiplied by (a^d)^2 = 0, and sum_formula does not form it.
    case = generate(CaseSpec("2.3", dim=4, lam=1j, seed=0))
    a, b = (1e5 * x for x in case.pair)
    oracles = nilpotent_a(a, reference_oracle(b))
    with pytest.raises(ConvergenceError, match="reference series"):
        reference_sum(a, b, **oracles)
    got = sum_formula(a, b, **oracles)
    assert_close(got, reference_sum_nilpotent(a, b, oracles["b_dr"]), "scaled 2.3")
    assert_close(got, drazin_oracle(a + b).d, "scaled 2.3", rel=1e-8)
