"""The evaluation route: conditions, then closure or formula against the oracle."""

import re

import numpy as np
import pytest

import gdrazin.additive
import gdrazin.blockmat
import gdrazin.evaluation
from gdrazin import (
    DEFAULT_TOL,
    TARGETS,
    CaseSpec,
    assemble,
    block_drazin,
    certify,
    drazin_oracle,
    drazin_sum,
    drazin_sum_nilpotent,
    evaluate,
    fro_norm,
    generate,
    scale_of,
)
from gdrazin.additive import check_pair_hypothesis, pair_oracles
from gdrazin.blockmat import block_oracles, check_hypothesis
from gdrazin.evaluation import target_kind

SOLVED = [t for t in TARGETS if t != "2.2"]


@pytest.mark.parametrize("target", SOLVED)
@pytest.mark.parametrize("lam", [0.5, None])
def test_valid_instance_matches_the_oracle(target, lam):
    case = generate(CaseSpec(target, dim=6, lam=0.5, seed=1))
    out = evaluate(target, case.matrices, lam)
    assert out.conditions == certify(target, case.matrices, lam)
    assert out.failing == [] and out.error is None and out.closed is None
    m = case.pair[0] + case.pair[1] if case.kind == "pair" else assemble(case.blocks)
    assert np.array_equal(out.m, m)
    # one oracle set handed to the rows and to the formula route gives the
    # bytes the route gives on the set it computes itself
    if case.kind == "pair":
        # and 2.3's shortcut (a^d = 0, a^pi = I) agrees with the general
        # route, which runs the oracle on the quasinilpotent a
        assert out.formula.tobytes() == drazin_sum(*case.pair, lam=lam).tobytes()
        oracles = pair_oracles(target, *case.pair)
        rows = check_pair_hypothesis(*case.pair, target, lam=lam, oracles=oracles)
        assert rows == check_pair_hypothesis(*case.pair, target, lam=lam)
        route = drazin_sum_nilpotent if target == "2.3" else drazin_sum
        formula = route(*case.pair, lam=lam, oracles=oracles)
        assert formula.tobytes() == route(*case.pair, lam=lam).tobytes()
    else:
        oracles = block_oracles(case.blocks, target)
        rows = check_hypothesis(case.blocks, target, lam=lam, oracles=oracles)
        assert rows == check_hypothesis(case.blocks, target, lam=lam)
        formula = block_drazin(case.blocks, target, lam=lam, oracles=oracles)
        assert formula.tobytes() == block_drazin(case.blocks, target, lam=lam).tobytes()
    assert out.conditions == tuple(rows)
    assert out.formula.tobytes() == formula.tobytes()
    assert np.array_equal(out.oracle.d, drazin_oracle(m).d)
    assert out.gap == fro_norm(out.formula - out.oracle.d)
    assert out.bound == DEFAULT_TOL.eps_match * scale_of(*case.matrices.values())
    assert out.gap <= out.bound


@pytest.mark.parametrize("target", TARGETS)
def test_negated_instance_stops_at_the_conditions(target):
    case = generate(CaseSpec(target, dim=5, lam=3.0, seed=2, negate=True))
    out = evaluate(target, case.matrices, 3.0)
    assert [c.condition for c in out.failing] == [case.broken]
    assert (out.closed, out.formula, out.m, out.oracle, out.gap, out.bound) == (None,) * 6

    forced = evaluate(target, case.matrices, 3.0, force=True)
    assert forced.failing == out.failing
    if target == "2.2":
        assert forced.closed is False and forced.formula is None
    else:
        # a forced series may fail to terminate; then error says so
        assert forced.closed is None
        assert (forced.gap is None) == (forced.error is not None)


def test_closure_verdict():
    case = generate(CaseSpec("2.2", dim=6, lam=1j, seed=0))
    out = evaluate("2.2", case.matrices, 1j)
    assert out.closed is True and out.failing == []
    assert out.formula is None and out.gap is None


@pytest.mark.parametrize("judge", [evaluate, certify])
@pytest.mark.parametrize("target", ["9.9", "pair", "block", ""])
def test_unknown_target_is_refused(judge, target):
    mats = {"a": np.eye(2), "b": np.eye(2)}
    with pytest.raises(ValueError, match="unknown target"):
        judge(target, mats, 1.0)


@pytest.mark.parametrize("target", TARGETS)
def test_oracle_runs_once_per_datum(target, monkeypatch):
    case = generate(CaseSpec(target, dim=6, lam=0.5, seed=1))
    ran = []

    def counting(m, tol):
        ran.append(m)
        return drazin_oracle(m, tol)

    for module in (gdrazin.additive, gdrazin.blockmat, gdrazin.evaluation):
        monkeypatch.setattr(module, "drazin_oracle", counting)
    out = evaluate(target, case.matrices, 0.5)
    assert out.failing == []
    # on a and b as the target needs them (none on the quasinilpotent a of
    # 2.3, none at all for 2.2), on the block corners A and D and, for 3.1
    # and 3.3, on B C; then on the matrix the formula inverts
    if case.kind == "pair":
        a, b = case.pair
        want = {"2.2": [], "2.3": [b, a + b], "2.4": [a, b, a + b]}[target]
    else:
        blocks = case.blocks
        corner = [blocks.b @ blocks.c] if target in ("3.1", "3.3") else []
        want = [blocks.a, blocks.d, *corner, assemble(blocks)]
    assert len(ran) == len(want) and all(map(np.array_equal, ran, want))


@pytest.mark.parametrize("judge", [evaluate, certify])
@pytest.mark.parametrize("target,keys", [("2.4", "abc"), ("2.4", "a"), ("4.3", "abc"), ("4.3", "abcde")])
def test_operands_that_do_not_fit_the_target_are_refused(judge, target, keys):
    # an extra matrix would widen the match bound, which scales with every
    # operand; a missing one leaves an operand unread
    mats = generate(CaseSpec(target, 4, 0.5, 0)).matrices
    mats = {k: mats.get(k, 1e6 * np.eye(4)) for k in keys}
    want = "['a', 'b']" if target == "2.4" else "['a', 'b', 'c', 'd']"
    with pytest.raises(ValueError, match=re.escape(f"takes operands {want}, got {list(keys)}")):
        judge(target, mats, 0.5)


def test_kind_follows_the_target():
    assert {target_kind(t) for t in TARGETS[:3]} == {"pair"}
    assert {target_kind(t) for t in TARGETS[3:]} == {"block"}
    for target in ("2.4", "4.3"):
        assert generate(CaseSpec(target, dim=3, lam=2.0)).kind == target_kind(target)
