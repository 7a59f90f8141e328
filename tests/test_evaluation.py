"""The evaluation route: conditions, then closure or formula against the oracle."""

import numpy as np
import pytest

from gdrazin import (
    DEFAULT_TOL,
    TARGETS,
    CaseSpec,
    assemble,
    block_drazin,
    certify,
    drazin_oracle,
    drazin_sum,
    evaluate,
    fro_norm,
    generate,
    scale_of,
)
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
    if case.kind == "pair":
        formula = drazin_sum(*case.pair, lam=lam)
    else:
        formula = block_drazin(case.blocks, target, lam=lam)
    assert np.array_equal(out.formula, formula)
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


def test_kind_follows_the_target():
    assert {target_kind(t) for t in TARGETS[:3]} == {"pair"}
    assert {target_kind(t) for t in TARGETS[3:]} == {"block"}
    for target in ("2.4", "4.3"):
        assert generate(CaseSpec(target, dim=3, lam=2.0)).kind == target_kind(target)
