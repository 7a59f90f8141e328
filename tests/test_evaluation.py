"""The evaluation route: conditions, then closure or formula against the oracle."""

import functools
import importlib
import inspect
import re

import numpy as np
import pytest

import gdrazin.additive
import gdrazin.blockmat
import gdrazin.evaluation
from gdrazin import (
    TARGETS,
    CaseSpec,
    ConvergenceError,
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
from gdrazin.additive import (
    _PAIR_CONDITIONS, _pair_factors, check_condition_rows, condition_rows, pair_oracles, sum_formula,
)
from gdrazin.blockmat import _CONDITIONS, _block_factors, block_formula, block_oracles, check_hypothesis
from gdrazin.evaluation import _NAMED, target_kind
from gdrazin.linalg import EPS_MATCH
from helpers import NO_RECIPROCAL, criterion_7_corpus

SOLVED = [t for t in TARGETS if t != "2.2"]

# Every public function of the modules that hold the formula routes.
PUBLIC_FUNCTIONS = [
    f"{module.__name__}.{name}"
    for module in (gdrazin.additive, gdrazin.blockmat, gdrazin.evaluation)
    for name in module.__all__
    if inspect.isfunction(getattr(module, name))
]


@pytest.mark.parametrize("qualname", PUBLIC_FUNCTIONS)
def test_no_public_function_takes_oracle_data(qualname):
    # oracle data is formed by evaluation's judge alone; the engines
    # (sum_formula, block_formula) take named Drazin data, not a set
    module, name = qualname.rsplit(".", 1)
    assert "oracles" not in inspect.signature(getattr(importlib.import_module(module), name)).parameters


def test_another_targets_oracle_data_cannot_reach_a_route():
    # a route handed an oracle set would judge and solve on it: on these
    # valid instances the set of another target gives an inverse 1.25 away
    # from the oracle's, with no refusal
    pair = generate(CaseSpec("2.4", 4, 0.5, 0))
    a, b = pair.pair
    with pytest.raises(TypeError):
        drazin_sum(a, b, lam=0.5, oracles=pair_oracles("2.3", a, b))
    block = generate(CaseSpec("3.1", 4, 0.5, 0))
    with pytest.raises(TypeError):
        block_drazin(block.blocks, "3.1", lam=0.5, oracles=block_oracles(block.blocks, "3.2"))
    for case, got in ((pair, drazin_sum(a, b, lam=0.5)), (block, block_drazin(block.blocks, "3.1", lam=0.5))):
        m = a + b if case is pair else assemble(case.blocks)
        bound = EPS_MATCH * scale_of(*case.matrices.values())
        assert fro_norm(got - drazin_oracle(m).d) <= bound


@pytest.mark.parametrize("target", SOLVED)
@pytest.mark.parametrize("lam", [0.5, None])
def test_valid_instance_matches_the_oracle(target, lam):
    case = generate(CaseSpec(target, dim=6, lam=0.5, seed=1))
    out = evaluate(target, case.matrices, lam)
    assert out.conditions == certify(target, case.matrices, lam)
    assert out.failing == [] and out.error is None and out.closed is None
    m = case.pair[0] + case.pair[1] if case.kind == "pair" else assemble(case.blocks)
    assert np.array_equal(out.m, m)
    # the rows (the target's parsed labels on the factor map of one oracle
    # set) and the engine on that set give the bytes of the library route
    # and of evaluate
    if case.kind == "pair":
        # and 2.3's shortcut (a^d = 0, a^pi = I) agrees with the general
        # route, which runs the oracle on the quasinilpotent a
        assert out.formula.tobytes() == drazin_sum(*case.pair, lam=lam).tobytes()
        oracles = pair_oracles(target, *case.pair)
        rows = check_condition_rows(
            condition_rows(_PAIR_CONDITIONS[target], _pair_factors(*case.pair, _NAMED[target], **oracles)), lam
        )
        formula = sum_formula(*case.pair, **oracles)
        route = drazin_sum_nilpotent if target == "2.3" else drazin_sum
        assert formula.tobytes() == route(*case.pair, lam=lam).tobytes()
    else:
        oracles = block_oracles(case.blocks, target)
        rows = check_condition_rows(
            condition_rows(_CONDITIONS[target], _block_factors(case.blocks, _NAMED[target], **oracles)), lam
        )
        assert rows == check_hypothesis(case.blocks, target, lam=lam)
        formula = block_formula(case.blocks, target, **oracles)
        assert formula.tobytes() == block_drazin(case.blocks, target, lam=lam).tobytes()
    assert out.conditions == tuple(rows)
    assert out.formula.tobytes() == formula.tobytes()
    assert np.array_equal(out.oracle.d, drazin_oracle(m).d)
    assert out.gap == fro_norm(out.formula - out.oracle.d)
    assert out.bound == EPS_MATCH * scale_of(*case.matrices.values())
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


@pytest.mark.parametrize("lam", [1e300, -1e300, 1e-300])
@pytest.mark.parametrize("target", TARGETS)
def test_a_huge_or_tiny_lambda_gives_finite_residuals(target, lam):
    # lam * rhs_base, or (1/lam) * rhs_base, overflowed here: a silent inf
    # residual, with an overflow warning, on rule 3.1 at lam = 1e300
    out = evaluate(target, generate(CaseSpec(target, 4, 0.5, 0)).matrices, lam)
    assert all(np.isfinite(c.residual) for c in out.conditions)


@pytest.mark.parametrize("lam", NO_RECIPROCAL)
@pytest.mark.parametrize("target", TARGETS)
def test_a_lambda_without_a_usable_reciprocal_is_refused(target, lam):
    # one gate for the lambda domain on every target, whether or not it has
    # a (1/lambda) row; the message names the lambda given
    mats = generate(CaseSpec(target, dim=4, lam=0.5, seed=0)).matrices
    message = re.escape(f"lambda must have a finite nonzero reciprocal, got {lam!r}") + "$"
    for judge in (certify, evaluate):
        with pytest.raises(ValueError, match=message):
            judge(target, mats, lam)
    with pytest.raises(ValueError, match=re.escape(f"reciprocal, got {complex(lam)!r}") + "$"):
        CaseSpec(target, dim=4, lam=lam)


@pytest.mark.parametrize("target", TARGETS)
def test_oracle_runs_once_per_datum(target, monkeypatch):
    case = generate(CaseSpec(target, dim=6, lam=0.5, seed=1))
    ran = []

    def counting(m):
        ran.append(m)
        return drazin_oracle(m)

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


@pytest.mark.parametrize("target", SOLVED)
def test_forced_library_route_is_evaluate(target):
    # the criterion-7 corpus, forced: the library route gives the bytes of
    # evaluate's formula, or raises the ConvergenceError evaluate records
    for _, i, lam, case in (x for x in criterion_7_corpus() if x[0] == target):
        out = evaluate(target, case.matrices, lam, force=True)
        if case.kind == "pair":
            route = {"2.3": drazin_sum_nilpotent, "2.4": drazin_sum}[target]
            route = functools.partial(route, *case.pair)
        else:
            route = functools.partial(block_drazin, case.blocks, target)
        if out.formula is None:
            with pytest.raises(ConvergenceError) as err:
                route(lam=lam, force=True)
            assert str(err.value) == out.error, (target, i)
        else:
            assert route(lam=lam, force=True).tobytes() == out.formula.tobytes(), (target, i)
