"""The working set of a request: each product of a series lives only until
its last reader has run, so a request's peak is a few arrays over its
operands and oracle data, and a series that runs to its cap holds no more
than one that stops early. Peaks are tracemalloc's, counted in n x n complex
arrays with n the size of the assembled matrix; they are exact and
repeatable for a given numpy.

block_formula hands its splitting parts P and Q and their data to
sum_formula as temporaries, which the engine releases after their last
reader. CPython 3.10 keeps a call's temporary arguments on the caller's
stack until the call returns, so there the parts live through the whole
run; from 3.11 the callee holds the only reference. Bounds given as a pair
are (any interpreter, from CPython 3.11)."""

import sys
import tracemalloc

import numpy as np
import pytest

import gdrazin.blockmat
from gdrazin import CaseSpec, ConvergenceError, generate
from gdrazin.blockmat import block_formula, block_oracles
from gdrazin.evaluation import evaluate
from helpers import LAMBDAS, is_unformed_nilpotent


def bound(pair):
    """The bound of a pair (any interpreter, from CPython 3.11) that holds
    on this interpreter."""
    return pair[sys.version_info >= (3, 11)]


def peak_arrays(fn, n):
    """fn(), and its peak of traced memory over what was live when it
    started, in n x n complex arrays."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, peak / (n * n * np.dtype(complex).itemsize)


# Most arrays block_formula may hold at once on a valid dim-16 instance,
# counted with its operands, oracle data and splitting parts already live:
# 4.1 and 4.2 form four series, as do 3.1 and 3.3 when B C is invertible
# (these instances), and 3.2, 3.4 and 4.3 form one, on Q^d = 0 and Q^pi = I
# taken by identity. The idempotents A^pi and D^pi, which the rows would
# have read first, are formed in here. The four-series run releases the
# splitting operand and both idempotents of the parts; the judge's Q data
# of 3.1 and 3.3 stays with the judge.
BLOCK_PEAKS = {
    "4.1": (20, 17.5), "4.2": (20, 17.5), "3.1": (18, 16.5), "3.3": (18, 15.5),
    "3.2": (10, 10), "3.4": (10, 10), "4.3": (10, 10),
}


@pytest.mark.parametrize("rule", sorted(BLOCK_PEAKS))
def test_block_formula_peak(rule):
    blocks = generate(CaseSpec(rule, 16, 0.5, 0)).blocks
    oracles = block_oracles(blocks, rule)
    _, peak = peak_arrays(lambda: block_formula(blocks, rule, **oracles), 32)
    assert peak <= bound(BLOCK_PEAKS[rule])


def test_a_valid_4_1_request_forms_no_corner_data_in_its_judge():
    # 4.1's splitting builds its own corner data, so the judge forms none
    # for Q = [[0, B], [C, 0]], whose data is the unformed (0, I): the whole
    # request, rows, formula and the oracle on the assembled matrix, holds
    # less than one array more than the splitting
    case = generate(CaseSpec("4.1", 16, 0.5, 0))
    assert is_unformed_nilpotent(block_oracles(case.blocks, "4.1")["q_dr"], 32)
    out, peak = peak_arrays(lambda: evaluate("4.1", case.matrices, 0.5), 32)
    assert out.gap <= out.bound
    assert peak <= bound((21, 18))


@pytest.mark.parametrize("rule", ["3.1", "3.3"])
def test_a_valid_request_keeps_the_q_data_its_judge_forms(rule):
    # the judge forms the data of Q = [[0, B], [C, 0]] for its rows, and
    # holds it through the formula: the request peaks less than three
    # arrays over the splitting
    case = generate(CaseSpec(rule, 16, 0.5, 0))
    assert not is_unformed_nilpotent(block_oracles(case.blocks, rule)["q_dr"], 32)
    out, peak = peak_arrays(lambda: evaluate(rule, case.matrices, 0.5), 32)
    assert out.gap <= out.bound
    assert peak <= bound((21, 19))


def _formula_bits(blocks, rule):
    """The bytes of block_formula on the oracle data, or its ConvergenceError."""
    try:
        return block_formula(blocks, rule, **block_oracles(blocks, rule)).tobytes()
    except ConvergenceError as exc:
        return str(exc)


@pytest.mark.parametrize("rule", ["3.1", "3.3", "4.1", "4.2"])
def test_releasing_the_splitting_parts_changes_no_bit(rule, monkeypatch):
    # the four-series rules on valid and negated instances (the negated ones
    # run as forced: block_formula checks no hypothesis), once as they run
    # and once with every splitting part and its data held here until the
    # end: when a part is released must never change the arithmetic
    cases = [generate(CaseSpec(rule, dim, lam, 0, negate=negate)).blocks
             for dim in range(2, 9) for lam in LAMBDAS for negate in (False, True)]
    released = [_formula_bits(blocks, rule) for blocks in cases]
    real, held = gdrazin.blockmat.sum_formula, []

    def holding(*parts):
        held.append(parts)
        return real(*parts)

    monkeypatch.setattr(gdrazin.blockmat, "sum_formula", holding)
    assert [_formula_bits(blocks, rule) for blocks in cases] == released
    assert len(held) == len(cases)


@pytest.mark.parametrize("dim", [8, 16])
@pytest.mark.parametrize("rule", ["3.2", "3.4", "4.3"])
def test_a_forced_single_series_run_holds_a_fixed_working_set(rule, dim):
    # Q^d = 0 for these splittings, so one series is formed, and on the
    # negated instance it runs to its cap of 2 * (2 dim) + 2 terms; the
    # bound is the same at both sizes, so it does not grow with the terms
    mats = generate(CaseSpec(rule, dim, 0.5, 2, negate=True)).matrices
    out, peak = peak_arrays(lambda: evaluate(rule, mats, 0.5, force=True), 2 * dim)
    assert out.error.startswith("sum formula series ")
    assert out.error.endswith(f"after {4 * dim + 2} terms")
    assert peak <= 13
