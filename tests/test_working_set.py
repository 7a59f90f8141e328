"""The working set of a request: each product of a series lives only until
its last reader has run, so a request's peak is a few arrays over its
operands and oracle data, and a series that runs to its cap holds no more
than one that stops early. Peaks are tracemalloc's, counted in n x n complex
arrays with n the size of the assembled matrix; they are exact and
repeatable for a given numpy."""

import tracemalloc

import numpy as np
import pytest

from gdrazin import CaseSpec, generate
from gdrazin.blockmat import block_formula, block_oracles
from gdrazin.evaluation import evaluate
from helpers import is_unformed_nilpotent


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
# have read first, are formed in here.
BLOCK_PEAKS = {"4.1": 21, "4.2": 21, "3.1": 20, "3.3": 20, "3.2": 10, "3.4": 10, "4.3": 10}


@pytest.mark.parametrize("rule", sorted(BLOCK_PEAKS))
def test_block_formula_peak(rule):
    blocks = generate(CaseSpec(rule, 16, 0.5, 0)).blocks
    oracles = block_oracles(blocks, rule)
    _, peak = peak_arrays(lambda: block_formula(blocks, rule, **oracles), 32)
    assert peak <= BLOCK_PEAKS[rule]


def test_a_valid_4_1_request_forms_no_corner_data_in_its_judge():
    # 4.1's splitting builds its own corner data, so the judge forms none
    # for Q = [[0, B], [C, 0]], whose data is the unformed (0, I): the whole
    # request, rows, formula and the oracle on the assembled matrix, holds
    # fewer arrays than the splitting plus a size-2 dim copy of Q's data
    case = generate(CaseSpec("4.1", 16, 0.5, 0))
    assert is_unformed_nilpotent(block_oracles(case.blocks, "4.1")["q_dr"], 32)
    out, peak = peak_arrays(lambda: evaluate("4.1", case.matrices, 0.5), 32)
    assert out.gap <= out.bound
    assert peak <= 22


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
