"""Series policy: cap, early exit, divergence reporting."""

import numpy as np
import pytest

from gdrazin import ConvergenceError
from gdrazin.series import PowerCache, series_cap, summed


def test_series_cap():
    assert series_cap(3) == 8
    assert series_cap(8) == 18


def test_power_cache():
    a = np.array([[1, 1], [0, 1]], dtype=complex)
    pc = PowerCache(a)
    assert np.array_equal(pc(1), a)
    assert np.array_equal(pc(4), np.linalg.matrix_power(a, 4))
    # memoized object is returned, not recomputed
    assert pc(4) is pc(4)
    # with a left factor: start a^i, start itself at i = 0
    start = np.array([[2, 0], [1, 3]], dtype=complex)
    sc = PowerCache(a, start=start)
    assert sc(0) is start
    assert np.array_equal(sc(3), start @ np.linalg.matrix_power(a, 3))


def test_power_cache_drop():
    a = np.array([[1, 2], [0, 1]], dtype=complex)
    pc = PowerCache(a)
    pc(2)
    pc.drop(2)
    with pytest.raises(KeyError):
        pc(2)
    # the highest power stays the base of the next one after its drop
    assert np.array_equal(pc(4), np.linalg.matrix_power(a, 4))
    sc = PowerCache(a, start=2 * a)
    sc.drop(0)
    assert np.array_equal(sc(1), 2 * a @ a)


def test_summed_early_exit_counts_terms():
    calls = []

    def terms():
        i = 0
        while True:
            calls.append(i)
            yield np.zeros((2, 2)) if i >= 1 else np.eye(2)
            i += 1

    out = summed(terms(), nmax=50, scale=1.0, label="t")
    assert np.array_equal(out, np.eye(2))
    # one big term, then two consecutive tiny ones stop the scan
    assert len(calls) == 3


def test_summed_raises_on_divergence():
    calls = []

    def terms():
        while True:
            calls.append(len(calls))
            yield np.ones((2, 2))

    with pytest.raises(ConvergenceError, match="stubborn series"):
        summed(terms(), nmax=6, scale=1.0, label="stubborn series")
    # the cap ends the endless stream: no term past it is formed
    assert len(calls) == 6


def test_summed_forms_the_band_from_the_scale():
    def terms():
        while True:
            yield 1e-10 * np.eye(2)

    # a term norm of 1.414e-10 is above EPS_TAIL * 100 and below EPS_TAIL * 1000
    with pytest.raises(ConvergenceError, match=r"still above 1\.000e-10 after 6 terms"):
        summed(terms(), 6, 100.0, "t")
    assert np.allclose(summed(terms(), 6, 1000.0, "t"), 2e-10 * np.eye(2))


def test_summed_leaves_terms_unchanged():
    seq = [np.eye(2), 2 * np.eye(2)]

    def terms():
        yield from seq
        while True:
            yield np.zeros((2, 2))

    out = summed(terms(), nmax=10, scale=1.0, label="t")
    assert np.array_equal(out, 3 * np.eye(2))
    # the running total is summed's own: the terms are left as they were
    assert np.array_equal(seq[0], np.eye(2)) and np.array_equal(seq[1], 2 * np.eye(2))
