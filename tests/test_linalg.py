"""Thresholds, coercion and norms."""

import numpy as np
import pytest

from gdrazin import fro_norm, linalg, scale_of
from gdrazin.linalg import as_matrix, checked_norm


def test_thresholds_are_fixed():
    assert (linalg.EPS_RANK, linalg.EPS_CHECK, linalg.EPS_MATCH, linalg.EPS_TAIL) == (
        1e-10, 1e-9, 1e-8, 1e-12
    )


def test_as_matrix_coerces_lists_to_complex():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)


def test_as_matrix_rejects_non_2d():
    with pytest.raises(ValueError):
        as_matrix(np.zeros(3))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 2, 2)))


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0], [0, 1]])


def test_fro_norm_matches_numpy():
    a = np.array([[3, 4j], [0, 0]], dtype=complex)
    assert fro_norm(a) == pytest.approx(np.linalg.norm(a))


def test_checked_norm_is_as_matrix_and_its_norm():
    a = np.array([[3, 4j], [0, 1]], dtype=complex)
    m, norm = checked_norm(a)
    assert m is a and norm == float(np.linalg.norm(a))
    m, norm = checked_norm([[1, 2], [3, 4]])
    assert m.dtype == np.complex128 and norm == float(np.linalg.norm(np.array([[1, 2], [3, 4]])))


@pytest.mark.parametrize("fn", [checked_norm, fro_norm])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
def test_non_finite_entry_fails_the_norm_check(fn, bad):
    m = np.eye(3, dtype=complex)
    m[1, 2] = bad
    with pytest.raises(ValueError, match="matrix contains non-finite entries"):
        fn(m)


@pytest.mark.parametrize("fn", [checked_norm, fro_norm])
@pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 2, 2)), np.zeros((0, 2))])
def test_norm_check_keeps_the_shape_checks(fn, bad):
    with pytest.raises(ValueError, match="2-D|positive"):
        fn(bad)


def test_overflowing_sum_of_squares_gives_the_true_norm():
    # the non-finite norm gets the full scan, which finds every entry finite;
    # the norm is then taken again at a power-of-two scale
    with np.errstate(over="ignore"):
        assert fro_norm(np.full((2, 2), 1e200)) == 2e200
        assert fro_norm(np.full((3, 1), complex(-1e300, 1e300))) == pytest.approx(np.sqrt(6) * 1e300)
        # a power of two scales exactly, so the largest finite float is
        # its own norm, at the edge of the range
        assert checked_norm(np.diag([np.finfo(float).max, 0.0]))[1] == np.finfo(float).max


@pytest.mark.parametrize("fn", [checked_norm, fro_norm, scale_of])
def test_norm_beyond_the_float_range_is_an_error(fn):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="exceeds the float range"):
        fn(np.full((2, 2), 1e308))


def test_scale_of_is_at_least_one():
    assert scale_of(np.zeros((2, 2))) == 1.0
    big = 7 * np.eye(3)
    assert scale_of(np.zeros((2, 2)), big) == pytest.approx(np.linalg.norm(big))
