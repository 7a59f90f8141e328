"""Tolerance bundle, coercion, norms and powers."""

import numpy as np
import pytest

from gdrazin import Tolerance, fro_norm, scale_of
from gdrazin.linalg import DEFAULT_TOL, as_matrix, mat_power


def test_tolerance_defaults():
    t = Tolerance()
    assert t.eps_rank == 1e-10
    assert t.eps_check == 1e-9
    assert t.eps_match == 1e-8
    assert t.eps_tail == 1e-12
    assert t == DEFAULT_TOL


@pytest.mark.parametrize("field", ["eps_rank", "eps_check", "eps_match", "eps_tail"])
@pytest.mark.parametrize("bad", [0.0, -1e-9, 1.0, 2.5])
def test_tolerance_rejects_out_of_range(field, bad):
    with pytest.raises(ValueError):
        Tolerance(**{field: bad})


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


def test_scale_of_is_at_least_one():
    assert scale_of(np.zeros((2, 2))) == 1.0
    big = 7 * np.eye(3)
    assert scale_of(np.zeros((2, 2)), big) == pytest.approx(np.linalg.norm(big))


def test_mat_power_zero_is_identity():
    a = np.arange(4, dtype=complex).reshape(2, 2)
    assert np.array_equal(mat_power(a, 0), np.eye(2, dtype=complex))
    assert np.allclose(mat_power(a, 3), a @ a @ a)
