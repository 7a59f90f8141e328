"""Pierce corners, triangular-split inversion, and the product-exchange rule."""

import numpy as np
import pytest

from gdrazin import (
    NotIdempotent,
    NotTriangular,
    cline_drazin,
    check_drazin_axioms,
    drazin_oracle,
    pierce_split,
    triangular_drazin,
)
from helpers import oblique_idempotent, rectangular_pair, triangular_instance


def test_pierce_corners_reconstruct_and_absorb():
    rng = np.random.default_rng(2)
    p, _ = oblique_idempotent(5, 2, rng)
    x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    sp = pierce_split(x, p)
    assert np.allclose(sp.pp + sp.pq + sp.qp + sp.qq, x, atol=1e-12)
    q = np.eye(5) - p
    assert np.allclose(p @ sp.pp, sp.pp, atol=1e-12)
    assert np.allclose(sp.pp @ p, sp.pp, atol=1e-12)
    assert np.allclose(p @ sp.pq, sp.pq, atol=1e-12)
    assert np.allclose(sp.pq @ q, sp.pq, atol=1e-12)
    assert np.allclose(q @ sp.qp @ p, sp.qp, atol=1e-12)
    assert np.allclose(q @ sp.qq @ q, sp.qq, atol=1e-12)


def test_pierce_rejects_non_idempotent():
    x = np.eye(3)
    with pytest.raises(NotIdempotent):
        pierce_split(x, 0.5 * np.eye(3))


def test_pierce_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        pierce_split(np.eye(3), np.eye(4))


@pytest.mark.parametrize("orientation", ["lower", "upper"])
@pytest.mark.parametrize("seed", range(12))
def test_triangular_matches_oracle(orientation, seed):
    rng = np.random.default_rng(seed)
    n = 3 + seed % 6
    x, p = triangular_instance(n, rng, orientation)
    got = triangular_drazin(x, p)
    want = drazin_oracle(x).d
    scale = max(1.0, np.linalg.norm(x))
    assert np.linalg.norm(got - want) < 1e-8 * scale
    assert check_drazin_axioms(x, got).ok


def test_triangular_needs_a_vanishing_off_corner():
    # neither p x (1-p) nor (1-p) x p is small: x is not triangular
    rng = np.random.default_rng(9)
    p, _ = oblique_idempotent(5, 2, rng)
    x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    split = pierce_split(x, p)
    assert min(np.linalg.norm(split.pq), np.linalg.norm(split.qp)) > 1e-3
    with pytest.raises(NotTriangular, match="off-corner norms"):
        triangular_drazin(x, p)


def test_triangular_handles_nilpotent_diagonal_corner():
    # pp corner strictly nilpotent: the coupling series carries everything
    p = np.zeros((4, 4), dtype=complex)
    p[:2, :2] = np.eye(2)
    x = np.zeros((4, 4), dtype=complex)
    x[0, 1] = 1.0  # nilpotent in the p-corner
    x[2:, 2:] = [[2.0, 0.0], [0.0, 3.0]]
    x[2:, :2] = [[1.0, 1.0], [0.0, 1.0]]
    got = triangular_drazin(x, p)
    want = drazin_oracle(x).d
    assert np.linalg.norm(got - want) < 1e-10


@pytest.mark.parametrize("shape", [(4, 4), (5, 3), (3, 5), (2, 7)])
def test_cline_matches_oracle(shape):
    m, n = shape
    rng = np.random.default_rng(m * 10 + n)
    a, b = rectangular_pair(m, n, rng)
    got = cline_drazin(a, b)
    want = drazin_oracle(a @ b).d
    assert got.shape == (m, m)
    assert np.linalg.norm(got - want) < 1e-8


def test_cline_relates_both_products():
    # the relation is symmetric: (ba)^d = b ((ab)^d)^2 a
    rng = np.random.default_rng(4)
    a, b = rectangular_pair(5, 3, rng)
    ab_d = cline_drazin(a, b)
    ba_d = drazin_oracle(b @ a).d
    assert np.linalg.norm(b @ ab_d @ ab_d @ a - ba_d) < 1e-9


def test_cline_rejects_non_conformable():
    with pytest.raises(ValueError):
        cline_drazin(np.zeros((3, 2)), np.zeros((3, 2)))
