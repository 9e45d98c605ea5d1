import numpy as np
import pytest

from equimax.losses import GradOutput, LossConfig, gradient, loss_value

from conftest import fd_gradient, interior_matrix, random_matrix

SMOOTH_CONFIGS = [
    LossConfig("ms"),
    LossConfig("cwsm", r=0.0),
    LossConfig("cwsm", r=0.25),
    LossConfig("cwsm", r=0.5),
    LossConfig("cwsm", r=1.0),
    LossConfig("nsm", r=0.0, alpha=1.0, epsilon=0.0),
    LossConfig("nsm", r=0.5, alpha=1.0, epsilon=1e-6),
    LossConfig("nsm", r=0.75, alpha=2.0, epsilon=1e-6),
    LossConfig("nsm", r=1.0, alpha=1.0, epsilon=0.0),
    LossConfig("nsm", r=1.0, alpha=2.0, epsilon=1e-6),
]


def rel_err(analytic, fd, floor):
    return float(np.max(np.abs(analytic - fd) / np.maximum(np.abs(fd), floor)))


@pytest.mark.parametrize("cfg", SMOOTH_CONFIGS, ids=lambda c: f"{c.kind}-r{c.r}-a{c.alpha}")
def test_smooth_losses_match_finite_differences(cfg, rng):
    for _ in range(25):
        mat = interior_matrix(rng, int(rng.integers(2, 7)), int(rng.integers(2, 6)))
        out = gradient(mat, cfg)
        assert out.exact
        assert np.all(np.isfinite(out.grad))
        assert out.grad.shape == mat.shape
        fd = fd_gradient(lambda m: loss_value(m, cfg), mat)
        assert rel_err(out.grad, fd, floor=1e-4) <= 1e-5


def test_bnm_matches_finite_differences(rng):
    cfg = LossConfig("bnm")
    checked = 0
    while checked < 25:
        mat = interior_matrix(rng, int(rng.integers(2, 7)), int(rng.integers(2, 6)))
        out = gradient(mat, cfg)
        if not out.exact:
            continue  # repeated or vanishing singular values: subgradient only
        fd = fd_gradient(lambda m: loss_value(m, cfg), mat)
        assert rel_err(out.grad, fd, floor=1e-3) <= 1e-4
        checked += 1


def test_ms_gradient_uniform():
    out = gradient(np.full((2, 2), 0.5), LossConfig("ms"))
    assert np.allclose(out.grad, -0.5)
    assert out.value == -0.5


def test_cwsm_r0_gradient_closed_form(rng):
    mat = interior_matrix(rng, 4, 3)
    out = gradient(mat, LossConfig("cwsm", r=0.0))
    assert np.allclose(out.grad, -(2.0 / 3.0) * mat, atol=1e-14)


def test_bnm_identity_subgradient():
    out = gradient(np.eye(2), LossConfig("bnm"))
    assert isinstance(out, GradOutput)
    assert not out.exact  # repeated singular values
    # u @ v.T of any valid SVD of I is I itself: subgradient is -I/2
    assert np.allclose(out.grad, -np.eye(2) / 2)


def test_bnm_rank_deficient_flagged(rng):
    out = gradient(np.full((4, 2), 0.5), LossConfig("bnm"))
    assert not out.exact  # vanishing singular value
    assert np.all(np.isfinite(out.grad))


def test_cwsm_zero_mass_class_gradient_is_zero():
    mat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    out = gradient(mat, LossConfig("cwsm", r=0.5))
    assert np.all(out.grad[:, 2] == 0.0)


def test_gradient_value_agrees_with_loss_value(rng):
    for cfg in SMOOTH_CONFIGS + [LossConfig("bnm")]:
        mat = interior_matrix(rng, 4, 3)
        assert abs(gradient(mat, cfg).value - loss_value(mat, cfg)) <= 1e-12


@pytest.mark.parametrize("r", [0.0, 0.5])
def test_nsm_multi_block_matches_dense_formula(r, rng):
    # 300 rows are overlapped in two row blocks (65536 // 300 = 218 rows each)
    mat = random_matrix(rng, 300, 4)
    mat[:100, 2:] = 0.0  # rows on classes {0, 1} and rows on {2, 3}:
    mat[100:200, :2] = 0.0  # their overlaps are exactly zero
    mat /= mat.sum(axis=1, keepdims=True)
    alpha, eps = 1.5, 1e-6
    out = gradient(mat, LossConfig("nsm", r=r, alpha=alpha, epsilon=eps))

    overlap = mat @ mat.T
    np.fill_diagonal(overlap, 0.0)
    pos = overlap > 0.0
    powered = np.where(pos, overlap, 1.0) ** r * pos
    weights = np.where(pos, overlap, 1.0) ** (r - 1.0) * pos
    squares = np.sum(mat * mat)
    denom = powered.sum() + alpha * squares
    d_denom = 2.0 * r * weights @ mat + 2.0 * alpha * mat
    want_grad = -((2.0 * mat * denom - squares * d_denom) / denom**2 + 2.0 * eps * mat)
    assert out.value == pytest.approx(-(squares / denom + eps * squares), rel=1e-12)
    assert np.allclose(out.grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())
