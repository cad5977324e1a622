import numpy as np
import pytest

from reconcap import gaussian

from _oracles import sample_batch


def test_state_validates_covariance():
    with pytest.raises(ValueError):
        gaussian.GaussianState(mean=np.zeros(2), covariance=np.diag([1.0, -0.1]))
    with pytest.raises(ValueError):
        gaussian.GaussianState(
            mean=np.zeros(2), covariance=np.array([[1.0, 0.5], [0.0, 1.0]])
        )


def test_clamp_lifts_tiny_eigenvalues():
    cov = np.diag([1.0, 1e-18])
    state, clamped = gaussian.clamped_state(np.zeros(2), cov)
    assert clamped
    eigs = np.linalg.eigvalsh(state.covariance)
    assert eigs[0] >= gaussian.COVARIANCE_FLOOR * 0.999
    ok_state, touched = gaussian.clamped_state(np.zeros(2), np.eye(2))
    assert not touched
    assert np.allclose(ok_state.covariance, np.eye(2))


def test_batch_sampling_moments():
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    state = gaussian.GaussianState(mean=np.array([0.5, -0.5]), covariance=cov)
    x = sample_batch(state, 200_000, master_seed=9)
    assert np.allclose(x.mean(axis=0), state.mean, atol=0.02)
    emp = np.cov(x.T)
    assert np.allclose(emp, cov, atol=0.03)


def test_covariance_sqrt_squares_back():
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    state = gaussian.GaussianState(mean=np.zeros(2), covariance=cov)
    root = gaussian.covariance_sqrt(state.covariance)
    assert np.allclose(root @ root, cov, atol=1e-12)
