import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_clamp_lifts_a_rotated_near_floor_covariance():
    # rebuilt at the floor alone, roundoff from the unit eigenvalue leaves the
    # lifted one about 1e-16 under it in this basis
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    state, clamped = gaussian.clamped_state(np.zeros(2), rot @ np.diag([1.0, 1e-14]) @ rot.T)
    assert clamped
    eigs = np.linalg.eigvalsh(state.covariance)
    assert eigs[0] >= gaussian.COVARIANCE_FLOOR
    assert np.allclose(state.covariance, rot @ np.diag([1.0, gaussian.COVARIANCE_FLOOR]) @ rot.T, rtol=0, atol=1e-14)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dim=st.integers(2, 7), seed=st.integers(0, 2**32 - 1), log_top=st.floats(0.0, 6.0))
def test_clamped_state_never_rejects_a_rotated_covariance(dim, seed, log_top):
    # one eigenvalue in [-1e-12, 2e-12], the rest in [1e-3, 10**log_top], in
    # a random basis: the clamp decides on the eigenvalues the constructor
    # tests, so the matrix is lifted or accepted as it is, never rejected
    gen = np.random.default_rng(seed)
    w = 10.0 ** gen.uniform(-3.0, log_top, size=dim)
    w[0], w[1] = gen.uniform(-1e-12, 2e-12), 10.0**log_top
    q, _ = np.linalg.qr(gen.standard_normal((dim, dim)))
    state, _ = gaussian.clamped_state(np.zeros(dim), q @ np.diag(w) @ q.T)
    assert np.linalg.eigvalsh(state.covariance)[0] >= gaussian.COVARIANCE_FLOOR * (1.0 - 1e-9)


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


def test_path_is_validated_as_a_whole():
    covs = np.stack([np.eye(2), np.diag([1.0, -0.1]), np.eye(2)])
    with pytest.raises(ValueError, match="below floor"):
        gaussian.GaussianState(mean=np.zeros((3, 2)), covariance=covs)
    covs[1] = [[1.0, 0.5], [0.0, 1.0]]
    with pytest.raises(ValueError, match="asymmetry"):
        gaussian.GaussianState(mean=np.zeros((3, 2)), covariance=covs)
    covs[1] = np.eye(2)
    with pytest.raises(ValueError, match="shape"):
        gaussian.GaussianState(mean=np.zeros((2, 2)), covariance=covs)
    means = np.zeros((3, 2))
    means[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        gaussian.GaussianState(mean=means, covariance=covs)
    path = gaussian.GaussianState(mean=np.arange(6.0).reshape(3, 2), covariance=covs)
    assert path.dim == 2
    assert np.array_equal(path[-1].mean, [4.0, 5.0]) and path[-1].covariance.shape == (2, 2)
    assert path[1:].mean.shape == (2, 2) and path[1:].covariance.shape == (2, 2, 2)
    with pytest.raises(TypeError):
        gaussian.GaussianState(mean=np.zeros(2), covariance=np.eye(2))[0]


def test_clamp_reports_each_state_of_a_path():
    covs = np.stack([np.eye(2), 1e-14 * np.eye(2), np.diag([1e-12, 1e-18])])
    path, clamped = gaussian.clamped_state(np.zeros((3, 2)), covs)
    assert clamped.tolist() == [False, True, True]
    assert np.array_equal(path.covariance[0], np.eye(2))
    assert np.min(np.linalg.eigvalsh(path.covariance)) >= gaussian.COVARIANCE_FLOOR * 0.999
