import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reconcap import spectral, tasks

from _oracles import (
    jacobian_stack,
    per_matrix_singular_values,
    per_seed_rotations,
    per_spectrum_log_volume,
    singulars_via_gram,
)

# the dimensions at which stacked calls must match per-matrix calls bit for bit
STACK_DIMS = (2, 8, 16, 32)

# 2 I_2 has both singular values 2, so the log Gram volume is 4 ln 2
LOG_VOLUME_TWICE_IDENTITY = 2.772588722239781


def random_matrix(seed, rows, cols):
    return np.random.default_rng(seed).standard_normal((rows, cols))


@pytest.mark.parametrize("rows,cols,seed", [(4, 4, 0), (6, 3, 1), (3, 6, 2), (12, 12, 3)])
def test_singular_values_match_gram_route(rows, cols, seed):
    a = random_matrix(seed, rows, cols)
    ours = spectral.singular_values(a)
    ref = singulars_via_gram(a)[: ours.size]
    assert np.all(np.diff(ours) <= 0)
    assert np.allclose(ours, ref, rtol=1e-9, atol=1e-9)


def log_gram_volume(j):
    return spectral.log_volume(spectral.singular_values(j))


def test_log_gram_volume_frozen_value():
    assert log_gram_volume(2.0 * np.eye(2)) == pytest.approx(
        LOG_VOLUME_TWICE_IDENTITY, abs=1e-14
    )


def test_log_gram_volume_additive_under_scaling():
    a = random_matrix(5, 7, 7)
    base = log_gram_volume(a)
    scaled = log_gram_volume(3.0 * a)
    assert scaled == pytest.approx(base + 2 * 7 * np.log(3.0), rel=1e-10)


def test_log_gram_volume_singular_is_minus_inf():
    j = np.diag([1.0, 0.0, 2.0])
    assert log_gram_volume(j) == float("-inf")
    # tiny-but-nonzero below the relative floor also collapses
    j2 = np.diag([1.0, 1e-15])
    assert log_gram_volume(j2) == float("-inf")


def test_stable_rank_frozen_and_edges():
    assert spectral.stable_rank(np.diag([2.0, 1.0, 1.0])) == pytest.approx(1.5, abs=1e-14)
    assert spectral.stable_rank(np.zeros((4, 4))) == 0.0
    assert spectral.stable_rank(np.eye(5)) == pytest.approx(5.0, abs=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stable_rank_of_a_tiny_top_eigenvalue():
    # top**2 underflows to 0 below about 1e-154; the ratio must not be 0/0
    assert spectral.stable_rank(np.diag([1e-200, 0.0])) == 1.0


@given(scale=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_stable_rank_scale_invariant(scale, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((5, 5))
    h = b @ b.T
    assert spectral.stable_rank(scale * h) == pytest.approx(
        spectral.stable_rank(h), rel=1e-9
    )


def test_subspace_basis_rejects_non_orthonormal():
    bad = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        spectral.SubspaceBasis(ambient_dim=3, dim=2, basis=bad)


def test_log_volume_of_projection_matches_slogdet():
    j = random_matrix(21, 6, 6)
    q, _ = np.linalg.qr(np.random.default_rng(22).standard_normal((6, 3)))
    jq = j @ spectral.SubspaceBasis(ambient_dim=6, dim=3, basis=q).basis
    sign, logdet = np.linalg.slogdet(jq.T @ jq)
    assert sign > 0
    assert spectral.log_volume(spectral.singular_values(jq)) == pytest.approx(logdet, abs=1e-12)


def test_require_symmetric_symmetrizes_and_rejects():
    h = np.array([[1.0, 2.0], [2.0 + 1e-12, 3.0]])
    out = spectral.require_symmetric(h)
    assert np.array_equal(out, out.T)
    with pytest.raises(ValueError):
        spectral.require_symmetric(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_numerical_rank_on_constructed_matrix():
    rng = np.random.default_rng(31)
    u, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    v, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    a = u @ np.diag([4.0, 2.0, 1.0, 1e-13, 0.0, 0.0, 0.0]) @ v.T
    assert spectral.numerical_rank(a) == 3


@given(
    a=arrays(
        np.float64,
        (4, 4),
        elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
)
@settings(max_examples=60, deadline=None)
def test_singular_values_nonnegative_descending(a):
    s = spectral.singular_values(a)
    assert np.all(s >= 0.0)
    assert np.all(np.diff(s) <= 1e-12)


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        spectral.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        spectral.as_matrix(np.array([[np.inf]]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", STACK_DIMS)
def test_stacked_spectral_calls_match_per_matrix_loop(d):
    stack = jacobian_stack(d)
    s = spectral.singular_values(stack)
    assert np.array_equal(s, per_matrix_singular_values(stack))
    logs = spectral.log_volume(s)
    assert np.array_equal(logs, per_spectrum_log_volume(s))
    # the rank-deficient and the collapsed member, and no one else
    assert np.array_equal(np.isneginf(logs), [False, True, True, False, False, False])
    assert spectral.log_volume(s[0]) == logs[0]
    # a leading axis of ensembles: (3, 2, d) spectra give (3, 2) log volumes
    assert np.array_equal(spectral.log_volume(s.reshape(3, 2, d)), logs.reshape(3, 2))


@pytest.mark.filterwarnings("error")
def test_log_volume_of_zero_singular_value_is_minus_inf_without_log_zero():
    spectra = np.array([[3.0, 2.0, 1.0], [3.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    logs = spectral.log_volume(spectra)
    assert logs[0] == pytest.approx(2.0 * np.log(6.0), rel=1e-15)
    assert logs[1] == logs[2] == float("-inf")


@pytest.mark.parametrize("empty", [np.array([]), np.empty((3, 0)), []])
def test_log_volume_of_empty_spectrum_is_a_one_line_value_error(empty):
    with pytest.raises(ValueError, match="empty") as err:
        spectral.log_volume(empty)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("d", STACK_DIMS)
def test_random_rotations_match_per_seed_loop(d):
    seeds = [3, 4, 90, 91]
    rotations = tasks.random_rotations(d, seeds)
    assert np.array_equal(rotations, per_seed_rotations(d, seeds))
    assert np.array_equal(tasks.random_rotations(d, [90])[0], rotations[2])
