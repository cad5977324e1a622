import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconcap import tasks
from reconcap.spectral import stable_rank
from reconcap.transport import StepRule, propagate

from _oracles import finite_difference_gradient, finite_difference_hessian, line_integral


def descent_gradient(task, theta):
    # the gradient the update rules apply: one plain descent step of size 1
    # moves theta by -grad(theta)
    step = propagate(theta, task, StepRule(step_size=1.0), 1, omega_seed=0)
    return theta - step.final


def make_random_task(seed, d=5):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((d, d))
    return tasks.QuadraticTask(
        dim=d, hessian=b @ b.T / d, minimizer=rng.standard_normal(d)
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_matches_finite_differences(seed):
    task = make_random_task(seed)
    theta = np.random.default_rng(seed + 100).standard_normal(task.dim)
    fd = finite_difference_gradient(lambda x: tasks.value(task, x), theta)
    assert np.allclose(descent_gradient(task, theta), fd, rtol=1e-6, atol=1e-6)


def test_hessian_matches_finite_differences():
    task = make_random_task(3)
    theta = np.random.default_rng(7).standard_normal(task.dim)
    fd = finite_difference_hessian(lambda x: tasks.value(task, x), theta)
    assert np.allclose(task.hessian, fd, rtol=1e-5, atol=1e-5)


def test_value_is_work_integral_of_gradient():
    task = make_random_task(4)
    x0 = np.random.default_rng(8).standard_normal(task.dim)
    x1 = np.random.default_rng(9).standard_normal(task.dim)
    work = line_integral(lambda x: descent_gradient(task, x), x0, x1)
    assert work == pytest.approx(tasks.value(task, x1) - tasks.value(task, x0), abs=1e-8)


def test_value_zero_at_minimizer_and_nonnegative():
    task = make_random_task(11)
    assert tasks.value(task, task.minimizer) == 0.0
    rng = np.random.default_rng(12)
    for _ in range(20):
        assert tasks.value(task, rng.standard_normal(task.dim)) >= 0.0


def test_rejects_indefinite_hessian():
    with pytest.raises(ValueError):
        tasks.QuadraticTask(dim=2, hessian=np.diag([1.0, -0.5]), minimizer=np.zeros(2))


def test_rejects_asymmetric_hessian():
    h = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        tasks.QuadraticTask(dim=2, hessian=h, minimizer=np.zeros(2))


def test_combine_gradients_add():
    t1 = make_random_task(20)
    t2 = make_random_task(21)
    joint = tasks.combine(t1, t2)
    theta = np.random.default_rng(22).standard_normal(t1.dim)
    assert np.allclose(
        descent_gradient(joint, theta),
        descent_gradient(t1, theta) + descent_gradient(t2, theta),
        atol=1e-10,
    )


def test_combine_minimizer_is_stationary():
    # the summed system is always consistent for PSD parts, even when singular
    rng = np.random.default_rng(23)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    h1 = q[:, :2] @ q[:, :2].T
    h2 = q[:, 2:4] @ q[:, 2:4].T
    t1 = tasks.QuadraticTask(dim=6, hessian=h1, minimizer=rng.standard_normal(6))
    t2 = tasks.QuadraticTask(dim=6, hessian=h2, minimizer=rng.standard_normal(6))
    joint = tasks.combine(t1, t2)
    assert np.linalg.norm(descent_gradient(joint, joint.minimizer)) < 1e-10


def test_random_rotation_orthogonal_and_seeded():
    r1, r2, r3 = tasks.random_rotations(8, [5, 5, 6])
    assert np.array_equal(r1, r2)
    assert not np.array_equal(r1, r3)
    assert np.allclose(r1.T @ r1, np.eye(8), atol=1e-12)


class TestTaskPair:
    def test_curvature_free_directions(self):
        pair = tasks.make_task_pair(
            d=10, k_a=4, spectrum_b_on_a=(2.0, 1.0, 0.0, 0.0), rotation_seed=3
        )
        q = pair.preserving_basis.basis
        assert np.linalg.norm(pair.task_a.hessian @ q) < 1e-10

    def test_restricted_spectrum_is_requested(self):
        spectrum = (2.0, 1.0, 0.5, 0.0)
        pair = tasks.make_task_pair(d=10, k_a=4, spectrum_b_on_a=spectrum, rotation_seed=3)
        eigs = np.sort(np.linalg.eigvalsh(pair.restricted))[::-1]
        assert np.allclose(eigs, sorted(spectrum, reverse=True), atol=1e-10)

    def test_demand_dimension_frozen_value(self):
        # spectrum (2, 1): sum of squares 5 over top square 4
        pair = tasks.make_task_pair(
            d=8, k_a=2, spectrum_b_on_a=(2.0, 1.0), rotation_seed=1
        )
        assert pair.target_m_b == pytest.approx(1.25, abs=1e-12)
        assert stable_rank(pair.restricted) == pytest.approx(1.25, abs=1e-9)

    def test_tilt_preserves_restricted_spectrum(self):
        spectrum = (3.0, 1.0, 0.0)
        flat = tasks.make_task_pair(d=9, k_a=3, spectrum_b_on_a=spectrum, rotation_seed=4)
        tilted = tasks.make_task_pair(
            d=9, k_a=3, spectrum_b_on_a=spectrum, rotation_seed=4, tilt=1.0
        )
        e1 = np.sort(np.linalg.eigvalsh(flat.restricted))
        e2 = np.sort(np.linalg.eigvalsh(tilted.restricted))
        assert np.allclose(e1, e2, atol=1e-9)
        assert not np.allclose(flat.task_b.hessian, tilted.task_b.hessian)

    def test_offset_keeps_joint_optimum(self):
        pair = tasks.make_task_pair(
            d=10,
            k_a=4,
            spectrum_b_on_a=(1.0, 1.0, 0.0, 0.0),
            rotation_seed=9,
            offset_scale=1.0,
            tilt=1.0,
        )
        # task B's optimum still costs (numerically) nothing on task A
        assert tasks.value(pair.task_a, pair.task_b.minimizer) < 1e-14
        assert tasks.value(pair.task_b, pair.task_b.minimizer) == 0.0
        shift = pair.task_b.minimizer - pair.task_a.minimizer
        assert np.linalg.norm(shift) == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_tilt_needs_enough_normal_directions(self):
        with pytest.raises(ValueError):
            tasks.make_task_pair(
                d=6,
                k_a=4,
                spectrum_b_on_a=(1.0, 1.0, 1.0, 1.0),
                rotation_seed=2,
                tilt=0.5,
            )

    @pytest.mark.parametrize("top", [1e-13, 1e-200])
    def test_demand_below_the_resolution_is_rejected_alike(self, top):
        # below about 1e-154 the target was 0/0 = NaN, which no check rejects
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="restricted stable rank 0.0 != target 1.0"):
                tasks.make_task_pair(4, 2, (top, 0.0), 7)

    def test_round_trip_is_bit_exact(self):
        # the generating arguments are all a config stores to replay a pair
        args = dict(
            d=12,
            k_a=5,
            spectrum_b_on_a=(2.0, 1.5, 1.0, 0.0, 0.0),
            rotation_seed=77,
            offset_scale=0.5,
            tilt=1.0,
        )
        pair = tasks.make_task_pair(**args)
        rebuilt = tasks.make_task_pair(**args)
        assert np.array_equal(rebuilt.task_a.hessian, pair.task_a.hessian)
        assert np.array_equal(rebuilt.task_b.hessian, pair.task_b.hessian)
        assert np.array_equal(rebuilt.task_b.minimizer, pair.task_b.minimizer)
        assert np.array_equal(
            rebuilt.preserving_basis.basis, pair.preserving_basis.basis
        )


@given(
    d=st.integers(min_value=3, max_value=10),
    seed=st.integers(min_value=0, max_value=200),
)
@settings(max_examples=30, deadline=None)
def test_pair_invariants_hold_across_shapes(d, seed):
    k_a = max(1, d // 3)
    spectrum = tuple(float(i + 1) for i in range(k_a))
    pair = tasks.make_task_pair(d=d, k_a=k_a, spectrum_b_on_a=spectrum, rotation_seed=seed)
    assert pair.preserving_basis.dim == k_a
    assert np.linalg.norm(pair.task_a.hessian @ pair.preserving_basis.basis) < 1e-9
