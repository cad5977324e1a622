import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconcap import tasks
from reconcap.spectral import stable_rank
from reconcap.transport import StepRule, propagate, step_map

from _oracles import (
    finite_difference_gradient,
    finite_difference_hessian,
    half_quadratic,
    line_integral,
    per_pair_task_pair,
    task_value,
)


def descent_gradient(task, theta):
    # the gradient the update rules apply: one plain descent step of size 1
    # moves theta by -grad(theta)
    rule = StepRule(step_size=1.0)
    a, b = step_map(task, rule)
    states = propagate(
        theta[None], a[None], b[None], [rule.noise_gain()], [1], 0, [0], [0], task.label, final_only=True,
    )
    return theta - states[0]


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
    fd = finite_difference_gradient(lambda x: task_value(task, x), theta)
    assert np.allclose(descent_gradient(task, theta), fd, rtol=1e-6, atol=1e-6)


def test_hessian_matches_finite_differences():
    task = make_random_task(3)
    theta = np.random.default_rng(7).standard_normal(task.dim)
    fd = finite_difference_hessian(lambda x: task_value(task, x), theta)
    assert np.allclose(task.hessian, fd, rtol=1e-5, atol=1e-5)


def test_value_is_work_integral_of_gradient():
    task = make_random_task(4)
    x0 = np.random.default_rng(8).standard_normal(task.dim)
    x1 = np.random.default_rng(9).standard_normal(task.dim)
    work = line_integral(lambda x: descent_gradient(task, x), x0, x1)
    assert work == pytest.approx(task_value(task, x1) - task_value(task, x0), abs=1e-8)


def test_value_zero_at_minimizer_and_nonnegative():
    # the package's one loss, at the minimizer and at a stack of 20 points
    task = make_random_task(11)
    assert tasks._half_quadratic(task.hessian, task.minimizer - task.minimizer)[0] == 0.0
    thetas = np.random.default_rng(12).standard_normal((20, task.dim))
    assert (tasks._half_quadratic(task.hessian, thetas - task.minimizer)[0] >= 0.0).all()


@pytest.mark.parametrize("d", [1, 6, 16])
def test_stacked_half_quadratic_matches_per_offset_calls(d):
    # a stack of mixed offsets (zero, -0.0, tiny, huge and drawn) on a stack
    # of Hessians: each member's loss and H d are its single call's bit for
    # bit, and a single call is the 1-D products' float
    rng = np.random.default_rng(d)
    b = rng.standard_normal((8, d, d))
    h = b @ b.swapaxes(-1, -2) / d
    offsets = rng.standard_normal((8, d)) * np.array([0.0, -0.0, 1e-160, 1e150, 1.0, 3.0, 1e-3, 7.0])[:, None]
    losses, hds = tasks._half_quadratic(h, offsets)
    assert losses.shape == (8,) and hds.shape == (8, d)
    for i in range(8):
        loss, hd = tasks._half_quadratic(h[i], offsets[i])
        assert type(loss) is float and repr(loss) == repr(half_quadratic(h[i], offsets[i])[0])
        assert repr(losses[i].item()) == repr(loss) and np.array_equal(hds[i], hd)
        assert np.array_equal(hd, h[i] @ offsets[i])
    nested = tasks._half_quadratic(h.reshape(2, 4, d, d), offsets.reshape(2, 4, d))
    assert np.array_equal(nested[0].ravel(), losses) and np.array_equal(nested[1].reshape(8, d), hds)


def test_rejects_indefinite_hessian():
    with pytest.raises(ValueError):
        tasks.QuadraticTask(dim=2, hessian=np.diag([1.0, -0.5]), minimizer=np.zeros(2))


def test_rejects_asymmetric_hessian():
    h = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        tasks.QuadraticTask(dim=2, hessian=h, minimizer=np.zeros(2))


def test_stacked_psd_check_matches_the_task_check():
    # one member of the stack is indefinite beyond the tolerance, one within it
    h = np.array([make_random_task(seed).hessian for seed in range(4)])
    h[3] -= (np.linalg.eigvalsh(h[3])[0] + 1e-9) * np.eye(5)
    assert -1e-8 < np.linalg.eigvalsh(h[3])[0] < 0.0
    sym, lam_max = tasks.require_psd(h)
    for member, top in zip(sym, lam_max):
        task = tasks.QuadraticTask(dim=5, hessian=member, minimizer=np.zeros(5))
        assert np.array_equal(task.hessian, member)
        assert task.lam_max == top
    h[2] = np.diag([1.0, -0.5, 2.0, 1.0, 1.0])
    with pytest.raises(ValueError) as stacked:
        tasks.require_psd(h)
    with pytest.raises(ValueError) as alone:
        tasks.QuadraticTask(dim=5, hessian=h[2], minimizer=np.zeros(5))
    assert str(stacked.value) == str(alone.value) == "task: hessian not PSD (min eigenvalue -5.000e-01)"
    h[2, 0, 1] += 0.5
    with pytest.raises(ValueError, match="task hessian: asymmetry"):
        tasks.require_psd(h)


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
        restricted = tasks.restricted_hessian(pair.task_b, pair.preserving_basis)
        eigs = np.sort(np.linalg.eigvalsh(restricted))[::-1]
        assert np.allclose(eigs, sorted(spectrum, reverse=True), atol=1e-10)

    def test_demand_dimension_frozen_value(self):
        # spectrum (2, 1): sum of squares 5 over top square 4
        pair = tasks.make_task_pair(
            d=8, k_a=2, spectrum_b_on_a=(2.0, 1.0), rotation_seed=1
        )
        restricted = tasks.restricted_hessian(pair.task_b, pair.preserving_basis)
        assert pair.m_b == pytest.approx(1.25, abs=1e-9)
        assert stable_rank(restricted) == pair.m_b

    def test_tilt_preserves_restricted_spectrum(self):
        spectrum = (3.0, 1.0, 0.0)
        flat = tasks.make_task_pair(d=9, k_a=3, spectrum_b_on_a=spectrum, rotation_seed=4)
        tilted = tasks.make_task_pair(
            d=9, k_a=3, spectrum_b_on_a=spectrum, rotation_seed=4, tilt=1.0
        )
        e1, e2 = (
            np.sort(np.linalg.eigvalsh(tasks.restricted_hessian(p.task_b, p.preserving_basis)))
            for p in (flat, tilted)
        )
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
        assert task_value(pair.task_a, pair.task_b.minimizer) < 1e-14
        assert task_value(pair.task_b, pair.task_b.minimizer) == 0.0
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


def _spectra(n, k_a, seed, demand_below=None):
    """n seeded spectra with zero entries, member 0 demanding nothing; with
    ``demand_below``, only the entries before it may be positive."""
    gen = np.random.default_rng(seed)
    spectra = gen.uniform(0.25, 3.0, (n, k_a)) * (gen.random((n, k_a)) < 0.6)
    spectra[0] = 0.0
    if demand_below is not None:
        spectra[:, demand_below:] = 0.0
    return [tuple(s) for s in spectra]


@pytest.mark.parametrize(
    "d, k_a, n, first_seed, kwargs",
    [
        (6, 3, 1, 5, {}),
        (10, 4, 7, 11, {"tilt": 1.0, "offset_scale": 0.5}),
        (9, 3, 8, 21, {"tilt": 0.5, "a_spectrum": (0.4, 2.5, 1.0, 3.0, 0.7, 1.9)}),
        (16, 8, 81, 123, {"tilt": 1.0, "offset_scale": 1.0}),
        # entries of 2**32 and more take their keys from SeedSequence
        (8, 3, 8, 2**32 - 4, {"offset_scale": 2.0}),
    ],
    ids=["one", "seven-tilted", "eight-a-spectrum", "sweep-sized", "seeds-past-2**32"],
)
def test_stacked_pair_matches_per_pair_build(d, k_a, n, first_seed, kwargs):
    # n = 7 and n = 8 sit on either side of draw_each's batch minimum
    spectra = _spectra(n, k_a, first_seed % 1000, demand_below=d - k_a if "tilt" in kwargs else None)
    seeds = list(range(first_seed, first_seed + n))
    stack = tasks.make_task_pair(d, k_a, spectra, seeds, **kwargs)
    assert stack.task_a.hessian.shape == (n, d, d) and stack.m_b.shape == (n,)
    for i, (spectrum, seed) in enumerate(zip(spectra, seeds)):
        ref = per_pair_task_pair(d, k_a, spectrum, seed, **kwargs)
        alone = tasks.make_task_pair(d, k_a, spectrum, seed, **kwargs)
        for pair, at in ((stack, i), (alone, ...)):
            assert np.array_equal(pair.task_a.hessian[at], ref["h_a"])
            assert np.array_equal(pair.task_a.minimizer[at], np.zeros(d))
            assert np.array_equal(pair.task_b.hessian[at], ref["h_b"])
            assert np.array_equal(pair.task_b.minimizer[at], ref["theta_b"])
            assert np.array_equal(pair.preserving_basis.basis[at], ref["basis"])
            assert pair.m_b[at] == ref["m_b"]


@pytest.mark.parametrize(
    "bad_spectrum, kwargs, message",
    [
        ((1.0, -0.5, 0.0, 0.0), {}, "spectrum_b_on_a entries must be >= 0"),
        ((1.0, 0.5, 0.0), {}, "spectrum_b_on_a must have length k_a=4"),
        ((1.0, 0.0, 0.0, 2.0), {"tilt": 0.5}, "positive spectrum index 3 has no partner"),
        ((1.0, 0.5, 0.0, 0.0), {"a_spectrum": (1.0, -0.5, 2.0)}, "a_spectrum entries must be positive"),
        ((1e-13, 0.0, 0.0, 0.0), {}, "restricted stable rank 0.0 != target 1.0"),
    ],
    ids=["negative-demand", "wrong-length", "tilt-without-partner", "non-positive-a-spectrum", "unresolved-demand"],
)
def test_stacked_pair_raises_what_its_invalid_member_raises(bad_spectrum, kwargs, message):
    # member 5 of 9 is invalid; the others demand only partnered directions
    d, k_a, n, bad = 7, 4, 9, 5
    spectra = [(1.0, 0.5, 0.0, 0.0)] * n
    spectra[bad] = bad_spectrum
    seeds = list(range(40, 40 + n))
    raised = []
    for build in (
        lambda: tasks.make_task_pair(d, k_a, spectra, seeds, **kwargs),
        lambda: tasks.make_task_pair(d, k_a, bad_spectrum, seeds[bad], **kwargs),
        lambda: per_pair_task_pair(d, k_a, bad_spectrum, seeds[bad], **kwargs),
    ):
        with pytest.raises(ValueError) as err:
            build()
        raised.append(str(err.value))
    assert raised[0] == raised[1] == raised[2]
    assert message in raised[0]
