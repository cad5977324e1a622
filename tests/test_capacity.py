import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconcap import capacity
from reconcap.spectral import SubspaceBasis
from reconcap.tasks import QuadraticTask, make_task_pair

from _oracles import jacobian_stack, per_matrix_compatible_rank, per_matrix_effective_rank

# the dimensions at which stacked calls must match per-matrix calls bit for bit
STACK_DIMS = (2, 8, 16, 32)


def axis_basis(d, cols):
    return SubspaceBasis(ambient_dim=d, dim=len(cols), basis=np.eye(d)[:, cols])


def test_effective_rank_closed_forms():
    assert capacity.effective_rank([2.0 * np.eye(4)]) == pytest.approx(4.0, abs=1e-12)
    j = np.diag([1.0, 1.0, 0.5])
    assert capacity.effective_rank([j]) == pytest.approx(0.5 ** (2.0 / 3.0), rel=1e-12)


def test_effective_rank_zero_on_collapse():
    assert capacity.effective_rank([np.diag([1.0, 0.0, 1.0])]) == 0.0
    assert capacity.effective_rank([np.diag([1.0, 1e-14, 1.0])]) == 0.0


def test_effective_rank_is_geometric_mean_across_realizations():
    a = np.diag([2.0, 2.0])
    b = np.diag([8.0, 8.0])
    # per-realization values 4 and 64, geometric mean 16
    assert capacity.effective_rank([a, b]) == pytest.approx(16.0, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_reconfiguration_dimension_of_a_tiny_task_b():
    h = np.zeros((4, 4))
    h[0, 0] = 1e-200
    task_b = QuadraticTask(dim=4, hessian=h, minimizer=np.zeros(4))
    m_b = capacity.reconfiguration_dimension(task_b, axis_basis(4, [0, 1]))
    assert m_b == 1.0  # not NaN


def test_compatible_rank_and_usable_count():
    d = 4
    j = np.diag([1.0, 0.5, 1e-6, 1.0])
    basis = axis_basis(d, [0, 1, 2])
    rank, usable = capacity.compatible_effective_rank([j], basis)
    assert usable == 2
    assert rank == pytest.approx((0.5 * 1e-6) ** (2.0 / 3.0), rel=1e-9)


def test_usable_count_rounds_half_down():
    d = 4
    basis = axis_basis(d, [0, 1, 2, 3])
    j3 = np.diag([1.0, 1.0, 1.0, 1e-8])
    j4 = np.eye(4)
    _, usable = capacity.compatible_effective_rank([j3, j4], basis)
    assert usable == 3
    _, usable = capacity.compatible_effective_rank([j4, j4, j3], basis)
    assert usable == 4


def test_reconfiguration_dimension_frozen():
    pair = make_task_pair(d=8, k_a=2, spectrum_b_on_a=(2.0, 1.0), rotation_seed=1)
    m_b = capacity.reconfiguration_dimension(pair.task_b, pair.preserving_basis)
    assert m_b == pytest.approx(1.25, abs=1e-9)


def contraction_jacobian(d, dirs, strength=1.0):
    j = np.eye(d)
    for v in dirs:
        j = j - strength * np.outer(v, v)
    return j


def test_prediction_flags_overdemand():
    pair = make_task_pair(d=6, k_a=3, spectrum_b_on_a=(1.0, 1.0, 0.0), rotation_seed=5)
    q = pair.preserving_basis.basis
    # crush two of the three preserved directions
    j_bad = contraction_jacobian(6, [q[:, 1], q[:, 2]])
    report = capacity.predict_incompatibility([j_bad], pair.preserving_basis, pair.task_b)
    assert report.usable_direction_count == 1
    assert report.m_b == pytest.approx(2.0, abs=1e-9)
    assert report.predicted_incompatible
    # leave everything open and the demand fits
    report_ok = capacity.predict_incompatibility([np.eye(6)], pair.preserving_basis, pair.task_b)
    assert report_ok.usable_direction_count == 3
    assert not report_ok.predicted_incompatible




def flat_axis_task():
    return QuadraticTask(dim=3, hessian=np.diag([2.0, 1.0, 0.0]), minimizer=np.zeros(3))


def test_forgetting_measured_against_curvature():
    task = flat_axis_task()
    start = np.array([0.0, 0.0, 1.5])
    final = np.array([0.3, 0.0, -2.0])
    res = capacity.measure_forgetting(start, final, task)
    assert res.forgetting == pytest.approx(0.09, abs=1e-14)
    assert res.normal_displacement == pytest.approx(0.3, abs=1e-14)
    assert res.exited_manifold
    # smallest positive curvature is 1, so the floor is 0.045
    assert res.bound_check == pytest.approx(0.09 - 0.045, abs=1e-12)


def test_forgetting_zero_for_moves_inside_manifold():
    task = flat_axis_task()
    res = capacity.measure_forgetting(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -5.0]), task)
    assert res.forgetting == 0.0
    assert res.normal_displacement == 0.0
    assert not res.exited_manifold
    assert res.bound_check == 0.0


def test_forgetting_accepts_trajectories():
    from reconcap.transport import StepRule, propagate

    task = flat_axis_task()
    rule = StepRule(kind="gradient_descent", step_size=0.1)
    traj = propagate(np.array([0.5, 0.5, 2.0]), task, rule, 200, omega_seed=0)
    res = capacity.measure_forgetting(traj.states[0], traj.final, task)
    # descent moves toward the optimum, so the loss change is negative
    assert res.forgetting < 0.0
    assert not res.exited_manifold


def test_forgetting_bound_tight_along_soft_direction():
    task = flat_axis_task()
    # exit purely along the curvature-1 axis saturates the bound
    res = capacity.measure_forgetting(np.zeros(3), np.array([0.0, 0.7, 0.0]), task)
    assert res.bound_check == pytest.approx(0.0, abs=1e-12)
    assert res.bound_check >= -1e-10


def test_participation_ratio_exact_small_case():
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert capacity.participation_ratio(x) == pytest.approx(2.0, abs=1e-12)


def test_participation_ratio_tracks_spectrum():
    rng = np.random.default_rng(3)
    n = 60_000
    x = rng.standard_normal((n, 3)) * np.sqrt([2.0, 1.0, 1.0])
    # covariance spectrum (2, 1, 1): 16/6
    assert capacity.participation_ratio(x) == pytest.approx(8.0 / 3.0, rel=0.02)


def test_participation_ratio_isotropic_hits_dimension():
    rng = np.random.default_rng(4)
    d = 8
    x = rng.standard_normal((100 * d, d))
    assert capacity.participation_ratio(x) == pytest.approx(d, rel=0.1)


@given(scale=st.floats(min_value=1e-2, max_value=1e2), seed=st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_participation_ratio_scale_invariant(scale, seed):
    x = np.random.default_rng(seed).standard_normal((50, 4))
    assert capacity.participation_ratio(scale * x) == pytest.approx(
        capacity.participation_ratio(x), rel=1e-9
    )


def test_full_basis_projection_equals_plain_rank():
    rng = np.random.default_rng(12)
    mats = [np.eye(5) - 0.1 * np.diag(rng.uniform(0.1, 1.0, 5)) for _ in range(4)]
    full = axis_basis(5, [0, 1, 2, 3, 4])
    rank, _ = capacity.compatible_effective_rank(mats, full)
    assert rank == capacity.effective_rank(mats)


def test_rank_functions_accept_trajectories():
    from reconcap.tasks import QuadraticTask
    from reconcap.transport import StepRule, propagate

    task = QuadraticTask(dim=3, hessian=np.diag([1.0, 0.5, 0.2]), minimizer=np.zeros(3))
    rule = StepRule(kind="gradient_descent", step_size=0.1)
    traj = propagate(np.ones(3), task, rule, 7, omega_seed=0)
    direct = capacity.effective_rank([traj.cumulative_jacobian])
    assert capacity.effective_rank([traj]) == direct


def test_jacobian_list_validation():
    with pytest.raises(ValueError):
        capacity.effective_rank([])
    with pytest.raises(ValueError):
        capacity.effective_rank([np.eye(3), np.eye(4)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", STACK_DIMS)
def test_stacked_rank_functions_match_per_matrix_loop(d):
    stack = jacobian_stack(d)
    q, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d, max(d // 2, 1))))
    basis = SubspaceBasis(ambient_dim=d, dim=q.shape[1], basis=q)
    tau = 0.5
    healthy = stack[[0, 3, 4, 5]]
    # one ensemble of realizations gives one number
    assert capacity.effective_rank(healthy) == per_matrix_effective_rank(healthy)
    assert capacity.effective_rank(stack) == per_matrix_effective_rank(stack) == 0.0
    for ensemble in (healthy, stack):
        assert capacity.compatible_effective_rank(ensemble, basis, tau) == (
            per_matrix_compatible_rank(ensemble, q, tau)
        )
    # a leading axis of one-realization ensembles gives one number per member
    ranks = capacity.effective_rank(stack[:, None])
    assert np.array_equal(ranks, [per_matrix_effective_rank(m[None]) for m in stack])
    assert ranks[1] == ranks[2] == 0.0 and np.all(ranks[[0, 3, 4, 5]] > 0.0)
    compat, usable = capacity.compatible_effective_rank(stack[:, None], basis, tau)
    expected = [per_matrix_compatible_rank(m[None], q, tau) for m in stack]
    assert np.array_equal(compat, [c for c, _ in expected])
    assert np.array_equal(usable, [u for _, u in expected])


def test_spectra_effective_rank_of_no_spectra_is_a_one_line_value_error():
    with pytest.raises(ValueError, match="empty") as err:
        capacity.spectra_effective_rank([])
    assert "\n" not in str(err.value)
