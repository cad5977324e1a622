import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconcap import capacity
from reconcap.config import ThresholdConfig
from reconcap.capacity import log_singular_values
from reconcap.spectral import SubspaceBasis
from reconcap.tasks import QuadraticTask, make_task_pair
from reconcap.transport import StepRule, step_eigen, step_map, step_powers

from _oracles import (
    forgetting_floor,
    jacobian_stack,
    per_matrix_compatible_rank,
    per_matrix_effective_rank,
    product_log_spectra,
    task_value,
)

# the dimensions at which stacked calls must match per-matrix calls bit for bit
STACK_DIMS = (2, 8, 16, 32)
THRESHOLDS = ThresholdConfig()


def axis_basis(d, cols):
    return SubspaceBasis(ambient_dim=d, dim=len(cols), basis=np.eye(d)[:, cols])


def test_effective_rank_closed_forms():
    assert capacity.effective_rank(2.0 * np.eye(4)) == pytest.approx(4.0, abs=1e-12)
    j = np.diag([1.0, 1.0, 0.5])
    assert capacity.effective_rank(j) == pytest.approx(0.5 ** (2.0 / 3.0), rel=1e-12)


def test_effective_rank_zero_on_collapse():
    assert capacity.effective_rank(np.diag([1.0, 0.0, 1.0])) == 0.0
    assert capacity.effective_rank(np.diag([1.0, 1e-14, 1.0])) == 0.0


def test_compatible_rank_and_usable_count():
    d = 4
    j = np.diag([1.0, 0.5, 1e-6, 1.0])
    basis = axis_basis(d, [0, 1, 2])
    rank, usable = capacity.compatible_effective_rank(j, basis, THRESHOLDS.tau_sigma)
    assert usable == 2
    assert rank == pytest.approx((0.5 * 1e-6) ** (2.0 / 3.0), rel=1e-9)


@pytest.mark.parametrize("tau", [float("nan"), 0.0, -1e-3])
def test_compatible_rank_rejects_a_threshold_not_above_zero(tau):
    with pytest.raises(ValueError, match="tau_sigma must be > 0"):
        capacity.compatible_effective_rank(np.eye(3), axis_basis(3, [0, 1]), tau)


def test_reconfiguration_dimension_frozen():
    pair = make_task_pair(d=8, k_a=2, spectrum_b_on_a=(2.0, 1.0), rotation_seed=1)
    assert pair.m_b == pytest.approx(1.25, abs=1e-9)


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
    tau = THRESHOLDS.tau_sigma
    logs = log_singular_values(j_bad), log_singular_values(j_bad @ q)
    report = capacity.predict_incompatibility(*logs, pair, tau)
    assert report.usable_direction_count == 1
    assert report.m_b == pytest.approx(2.0, abs=1e-9)
    assert report.predicted_incompatible
    # the log spectra give the general Jacobian's diagnostics
    assert report.effective_rank == capacity.effective_rank(j_bad) == 0.0
    _, usable = capacity.compatible_effective_rank(j_bad, pair.preserving_basis, tau)
    assert report.usable_direction_count == usable
    # leave everything open and the demand fits
    report_ok = capacity.predict_incompatibility(np.zeros(6), np.zeros(3), pair, tau)
    assert report_ok.usable_direction_count == 3
    assert report_ok.effective_rank == 1.0
    assert not report_ok.predicted_incompatible


@pytest.mark.parametrize("step_size", [0.1, 0.8])
def test_power_log_spectra_match_the_step_powers_product(step_size):
    # the eigen route against the explicit products A^k and A^k Q, inside the
    # window where each product resolves them; at eta 0.8 some of the rates
    # are negative, and the preserved ones no longer the largest
    pair = make_task_pair(16, 8, (1.0,) * 8, 7)
    rule = StepRule(step_size=step_size, weight_decay=0.1)
    exponents = list(range(0, 201, 5))
    powers = np.array(list(step_powers(step_map(pair.task_a, rule)[0], exponents)))
    log_rates, eigvecs = step_eigen(pair.task_a.hessian, rule.step_size, rule.weight_decay)
    ours = (
        np.multiply.outer(exponents, np.sort(log_rates)[::-1]),
        capacity.power_log_spectra(log_rates, eigvecs, pair.preserving_basis, exponents),
    )
    refs = product_log_spectra(powers), product_log_spectra(powers, pair.preserving_basis.basis)
    for got, ref in zip(ours, refs):
        window = ~np.isnan(ref)
        assert got.shape == ref.shape and np.count_nonzero(window) > ref.shape[0]
        assert np.max(np.abs(got[window] - ref[window])) <= 1e-12


def test_power_log_spectra_of_a_stack_match_each_member():
    # the sweep's form: one exponent of a stack of step matrices
    spectra = [(1.0,) * m + (0.0,) * (8 - m) for m in range(4)]
    pairs = make_task_pair(16, 8, spectra, [3, 4, 5, 6])
    log_rates, eigvecs = step_eigen(pairs.task_a.hessian, 0.1, 0.2)
    stacked = capacity.power_log_spectra(log_rates, eigvecs, pairs.preserving_basis, 40)
    assert stacked.shape == (4, 8)
    for i, q in enumerate(pairs.preserving_basis.basis):
        alone = step_eigen(pairs.task_a.hessian[i], 0.1, 0.2)
        basis = SubspaceBasis(ambient_dim=16, dim=8, basis=q)
        assert np.array_equal(capacity.power_log_spectra(*alone, basis, [40])[0], stacked[i])
        power = next(step_powers(np.eye(16) - 0.1 * (pairs.task_a.hessian[i] + 0.2 * np.eye(16)), [40]))
        assert np.max(np.abs(stacked[i] - product_log_spectra([power], q)[0])) <= 1e-12


def test_power_log_spectra_of_a_zero_rate_raise_no_float_fault():
    # a rate of exactly 0 has log -inf: A^0 is still I, and A^k a collapse
    h = np.diag([2.0, 1.0, 0.0])
    log_rates, eigvecs = step_eigen(h, 0.5, 0.0)
    assert log_rates.tolist() == [0.0, np.log(0.5), float("-inf")]
    with np.errstate(all="raise"):
        logs = capacity.power_log_spectra(log_rates, eigvecs, axis_basis(3, [0, 1, 2]), [0, 1, 2])
        half = np.log(0.5)
        assert logs.tolist() == [[0.0] * 3, [0.0, half, float("-inf")], [0.0, 2 * half, float("-inf")]]
        assert capacity.spectra_effective_rank(logs).tolist() == [1.0, 0.0, 0.0]




def flat_axis_task():
    return QuadraticTask(dim=3, hessian=np.diag([2.0, 1.0, 0.0]), minimizer=np.zeros(3))


def test_forgetting_measured_against_curvature():
    task = flat_axis_task()
    start = np.array([0.0, 0.0, 1.5])
    final = np.array([0.3, 0.0, -2.0])
    forgetting = task_value(task, final) - task_value(task, start)
    assert forgetting == pytest.approx(0.09, abs=1e-14)
    assert forgetting > THRESHOLDS.epsilon_a
    # distance 0.3 from the optimal set at smallest positive curvature 1
    assert forgetting_floor(task, final) == pytest.approx(0.045, abs=1e-14)


def test_forgetting_bound_tight_along_soft_direction():
    task = flat_axis_task()
    # exit purely along the curvature-1 axis saturates the bound
    final = np.array([0.0, 0.7, 0.0])
    bound_check = task_value(task, final) - task_value(task, np.zeros(3)) - forgetting_floor(task, final)
    assert bound_check == pytest.approx(0.0, abs=1e-12)
    assert bound_check >= -1e-10


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
    rank, _ = capacity.compatible_effective_rank(mats, full, THRESHOLDS.tau_sigma)
    assert np.array_equal(rank, capacity.effective_rank(mats))


def test_jacobian_list_validation():
    for bad in ([], np.ones(3), np.ones((3, 4)), np.ones((2, 3, 4))):
        with pytest.raises(ValueError, match="expected square"):
            capacity.effective_rank(bad)
    with pytest.raises(ValueError):
        capacity.effective_rank([np.eye(3), np.eye(4)])
    basis = axis_basis(3, [0, 1])
    for bad in (np.eye(4), np.ones((3, 4)), np.ones(3)):
        with pytest.raises(ValueError, match="expected square"):
            capacity.compatible_effective_rank(bad, basis, THRESHOLDS.tau_sigma)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", STACK_DIMS)
def test_stacked_rank_functions_match_per_matrix_loop(d):
    stack = jacobian_stack(d)
    q, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d, max(d // 2, 1))))
    basis = SubspaceBasis(ambient_dim=d, dim=q.shape[1], basis=q)
    tau = 0.5
    # one matrix gives one number
    for m in stack:
        assert capacity.effective_rank(m) == per_matrix_effective_rank(m)
        assert capacity.compatible_effective_rank(m, basis, tau) == (
            per_matrix_compatible_rank(m, q, tau)
        )
    # a stack gives one number per matrix, whatever its leading axes
    ranks = capacity.effective_rank(stack)
    assert np.array_equal(ranks, [per_matrix_effective_rank(m) for m in stack])
    assert ranks[1] == ranks[2] == 0.0 and np.all(ranks[[0, 3, 4, 5]] > 0.0)
    assert np.array_equal(capacity.effective_rank(stack.reshape(2, 3, d, d)), ranks.reshape(2, 3))
    compat, usable = capacity.compatible_effective_rank(stack, basis, tau)
    expected = [per_matrix_compatible_rank(m, q, tau) for m in stack]
    assert np.array_equal(compat, [c for c, _ in expected])
    assert np.array_equal(usable, [u for _, u in expected])


def test_spectra_effective_rank_of_no_spectra_is_a_one_line_value_error():
    with pytest.raises(ValueError, match="empty") as err:
        capacity.spectra_effective_rank([])
    assert "\n" not in str(err.value)
