import collections
import dataclasses

import numpy as np
import pytest

from reconcap import thermo
from reconcap.config import ConfigError, ThermoConfig, default_config
from reconcap.gaussian import GaussianState, clamped_state
from reconcap.scenarios import run_scenario
from reconcap.tasks import QuadraticTask
from reconcap.transport import StepRule

from _oracles import (
    gibbs_state,
    mc_entropy,
    mc_evolved_moments,
    sinkhorn_w2,
    sorted_coupling_w2,
    stationary_covariance,
)

# standard Gaussian in one dimension: (1 + log(2 pi)) / 2
ENTROPY_STANDARD_1D = 1.4189385332046727


def toy_task():
    return QuadraticTask(
        dim=2, hessian=np.diag([1.0, 0.5]), minimizer=np.array([1.0, -1.0])
    )


def hot_rule(eta=0.05, temp=0.3):
    return StepRule(kind="langevin", step_size=eta, noise_scale=temp)


def test_entropy_frozen_value_and_mc():
    g = GaussianState(mean=np.zeros(1), covariance=np.eye(1))
    assert thermo.entropy(g) == pytest.approx(ENTROPY_STANDARD_1D, abs=1e-14)
    cov = np.array([[2.0, 0.7], [0.7, 1.0]])
    g2 = GaussianState(mean=np.array([3.0, -1.0]), covariance=cov)
    est = mc_entropy(g2.mean, cov, n=400_000, seed=1)
    assert thermo.entropy(g2) == pytest.approx(est, abs=5e-3)


def test_gibbs_minimizes_free_energy():
    task = toy_task()
    temp = 0.4
    g_star = gibbs_state(task, temp)
    best = thermo.free_energy(g_star, task, temp)
    rng = np.random.default_rng(2)
    for _ in range(25):
        mean = g_star.mean + 0.5 * rng.standard_normal(2)
        b = rng.standard_normal((2, 2))
        cov = g_star.covariance + 0.2 * b @ b.T
        g = GaussianState(mean=mean, covariance=cov)
        assert thermo.free_energy(g, task, temp) > best


@pytest.mark.parametrize("temperature", [float("nan"), -0.1])
def test_free_energy_rejects_nan_and_negative_temperature(temperature):
    g = GaussianState(mean=np.zeros(2), covariance=np.eye(2))
    with pytest.raises(ValueError, match="temperature must be >= 0"):
        thermo.free_energy(g, toy_task(), temperature)


def test_gibbs_state_pins_flat_directions():
    task = QuadraticTask(dim=3, hessian=np.diag([2.0, 1.0, 0.0]), minimizer=np.zeros(3))
    g = gibbs_state(task, temperature=0.5, null_variance=7.0)
    assert np.allclose(np.diag(g.covariance), [0.25, 0.5, 7.0], atol=1e-12)


def test_evolution_matches_monte_carlo():
    task = toy_task()
    rule = hot_rule()
    g = GaussianState(mean=np.array([2.0, 2.0]), covariance=0.4 * np.eye(2))
    state = thermo.simulate_relaxation(g, task, rule, 30)[0][-1]
    drift = np.eye(2) - rule.step_size * task.hessian
    shift = rule.step_size * task.hessian @ task.minimizer
    emp_mean, emp_cov = mc_evolved_moments(
        g.mean,
        g.covariance,
        drift,
        shift,
        2.0 * rule.noise_scale * rule.step_size,
        n_steps=30,
        n_samples=300_000,
        seed=3,
    )
    assert np.allclose(state.mean, emp_mean, atol=5e-3)
    assert np.allclose(state.covariance, emp_cov, atol=2e-2)


def test_long_run_reaches_discrete_stationary_covariance():
    task = toy_task()
    rule = hot_rule()
    drift = np.eye(2) - rule.step_size * task.hessian
    target = stationary_covariance(drift, 2.0 * rule.noise_scale * rule.step_size * np.eye(2))
    start = GaussianState(mean=np.zeros(2), covariance=3.0 * np.eye(2))
    state = thermo.simulate_relaxation(start, task, rule, 2000)[0][-1]
    assert np.allclose(state.covariance, target, atol=1e-10)
    # discretization shifts the fixed point away from T H^{-1} only at O(eta)
    ideal = rule.noise_scale * np.linalg.inv(task.hessian)
    assert np.linalg.norm(target - ideal) < rule.step_size * np.linalg.norm(ideal)


def test_evolution_rejects_unstable_step():
    task = QuadraticTask(dim=1, hessian=np.array([[3.0]]), minimizer=np.zeros(1))
    g = GaussianState(mean=np.zeros(1), covariance=np.eye(1))
    with pytest.raises(ValueError):
        thermo.simulate_relaxation(
            g, task, StepRule(kind="langevin", step_size=0.7, noise_scale=0.1), 1
        )


def test_evolution_rejects_the_stability_boundary_as_validate_does():
    # eta * lambda_max = 0.5 * 4 = 2 exactly: one bound for the run and the config
    rule = StepRule(kind="langevin", step_size=0.5, noise_scale=0.5)
    cfg = dataclasses.replace(
        default_config("esl-gap"),
        rule=rule,
        n_steps=2,
        thermo=ThermoConfig(start_mean=(1.0, 1.0), hessian_spectrum=(4.0, 0.5)),
    )
    with pytest.raises(ConfigError, match="unstable"):
        cfg.validate()
    task = QuadraticTask(dim=2, hessian=np.diag([4.0, 0.5]), minimizer=np.zeros(2))
    g = GaussianState(mean=np.ones(2), covariance=0.02 * np.eye(2))
    with pytest.raises(ValueError, match="unstable"):
        thermo.simulate_relaxation(g, task, rule, 2)


def test_entropy_production_vanishes_at_equilibrium():
    task = toy_task()
    rule = hot_rule()
    g_star = gibbs_state(task, rule.noise_scale)
    assert thermo.entropy_production_step(g_star, task, rule) < 1e-12
    g = GaussianState(mean=np.array([3.0, 0.0]), covariance=0.2 * np.eye(2))
    assert thermo.entropy_production_step(g, task, rule) > 0.1


def test_entropy_production_free_diffusion_value():
    # zero curvature: sigma = eta * T * tr(Sigma^{-1}); here 0.1 * 8 / 2
    task = QuadraticTask(dim=2, hessian=np.zeros((2, 2)), minimizer=np.zeros(2))
    rule = StepRule(kind="langevin", step_size=0.1, noise_scale=2.0)
    g = GaussianState(mean=np.zeros(2), covariance=np.eye(2))
    assert thermo.entropy_production_step(g, task, rule) == pytest.approx(0.4, abs=1e-13)


def test_entropy_production_requires_heat_bath():
    task = toy_task()
    g = GaussianState(mean=np.zeros(2), covariance=np.eye(2))
    with pytest.raises(ValueError):
        thermo.entropy_production_step(g, task, StepRule(kind="gradient_descent", step_size=0.1))


def test_ledger_accounting_identity():
    sigmas = [0.5, 0.25, 0.125]
    energies = [2.0, 1.5, 1.25, 1.2]
    ledger = thermo.DissipationLedger.from_series(sigmas, energies, temperature=0.5)
    assert ledger.total == pytest.approx(0.875)
    assert ledger.excess == pytest.approx(0.875 - (2.0 - 1.2) / 0.5)


def test_ledger_validation():
    with pytest.raises(ValueError):
        thermo.DissipationLedger.from_series([0.1], [1.0], temperature=0.5)
    with pytest.raises(ValueError):
        thermo.DissipationLedger.from_series([-0.1], [1.0, 0.9], temperature=0.5)
    with pytest.raises(ValueError):
        thermo.DissipationLedger.from_series([0.1], [1.0, 0.9], temperature=0.0)


def test_relaxation_dissipates_free_energy():
    task = toy_task()
    rule = hot_rule(eta=0.02, temp=0.3)
    g0 = GaussianState(mean=np.array([3.0, -4.0]), covariance=0.01 * np.eye(2))
    states, ledger, clamps = thermo.simulate_relaxation(g0, task, rule, 400)
    assert states.mean.shape == (401, 2) and states.covariance.shape == (401, 2, 2)
    assert clamps == 0
    f = ledger.free_energy_series
    assert f[-1] < f[0]
    assert ledger.total > 0.0
    assert ledger.excess > -1e-6


def _esl_gap_default():
    cfg = default_config("esl-gap")
    t = cfg.thermo
    task = QuadraticTask(dim=2, hessian=np.diag(t.hessian_spectrum), minimizer=np.zeros(2))
    g0 = GaussianState(mean=np.array(t.start_mean), covariance=t.start_cov_scale * np.eye(2))
    rule = StepRule(kind="langevin", step_size=cfg.rule.step_size, noise_scale=cfg.rule.noise_scale)
    return g0, task, rule, cfg.n_steps


def _collapsing_start():
    # contraction plus almost no diffusion drives the covariance under the floor
    g0 = GaussianState(mean=np.zeros(2), covariance=1e-12 * np.eye(2))
    return g0, toy_task(), hot_rule(eta=0.5, temp=1e-14), 10


@pytest.mark.parametrize(
    "case, clamps", [(_esl_gap_default, False), (_collapsing_start, True)], ids=["esl-gap", "clamped"]
)
def test_relaxation_equals_iterated_evolve_bitwise(case, clamps):
    # the moment recursion of simulate_relaxation's docstring, iterated here
    g0, task, rule, n = case()
    states, _, clamp_events = thermo.simulate_relaxation(g0, task, rule, n)
    assert (clamp_events > 0) == clamps
    eta, temp = rule.step_size, rule.noise_scale
    a = np.eye(task.dim) - eta * task.hessian
    g = g0
    for k in range(1, n + 1):
        mean = a @ g.mean + eta * task.hessian @ task.minimizer
        cov = a @ g.covariance @ a.T + 2.0 * temp * eta * np.eye(task.dim)
        g, _ = clamped_state(mean, cov)
        assert np.array_equal(states.mean[k], g.mean)
        assert np.array_equal(states.covariance[k], g.covariance)


def test_w2_frozen_values():
    a = GaussianState(mean=np.zeros(1), covariance=np.eye(1))
    b = GaussianState(mean=np.array([2.0]), covariance=np.array([[4.0]]))
    # means 2 apart, deviations 1 and 2: sqrt(4 + 1)
    assert thermo.w2_gaussian(a, b) == pytest.approx(np.sqrt(5.0), abs=1e-12)
    c = GaussianState(mean=np.zeros(2), covariance=np.diag([1.0, 4.0]))
    d = GaussianState(mean=np.zeros(2), covariance=np.diag([9.0, 16.0]))
    assert thermo.w2_gaussian(c, d) == pytest.approx(np.sqrt(8.0), abs=1e-12)


def test_w2_metric_axioms():
    rng = np.random.default_rng(6)
    states = []
    for _ in range(6):
        b = rng.standard_normal((3, 3))
        states.append(
            GaussianState(mean=rng.standard_normal(3), covariance=b @ b.T + 0.3 * np.eye(3))
        )
    for g in states:
        assert thermo.w2_gaussian(g, g) < 1e-10
    for i in range(6):
        for j in range(i + 1, 6):
            d_ij = thermo.w2_gaussian(states[i], states[j])
            d_ji = thermo.w2_gaussian(states[j], states[i])
            assert d_ij == pytest.approx(d_ji, abs=1e-10)
            assert d_ij > 0.0
    for i, j, k in [(0, 1, 2), (1, 3, 4), (2, 4, 5), (0, 3, 5)]:
        ab = thermo.w2_gaussian(states[i], states[j])
        bc = thermo.w2_gaussian(states[j], states[k])
        ac = thermo.w2_gaussian(states[i], states[k])
        assert ac <= ab + bc + 1e-10


def test_w2_against_sampled_transport_small():
    rng = np.random.default_rng(7)
    g0 = GaussianState(mean=np.array([0.0, 0.0]), covariance=np.array([[1.0, 0.3], [0.3, 0.8]]))
    g1 = GaussianState(mean=np.array([2.5, -1.5]), covariance=np.array([[0.6, -0.1], [-0.1, 1.4]]))
    n = 2000
    x = rng.multivariate_normal(g0.mean, g0.covariance, size=n)
    y = rng.multivariate_normal(g1.mean, g1.covariance, size=n)
    est = sinkhorn_w2(x, y)
    assert thermo.w2_gaussian(g0, g1) == pytest.approx(est, rel=0.05)


def test_w2_one_dimensional_sampled():
    rng = np.random.default_rng(8)
    g0 = GaussianState(mean=np.array([0.5]), covariance=np.array([[1.44]]))
    g1 = GaussianState(mean=np.array([-1.5]), covariance=np.array([[0.25]]))
    x = rng.normal(0.5, 1.2, size=100_000)
    y = rng.normal(-1.5, 0.5, size=100_000)
    assert thermo.w2_gaussian(g0, g1) == pytest.approx(sorted_coupling_w2(x, y), rel=0.01)


def test_geodesic_is_constant_speed():
    rng = np.random.default_rng(9)
    b0 = rng.standard_normal((3, 3))
    b1 = rng.standard_normal((3, 3))
    g0 = GaussianState(mean=rng.standard_normal(3), covariance=b0 @ b0.T + 0.4 * np.eye(3))
    g1 = GaussianState(mean=rng.standard_normal(3), covariance=b1 @ b1.T + 0.4 * np.eye(3))
    path = thermo.ot_geodesic(g0, g1, n_steps=8)
    assert path.mean.shape == (9, 3) and path.covariance.shape == (9, 3, 3)
    assert np.allclose(path.mean[0], g0.mean) and np.allclose(path.mean[-1], g1.mean)
    assert np.allclose(path.covariance[0], g0.covariance, atol=1e-10)
    assert np.allclose(path.covariance[-1], g1.covariance, atol=1e-8)
    total = thermo.w2_gaussian(g0, g1)
    # near zero the distance itself is only good to sqrt(float cancellation)
    expected = np.arange(9) / 8 * total
    assert np.allclose(thermo.w2_gaussian(g0, path), expected, rtol=0.0, atol=3e-7)


def test_geodesic_commuting_covariances_closed_form():
    g0 = GaussianState(mean=np.zeros(2), covariance=np.diag([1.0, 4.0]))
    g1 = GaussianState(mean=np.ones(2), covariance=np.diag([9.0, 1.0]))
    path = thermo.ot_geodesic(g0, g1, n_steps=4)
    mid_cov = path.covariance[2]
    # diagonal case: standard deviations interpolate linearly, (2, 1.5) at s = 1/2
    assert np.allclose(np.sqrt(np.diag(mid_cov)), [2.0, 1.5], atol=1e-10)
    assert abs(mid_cov[0, 1]) < 1e-10
    assert np.allclose(path.mean[2], [0.5, 0.5])


def test_geodesic_action_equals_w2_cost_at_any_resolution():
    rng = np.random.default_rng(10)
    b0 = rng.standard_normal((3, 3))
    b1 = rng.standard_normal((3, 3))
    g0 = GaussianState(mean=rng.standard_normal(3), covariance=b0 @ b0.T + 0.4 * np.eye(3))
    g1 = GaussianState(mean=rng.standard_normal(3), covariance=b1 @ b1.T + 0.4 * np.eye(3))
    task = QuadraticTask(dim=3, hessian=np.eye(3), minimizer=np.zeros(3))
    floor = thermo.w2_gaussian(g0, g1) ** 2 / 2.0
    totals = []
    for n in [3, 10, 100]:
        path = thermo.ot_geodesic(g0, g1, n_steps=n)
        ledger = thermo.geodesic_action_ledger(path, task, temperature=0.5)
        totals.append(ledger.total)
        assert ledger.total == pytest.approx(floor, rel=1e-8)
        assert thermo.esl_slack(ledger, g0, g1) == pytest.approx(0.0, abs=1e-8)
    assert totals[2] <= totals[0] + 1e-9


def test_simulated_run_pays_more_than_the_floor():
    task = toy_task()
    rule = hot_rule(eta=0.02, temp=0.3)
    g0 = GaussianState(mean=np.array([3.0, -4.0]), covariance=0.01 * np.eye(2))
    states, ledger, _ = thermo.simulate_relaxation(g0, task, rule, 50)
    slack = thermo.esl_slack(ledger, states[0], states[-1])
    assert slack > 0.0


def test_series_table_shape():
    task = toy_task()
    rule = hot_rule()
    g0 = GaussianState(mean=np.zeros(2), covariance=np.eye(2))
    states, ledger, _ = thermo.simulate_relaxation(g0, task, rule, 5)
    table = thermo.series_table(states, ledger, g0)
    assert list(table) == ["step", "sigma", "free_energy", "w2_from_start"]
    assert all(column.shape == (6,) for column in table.values())
    assert table["step"].tolist() == list(range(6))
    assert table["sigma"].tolist() == [0.0, *ledger.per_step_sigma.tolist()]
    assert table["w2_from_start"][0] == 0.0


def test_ledger_rejects_non_finite_values():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            thermo.DissipationLedger.from_series([0.1, bad], [1.0, 0.9, 0.8], temperature=0.5)
    with pytest.raises(ValueError, match="temperature"):
        thermo.DissipationLedger.from_series([0.1], [1.0, 0.9], temperature=np.nan)


def test_esl_gap_linalg_call_count(tmp_path, monkeypatch):
    # one stacked call per path, not one per state (about 7,600 before)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, counted(name, fn))
    run_scenario(default_config("esl-gap"), out_dir=tmp_path, check=True)
    assert sum(calls.values()) < 200, dict(calls)
