"""Acceptance suite: one test per shipping criterion, at its stated tolerance.

Each test emits a single summary line (see conftest) so the final report reads
as a checklist.  Constructed-experiment instances are seeded and frozen; the
entropic-transport comparisons dominate the runtime.
"""

import numpy as np
import pytest

from reconcap import capacity, rng, thermo
from reconcap.config import ThresholdConfig, default_config
from reconcap.gaussian import GaussianState, covariance_sqrt
from reconcap.scenarios import run_scenario
from reconcap.spectral import SubspaceBasis, singular_values, spectrum_rank
from reconcap.tasks import QuadraticTask, make_task_pair, random_rotations
from reconcap.transport import StepRule, propagate, step_map, step_powers

from _oracles import STREAM_ORACLE, forgetting_floor, sample_batch, sinkhorn_w2, sorted_coupling_w2, task_value

SEED = 42
THRESHOLDS = ThresholdConfig()


def _controlled_task(dim, seed, trial, lo=0.2, hi=1.8):
    gen = rng.stream(seed, rng.STREAM_TASK, trial)
    spectrum = gen.uniform(lo, hi, size=dim)
    rot = random_rotations(dim, [seed + 7919 * trial + 1])[0]
    h = rot @ np.diag(spectrum) @ rot.T
    return QuadraticTask(
        dim=dim, hessian=(h + h.T) / 2.0, minimizer=gen.standard_normal(dim)
    )


def test_criterion_01_composition_exactness(criterion):
    rules = (
        StepRule(kind="gradient_descent", step_size=0.5),
        StepRule(kind="gradient_descent", step_size=0.5, weight_decay=0.05),
        StepRule(kind="noisy_gradient", step_size=0.5, noise_scale=0.7),
        StepRule(kind="langevin", step_size=0.5, noise_scale=0.3),
    )
    with criterion(1, "split/compose equals direct propagation") as rec:
        # the 1000 trials step as one stack: the full runs, the first parts,
        # then the second parts from where the first ones end, which must
        # reach the full runs' states; each part's Jacobian is its trial's
        # step-matrix power, all read in one pass
        trials = range(1000)
        controlled = [_controlled_task(16, SEED, trial) for trial in trials]
        trial_rules = [rules[trial % len(rules)] for trial in trials]
        n_total, split, theta0 = [], [], []
        for trial in trials:
            gen = rng.stream(SEED, rng.STREAM_TASK, trial, 1)
            n_total.append(int(gen.integers(4, 13)))
            split.append(int(gen.integers(1, n_total[-1])))
            theta0.append(gen.standard_normal(16))
        n_total, split, theta0 = np.array(n_total), np.array(split), np.array(theta0)
        # each trial's step map, built once for both its states and its Jacobians
        a, b = map(np.array, zip(*(step_map(task, rule) for task, rule in zip(controlled, trial_rules))))
        gains = [rule.noise_gain() for rule in trial_rules]

        def run(start, n_steps, offsets):
            return propagate(start, a, b, gains, n_steps, SEED, trials, offsets, "task", final_only=True)

        end = run(theta0, n_total, [0] * 1000)
        mid = run(theta0, split, [0] * 1000)
        states_exact = np.array_equal(run(mid, n_total - split, split), end)
        lengths = np.array([n_total, split, n_total - split])
        full, first, second = np.empty((3, 1000, 16, 16))
        for k, power in enumerate(step_powers(a, range(int(n_total.max()) + 1))):
            for jac, n in zip((full, first, second), lengths):
                jac[n == k] = power[n == k]
        joined = second @ first
        scale = np.max(np.abs(full), axis=(1, 2))
        err = np.max(np.abs(joined - full), axis=(1, 2)) / np.maximum(scale, 1e-300)
        worst = float(np.max(err))
        rec.detail = f"max relative error {worst:.2e} over 1000 triples (tol 1e-10); resumed states exact {states_exact}"
        rec.ok = worst <= 1e-10 and states_exact


def test_criterion_02_submultiplicativity(criterion):
    with criterion(2, "rank and singular-value product bounds") as rec:
        violations = 0
        for trial in range(1000):
            gen = rng.stream(SEED, rng.STREAM_TASK, trial, 2)
            d = int(gen.integers(2, 33))

            def draw(sub_seed):
                s = gen.uniform(0.5, 2.0, size=d)
                s[gen.random(d) < 0.3] = 0.0
                u = random_rotations(d, [sub_seed])[0]
                v = random_rotations(d, [sub_seed + 1])[0]
                return u @ np.diag(s) @ v.T, s

            a, s_a = draw(SEED + 104729 * trial + 11)
            b, s_b = draw(SEED + 104729 * trial + 13)
            sv_p = singular_values(a @ b)
            sv_a = np.sort(s_a)[::-1]
            sv_b = np.sort(s_b)[::-1]
            bound = np.minimum(sv_a * sv_b[0], sv_a[0] * sv_b)
            tol = 1e-10 * max(sv_a[0] * sv_b[0], 1.0)
            rank_ok = spectrum_rank(sv_p) <= min(
                int(np.sum(s_a > 0)), int(np.sum(s_b > 0))
            )
            if not rank_ok or float(np.max(sv_p - bound)) > tol:
                violations += 1
        rec.detail = f"{violations} violations over 1000 pairs at d <= 32"
        rec.ok = violations == 0


def test_criterion_03_effective_rank_closed_forms(criterion):
    with criterion(3, "volume-rank closed forms and full-basis projection") as rec:
        errs = []
        errs.append(abs(capacity.effective_rank(np.eye(5)) - 1.0))
        for c in (0.3, 0.9, 1.7):
            errs.append(abs(capacity.effective_rank(c * np.eye(4)) - c * c))
        # one contracted direction inside a 2-dim preserved subspace
        basis = SubspaceBasis(ambient_dim=6, dim=2, basis=np.eye(6)[:, :2])
        for c in (0.2, 0.8):
            j = np.eye(6)
            j[0, 0] = c
            compat, _ = capacity.compatible_effective_rank(j, basis, THRESHOLDS.tau_sigma)
            errs.append(abs(compat - c))
        worst = max(errs)

        full_basis = SubspaceBasis(ambient_dim=7, dim=7, basis=np.eye(7))
        gen = rng.stream(SEED, rng.STREAM_TASK, 0, 3)
        exact = True
        for _ in range(50):
            j = gen.standard_normal((7, 7))
            compat, _ = capacity.compatible_effective_rank(j, full_basis, THRESHOLDS.tau_sigma)
            exact = exact and compat == capacity.effective_rank(j)
        rec.detail = (
            f"closed-form error {worst:.2e} (tol 1e-12); "
            f"identity-basis projection exact: {exact}"
        )
        rec.ok = worst <= 1e-12 and exact


def test_criterion_04_rank_monotonicity(criterion):
    with criterion(4, "compatible rank and usable count nonincreasing") as rec:
        worst = 0.0
        usable_ok = True
        for trial in range(200):
            gen = rng.stream(SEED, rng.STREAM_TASK, trial, 4)
            d = int(gen.integers(6, 17))
            k_a = int(gen.integers(2, d - 1))
            pair = make_task_pair(
                d, k_a, (1.0,) * k_a, SEED + trial,
                a_spectrum=gen.uniform(0.3, 3.0, d - k_a),
            )
            wd = (0.0, 0.05, 0.3)[trial % 3]
            lam_max = float(np.max(np.linalg.eigvalsh(pair.task_a.hessian)))
            eta = float(gen.uniform(0.1, 1.0)) * 2.0 / (lam_max + wd)
            rule = StepRule(kind="gradient_descent", step_size=eta, weight_decay=wd)
            a_mat = step_map(pair.task_a, rule)[0]
            m = np.eye(d)
            prev_rank, prev_usable = capacity.compatible_effective_rank(
                m, pair.preserving_basis, THRESHOLDS.tau_sigma
            )
            for _ in range(30):
                m = a_mat @ m
                rank_now, usable_now = capacity.compatible_effective_rank(
                    m, pair.preserving_basis, THRESHOLDS.tau_sigma
                )
                worst = max(worst, rank_now - prev_rank)
                usable_ok = usable_ok and usable_now <= prev_usable
                prev_rank, prev_usable = rank_now, usable_now
        rec.detail = (
            f"max rank increase {worst:.2e} over 200 trajectories (tol 1e-10); "
            f"usable counts monotone: {usable_ok}"
        )
        rec.ok = worst <= 1e-10 and usable_ok


THERMO_TASK = QuadraticTask(
    dim=2, hessian=np.diag([2.0, 0.5]), minimizer=np.zeros(2)
)
THERMO_START = GaussianState(mean=np.array([2.0, -1.5]), covariance=0.02 * np.eye(2))
THERMO_T = 0.5


def _relaxation_residuals(eta):
    rule = StepRule(kind="langevin", step_size=eta, noise_scale=THERMO_T)
    n = round(1.0 / eta)
    _, ledger, _ = thermo.simulate_relaxation(THERMO_START, THERMO_TASK, rule, n)
    f = ledger.free_energy_series
    res = np.array(
        [THERMO_T * ledger.per_step_sigma[k] - (f[k] - f[k + 1]) for k in range(n)]
    )
    identity_gap = abs(
        ledger.total - (f[0] - f[-1]) / THERMO_T - ledger.excess
    )
    return ledger, float(np.max(np.abs(res))), float(np.max(np.diff(f))), identity_gap


def test_criterion_05_dissipation_bookkeeping(criterion):
    with criterion(5, "per-step dissipation ledger closes") as rec:
        details = []
        ok = True
        for eta in (1e-2, 1e-3, 1e-4):
            ledger, max_res, max_f_inc, identity_gap = _relaxation_residuals(eta)
            _, half_res, _, _ = _relaxation_residuals(eta / 2.0)
            ratio = max_res / half_res
            ok = ok and identity_gap == 0.0
            ok = ok and ledger.excess >= -1e-6
            ok = ok and max(max_f_inc, 0.0) <= 50.0 * eta * eta
            ok = ok and ratio >= 1.8
            details.append(f"eta={eta:g}: residual ratio {ratio:.2f}")
        rec.detail = "; ".join(details) + " (identity exact, excess >= -1e-6)"
        rec.ok = ok


def _random_relaxation(i):
    gen = rng.stream(9000, STREAM_ORACLE, i)
    d = int(gen.integers(2, 4))
    spectrum = gen.uniform(0.5, 2.0, d)
    rot = random_rotations(d, [9000 + 31 * i])[0]
    h = rot @ np.diag(spectrum) @ rot.T
    task = QuadraticTask(dim=d, hessian=(h + h.T) / 2.0, minimizer=gen.standard_normal(d))
    temp = float(gen.uniform(0.2, 1.0))
    u = gen.standard_normal(d)
    u /= np.linalg.norm(u)
    mu0 = task.minimizer + float(gen.uniform(1.0, 3.0)) * u
    s0 = float(gen.uniform(0.05, 0.5)) * temp / float(np.max(spectrum))
    eta = float(gen.uniform(0.01, 0.05))
    rule = StepRule(kind="langevin", step_size=eta, noise_scale=temp)
    g0 = GaussianState(mean=mu0, covariance=s0 * np.eye(d))
    states, ledger, _ = thermo.simulate_relaxation(g0, task, rule, int(1.0 / eta))
    return task, temp, g0, states[-1], ledger


def test_criterion_06_speed_limit_and_saturation(criterion):
    with criterion(6, "dissipation dominates squared transport distance") as rec:
        min_slack = np.inf
        dominated = True
        for i in range(100):
            task, temp, g0, g_end, ledger = _random_relaxation(i)
            slack = thermo.esl_slack(ledger, g0, g_end)
            min_slack = min(min_slack, slack)
            geo = thermo.ot_geodesic(g0, g_end, 200)
            geo_ledger = thermo.geodesic_action_ledger(geo, task, temp)
            floor = 0.5 * thermo.w2_gaussian(g0, g_end) ** 2
            dominated = dominated and slack > geo_ledger.total - floor

        # saturation on the ideal path, plus refinement behavior
        task, temp, g0, g_end, _ = _random_relaxation(0)
        floor = 0.5 * thermo.w2_gaussian(g0, g_end) ** 2
        slack_fine = (
            thermo.geodesic_action_ledger(
                thermo.ot_geodesic(g0, g_end, 1000), task, temp
            ).total
            - floor
        )
        slack_coarse = (
            thermo.geodesic_action_ledger(
                thermo.ot_geodesic(g0, g_end, 100), task, temp
            ).total
            - floor
        )
        rec.detail = (
            f"min slack {min_slack:.3f} over 100 runs (tol -1e-6); geodesic slack "
            f"{slack_fine:.2e} <= 5% of floor {floor:.3f}; refinement fine<=coarse: "
            f"{slack_fine <= slack_coarse + 1e-7}; dynamics dominate: {dominated}"
        )
        rec.ok = (
            min_slack >= -1e-6
            and abs(slack_fine) <= 0.05 * floor
            and slack_fine <= slack_coarse + 1e-7
            and dominated
        )


def _gaussian_pair(i):
    d = (1, 2, 3)[i % 3]
    gen = rng.stream(7100, STREAM_ORACLE, i)

    def one(offset):
        spectrum = gen.uniform(0.3, 2.0, d)
        rot = random_rotations(d, [7100 + 17 * i + offset])[0]
        cov = rot @ np.diag(spectrum) @ rot.T
        return (cov + cov.T) / 2.0

    mu1 = gen.standard_normal(d)
    direction = gen.standard_normal(d)
    direction /= np.linalg.norm(direction)
    # displacement dominates the distance: the sampled-transport comparison
    # carries a ~0.06 additive graininess floor on the squared cost at this
    # sample size, so the squared distance must sit well above it
    mu2 = mu1 + float(gen.uniform(2.0, 3.0)) * direction
    return (
        GaussianState(mean=mu1, covariance=one(0)),
        GaussianState(mean=mu2, covariance=one(1)),
    )


def _standardized_batch(state, n, master_seed):
    # moment-correct the draw so the cloud carries exactly the claimed mean
    # and covariance; the comparison then probes the transport computation
    # instead of the O(n^-1/2) fluctuation of the sample moments
    x = sample_batch(state, n, master_seed)
    centered = x - x.mean(axis=0)
    emp = centered.T @ centered / (n - 1)
    white = np.linalg.solve(np.linalg.cholesky(emp), centered.T)
    return state.mean + (covariance_sqrt(state.covariance) @ white).T


@pytest.mark.slow
def test_criterion_07_w2_against_transport_oracle(criterion):
    with criterion(7, "closed-form W2 matches sampled optimal transport") as rec:
        worst_rel = 0.0
        n = 10_000
        for i in range(20):
            g1, g2 = _gaussian_pair(i)
            x = _standardized_batch(g1, n, 7200 + 2 * i)
            y = _standardized_batch(g2, n, 7200 + 2 * i + 1)
            closed = thermo.w2_gaussian(g1, g2)
            sampled = (
                sorted_coupling_w2(x, y) if g1.dim == 1 else sinkhorn_w2(x, y)
            )
            worst_rel = max(worst_rel, abs(closed - sampled) / closed)

        axiom_err = 0.0
        positive = True
        for i in range(30):
            gen = rng.stream(7300, STREAM_ORACLE, i)
            d = 1 + i % 3

            def one(offset):
                spectrum = gen.uniform(0.3, 2.0, d)
                rot = random_rotations(d, [7300 + 17 * i + offset])[0]
                cov = rot @ np.diag(spectrum) @ rot.T
                return GaussianState(
                    mean=gen.standard_normal(d), covariance=(cov + cov.T) / 2.0
                )

            a, b, c = one(0), one(1), one(2)
            # identity checked on the squared distance: the square root of a
            # cancellation-level residual is not resolvable at 1e-10
            axiom_err = max(axiom_err, thermo.w2_gaussian(a, a) ** 2)
            axiom_err = max(
                axiom_err, abs(thermo.w2_gaussian(a, b) - thermo.w2_gaussian(b, a))
            )
            axiom_err = max(
                axiom_err,
                thermo.w2_gaussian(a, c)
                - thermo.w2_gaussian(a, b)
                - thermo.w2_gaussian(b, c),
            )
            positive = positive and thermo.w2_gaussian(a, b) > 0.0
        rec.detail = (
            f"max relative gap {worst_rel:.4f} over 20 pairs (tol 0.02); "
            f"metric-axiom error {axiom_err:.2e} (tol 1e-10); positivity {positive}"
        )
        rec.ok = worst_rel <= 0.02 and axiom_err <= 1e-10 and positive


def test_criterion_08_forgetting_lower_bound(criterion):
    with criterion(8, "curvature lower bound on forgetting") as rec:
        worst = 0.0
        for trial in range(1000):
            gen = rng.stream(SEED, rng.STREAM_TASK, trial, 8)
            d = int(gen.integers(4, 13))
            k_a = int(gen.integers(1, d))
            pair = make_task_pair(
                d, k_a, (1.0,) * k_a, SEED + 3 * trial,
                a_spectrum=gen.uniform(0.3, 3.0, d - k_a),
            )
            q = pair.preserving_basis.basis
            start = pair.task_a.minimizer + q @ gen.standard_normal(k_a)
            final = start + 0.7 * gen.standard_normal(d)
            forgetting = task_value(pair.task_a, final) - task_value(pair.task_a, start)
            worst = min(worst, forgetting - forgetting_floor(pair.task_a, final))
        rec.detail = f"min bound_check {worst:.2e} over 1000 exits (tol -1e-10)"
        rec.ok = worst >= -1e-10


def test_criterion_09_capacity_threshold_grid(criterion, tmp_path):
    with criterion(9, "predicted vs observed incompatibility on the grid") as rec:
        cfg = default_config("threshold-sweep")
        summary = run_scenario(cfg, out_dir=tmp_path / "sweep")
        forced_min = summary["forced_exit_forgetting_min"]
        eps_high = cfg.thresholds.epsilon_high
        forced_ok = forced_min is None or forced_min >= eps_high
        forced_txt = "no forced exits" if forced_min is None else f"{forced_min:.3f}"
        rec.detail = (
            f"agreement {summary['n_agree']}/{summary['n_cells']} "
            f"({summary['agreement_rate']:.1%}, need >= 95%); forced-exit "
            f"forgetting min {forced_txt} >= {eps_high:g}: {forced_ok}"
        )
        rec.ok = (
            summary["agreement_rate"] >= 0.95
            and summary["zero_usable_all_incompatible"]
            and forced_ok
        )


def test_criterion_10_proxy_rank_correlation(criterion, tmp_path):
    with criterion(10, "probe spread tracks usable directions") as rec:
        summary = run_scenario(default_config("proxy-probe"), out_dir=tmp_path / "probe")
        rho = summary["spearman_pr_vs_usable"]
        rec.detail = (
            f"Spearman {rho:.4f} over {summary['n_checkpoints']} checkpoints "
            f"(need >= 0.8)"
        )
        rec.ok = rho >= 0.8


def test_criterion_11_byte_determinism(criterion, tmp_path):
    with criterion(11, "identical config and seed replay byte-for-byte") as rec:
        identical = True
        checked = 0
        for name in ("esl-gap", "proxy-probe"):
            cfg = default_config(name)
            run_scenario(cfg, out_dir=tmp_path / f"{name}-a")
            run_scenario(cfg, out_dir=tmp_path / f"{name}-b")
            for path in sorted((tmp_path / f"{name}-a").iterdir()):
                if path.name == "manifest.json":
                    continue
                twin = tmp_path / f"{name}-b" / path.name
                identical = identical and path.read_bytes() == twin.read_bytes()
                checked += 1
        rec.detail = f"{checked} files byte-compared across repeated runs"
        rec.ok = identical and checked == 7
