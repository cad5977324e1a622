import numpy as np
import pytest

from reconcap import rng, tasks, transport
from reconcap.config import default_config
from reconcap.scenarios import decaying_pair

from _oracles import per_run_propagation, singulars_via_gram


def flat_task(d=2):
    return tasks.QuadraticTask(
        dim=d, hessian=np.diag([1.0] + [0.0] * (d - 1)), minimizer=np.zeros(d)
    )


def random_task(seed, d=6):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((d, d))
    return tasks.QuadraticTask(dim=d, hessian=b @ b.T / d, minimizer=rng.standard_normal(d))


def test_stability_bound_on_a_stack_bounds_its_largest_curvature():
    pair = tasks.make_task_pair(6, 2, [(float(s), 0.5) for s in range(1, 7)], list(range(6)))
    lam_max = pair.task_b.lam_max
    assert np.allclose(lam_max, np.arange(1, 7), atol=1e-12)
    transport.StepRule(step_size=0.3).require_stable(pair.task_a.lam_max)
    transport.StepRule(step_size=0.3).require_stable(lam_max)
    # the stack raises the message of its largest member alone
    with pytest.raises(ValueError) as stacked:
        transport.StepRule(step_size=0.35).require_stable(lam_max)
    with pytest.raises(ValueError) as alone:
        transport.StepRule(step_size=0.35).require_stable(float(lam_max[-1]))
    assert str(stacked.value) == str(alone.value) == "step_size: eta * lambda_max = 2.1000 >= 2 (unstable)"


def test_step_jacobian_plain():
    rule = transport.StepRule(kind="gradient_descent", step_size=0.5)
    j = transport.step_map(flat_task(), rule)[0]
    assert np.array_equal(j, np.diag([0.5, 1.0]))


def test_step_jacobian_with_decay():
    rule = transport.StepRule(kind="gradient_descent", step_size=0.5, weight_decay=0.2)
    j = transport.step_map(flat_task(), rule)[0]
    assert np.allclose(j, np.diag([0.4, 0.9]), atol=1e-15)


def test_step_jacobian_ignores_noise_scale():
    noisy = transport.StepRule(kind="noisy_gradient", step_size=0.5, noise_scale=3.0)
    hot = transport.StepRule(kind="langevin", step_size=0.5, noise_scale=3.0)
    j_ref = np.diag([0.5, 1.0])
    assert np.array_equal(transport.step_map(flat_task(), noisy)[0], j_ref)
    assert np.array_equal(transport.step_map(flat_task(), hot)[0], j_ref)


@pytest.mark.parametrize("scenario", ["rank-decay", "proxy-probe"])
def test_contraction_rates_are_the_step_matrix_eigenvalues(scenario):
    cfg = default_config(scenario)
    pair = decaying_pair(cfg)
    closed = np.sort(np.abs(transport.contraction_rates(pair, cfg.rule)))
    numeric = np.sort(np.abs(np.linalg.eigvalsh(transport.step_map(pair.task_a, cfg.rule)[0])))
    assert np.all(np.abs(closed - numeric) <= 10 * np.spacing(numeric))


def test_weight_decay_only_for_plain_descent():
    with pytest.raises(ValueError):
        transport.StepRule(kind="langevin", step_size=0.1, noise_scale=1.0, weight_decay=0.1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "langevin", "noise_scale": float("nan")},
        {"kind": "noisy_gradient", "noise_scale": float("nan")},
        {"kind": "gradient_descent", "weight_decay": float("nan")},
        {"kind": "langevin", "noise_scale": -0.1},
        {"kind": "gradient_descent", "weight_decay": -0.1},
    ],
)
def test_step_rule_rejects_nan_and_negative_scales(kwargs):
    with pytest.raises(ValueError, match="must be >= 0"):
        transport.StepRule(step_size=0.1, **kwargs)


def propagate_members(members, omega_seed, label="task", **kwargs):
    """``transport.propagate`` over members ``(task, rule, theta0, n_steps,
    realization, step_offset)``, each stepping its ``step_map`` with its
    rule's noise gain."""
    tasks_, rules, starts, lengths, realizations, offsets = zip(*members)
    a, b = zip(*(transport.step_map(task, rule) for task, rule in zip(tasks_, rules)))
    return transport.propagate(
        np.array(starts, dtype=float),
        np.array(a),
        np.array(b),
        [rule.noise_gain() for rule in rules],
        lengths,
        omega_seed,
        realizations,
        offsets,
        label,
        **kwargs,
    )


def step_matrices(members):
    """The step matrices ``(m, d, d)`` of members ``(task, rule, ...)``."""
    return np.array([transport.step_map(task, rule)[0] for task, rule, *_ in members])


def test_cumulative_jacobian_matches_matrix_power():
    task = random_task(3)
    rule = transport.StepRule(kind="gradient_descent", step_size=0.05)
    a = transport.step_map(task, rule)[0]
    expected = np.linalg.matrix_power(a, 40)
    assert np.allclose(next(transport.step_powers(a, [40])), expected, rtol=1e-11, atol=1e-13)


def test_descent_converges_to_minimizer():
    rng = np.random.default_rng(5)
    d = 6
    b = rng.standard_normal((d, d))
    task = tasks.QuadraticTask(
        dim=d, hessian=b @ b.T / d + 0.3 * np.eye(d), minimizer=rng.standard_normal(d)
    )
    rule = transport.StepRule(kind="gradient_descent", step_size=0.1)
    finals = propagate_members([(task, rule, np.zeros(d), 3000, 0, 0)], 0, final_only=True)
    assert np.linalg.norm(finals[0] - task.minimizer) < 1e-8


def test_noise_stream_determinism():
    task = random_task(6)
    rule = transport.StepRule(kind="langevin", step_size=0.05, noise_scale=0.3)
    members = [(task, rule, np.zeros(task.dim), 50, realization, 0) for realization in (0, 1)]
    states = propagate_members(members, omega_seed=11)
    again = propagate_members(members[:1], omega_seed=11)
    assert np.array_equal(states[0], again[0])
    assert not np.array_equal(states[0], states[1])


def test_plain_descent_never_touches_the_noise_stream():
    task = random_task(7)
    rule = transport.StepRule(kind="gradient_descent", step_size=0.05)
    members = [(task, rule, np.ones(task.dim), 20, 0, 0)]
    a = propagate_members(members, omega_seed=1)
    b = propagate_members(members, omega_seed=99)
    assert np.array_equal(a, b)


def test_noise_conventions_coincide_when_scales_match():
    # eta*s for the one equals sqrt(2*T*eta) for the other at these values,
    # and both read the same stream, so the paths agree bit for bit
    task = random_task(8)
    noisy = transport.StepRule(kind="noisy_gradient", step_size=0.5, noise_scale=1.0)
    hot = transport.StepRule(kind="langevin", step_size=0.5, noise_scale=0.25)
    members = [(task, rule, np.zeros(task.dim), 30, 0, 0) for rule in (noisy, hot)]
    states = propagate_members(members, omega_seed=4)
    assert np.array_equal(states[0], states[1])


def test_split_run_composes_to_full_run():
    task = random_task(9)
    rule = transport.StepRule(kind="langevin", step_size=0.05, noise_scale=0.2)
    full = propagate_members([(task, rule, np.ones(task.dim), 24, 0, 0)], 13)
    head = propagate_members([(task, rule, np.ones(task.dim), 10, 0, 0)], 13)
    tail = propagate_members([(task, rule, head[0, -1], 14, 0, 10)], 13)
    assert np.array_equal(np.concatenate([head[0], tail[0, 1:]]), full[0])
    j1, j2, full_jac = transport.step_powers(transport.step_map(task, rule)[0], [10, 14, 24])
    assert np.allclose(j2 @ j1, full_jac, rtol=1e-12)


def test_divergence_raises():
    task = random_task(14)
    rule = transport.StepRule(kind="gradient_descent", step_size=50.0)
    with pytest.raises(transport.DivergenceError):
        propagate_members([(task, rule, np.ones(task.dim), 400, 0, 0)], omega_seed=0)


def test_nan_on_the_final_step_raises():
    # the gradient term overflows to -inf and, on draws with xi > 0, the noise
    # term to +inf, so the state is NaN; a NaN norm is not above the limit
    task = tasks.QuadraticTask(dim=1, hessian=np.array([[1e10]]), minimizer=np.zeros(1))
    rule = transport.StepRule(kind="noisy_gradient", step_size=1e300, noise_scale=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        for seed in range(1, 9):
            with pytest.raises(transport.DivergenceError):
                propagate_members([(task, rule, np.ones(1), 1, 0, 0)], omega_seed=seed)


def test_propagate_rejects_a_negative_step_count():
    # a member of -1 steps would otherwise come back as its start and the identity
    rule = transport.StepRule(kind="gradient_descent", step_size=0.05)
    members = [(random_task(70), rule, np.ones(6), 5, 0, 0), (random_task(71), rule, np.ones(6), -1, 1, 0)]
    for stack in (members, members[1:]):
        with pytest.raises(ValueError, match="n_steps must be >= 0, got -1"):
            propagate_members(stack, omega_seed=0)


def propagate_args(**changes):
    """Arguments of a valid two-member, 6-d ``transport.propagate`` call,
    with some replaced."""
    rule = transport.StepRule(kind="gradient_descent", step_size=0.05)
    a, b = zip(*(transport.step_map(random_task(seed), rule) for seed in (72, 73)))
    args = dict(
        theta0=np.ones((2, 6)),
        a=np.array(a),
        b=np.array(b),
        gains=[0.0, 0.0],
        n_steps=[3, 0],
        omega_seed=0,
        realizations=[0, 1],
        step_offsets=[0, 0],
        label="task",
    )
    return dict(args, **changes)


@pytest.mark.parametrize(
    "changes, message",
    [
        # a 1-d start once failed unpacking its shape
        ({"theta0": np.ones(6)}, r"theta0 must be a finite \(m, d\) array, got shape \(6,\)"),
        # a 5-d start against 6-d step matrices once failed in matmul
        ({"theta0": np.ones((2, 5))}, r"needs a \(2, 5, 5\) and b \(2, 5\), got \(2, 6, 6\) and \(2, 6\)"),
        # a NaN start on a member of zero steps once came back unchecked
        ({"theta0": np.array([[1.0] * 6, [np.nan] * 6])}, "theta0 must be a finite"),
        ({"b": np.zeros((2, 5))}, r"b \(2, 6\), got \(2, 6, 6\) and \(2, 5\)"),
        ({"step_offsets": [0]}, "gains, n_steps, realizations and step_offsets need 2 entries each"),
        ({"gains": [0.0]}, "need 2 entries each"),
    ],
    ids=["1d-start", "start-dim", "nan-start", "b-dim", "offsets", "gains"],
)
def test_propagate_validates_its_inputs(changes, message):
    states = transport.propagate(**propagate_args())
    as_lists = {name: propagate_args()[name].tolist() for name in ("theta0", "a", "b")}
    assert np.array_equal(transport.propagate(**propagate_args(**as_lists)), states)
    with pytest.raises(ValueError, match=r"^propagate: .*" + message):
        transport.propagate(**propagate_args(**changes))


def test_propagate_steps_any_affine_map_its_caller_builds(monkeypatch):
    # non-symmetric step matrices and shifts that no task and rule give, a
    # gain of 0 (no rows drawn) beside nonzero ones and an offset across a
    # noise chunk, against a plain loop of each member's 1-D products
    drawn, draw = [], rng.normal_rows_each

    def recording(master_seed, tag, realizations, *args):
        drawn.extend(realizations)
        return draw(master_seed, tag, realizations, *args)

    monkeypatch.setattr(rng, "normal_rows_each", recording)
    gen = np.random.default_rng(90)
    m, d, seed = 5, 4, 12
    a = 0.3 * gen.standard_normal((m, d, d))
    b, theta0 = gen.standard_normal((2, m, d))
    gains = [0.0, 0.7, 0.0, 1.3, 0.2]
    lengths, realizations, offsets = [6, 0, 9, 4, 9], [3, 1, 4, 1, 5], [0, 2, 7, rng.CHUNK_STEPS - 2, 1]
    args = (theta0, a, b, gains, lengths, seed, realizations, offsets, "affine")
    states = transport.propagate(*args)
    finals = transport.propagate(*args, final_only=True)
    # two calls, each drawing rows for the nonzero gains only
    assert sorted(drawn) == sorted(2 * [r for r, g in zip(realizations, gains) if g])
    for i, n in enumerate(lengths):
        x, expected = theta0[i], [theta0[i]]
        for k in range(offsets[i], offsets[i] + n):
            x = a[i] @ x + b[i]
            if gains[i]:
                chunk, row = divmod(k, rng.CHUNK_STEPS)
                noise = rng.stream(seed, rng.STREAM_STEP_NOISE, realizations[i], chunk).standard_normal((row + 1, d))
                x = x + gains[i] * noise[row]
            expected.append(x)
        assert np.array_equal(states[i, : n + 1], expected), i
        assert not states[i, n + 1 :].any(), i
        assert np.array_equal(finals[i], expected[-1]), i


BITWISE_RULES = (
    transport.StepRule(kind="gradient_descent", step_size=0.05, weight_decay=0.1),
    transport.StepRule(kind="noisy_gradient", step_size=0.05, noise_scale=0.7),
    transport.StepRule(kind="langevin", step_size=0.05, noise_scale=0.3),
)


def gradient_update(theta, task, rule, xi):
    """One step in gradient form, theta - eta * (grad + wd * theta) + g * xi."""
    eta = rule.step_size
    grad = task.hessian @ (theta - task.minimizer)
    if rule.kind is transport.StepKind.GRADIENT_DESCENT:
        return theta - eta * (grad + rule.weight_decay * theta)
    if rule.kind is transport.StepKind.NOISY_GRADIENT:
        return theta - eta * grad + eta * rule.noise_scale * xi
    return theta - eta * grad + np.sqrt(2.0 * rule.noise_scale * eta) * xi


@pytest.mark.parametrize("rule", BITWISE_RULES, ids=lambda r: r.kind.value)
def test_propagate_matches_public_step_bitwise(rule):
    # the oracle loops the step the module docstring states
    task = random_task(17)
    offset, n = 5, 12
    states = propagate_members([(task, rule, np.ones(task.dim), n, 2, offset)], 19)
    expected, jacobian = per_run_propagation(
        np.ones(task.dim), task.hessian, task.minimizer, rule, n, 19, 2, offset
    )
    assert np.array_equal(states[0], expected)
    assert np.array_equal(next(transport.step_powers(transport.step_map(task, rule)[0], [n])), jacobian)


@pytest.mark.parametrize("rule", BITWISE_RULES, ids=lambda r: r.kind.value)
def test_propagate_matches_gradient_form_to_roundoff(rule):
    # the affine and gradient forms of one step differ only in rounding
    n = 200
    for seed in range(23):
        task = random_task(100 + seed)
        states = propagate_members([(task, rule, np.ones(task.dim), n, 0, 0)], seed)
        noise = rng.normal_rows_each(seed, rng.STREAM_STEP_NOISE, [0], [0], [n], task.dim)[0]
        theta = np.ones(task.dim)
        for k in range(n):
            theta = gradient_update(theta, task, rule, noise[k])
            assert np.allclose(states[0, k + 1], theta, rtol=1e-12, atol=1e-12 * np.linalg.norm(theta))


@pytest.mark.parametrize("rule", BITWISE_RULES, ids=lambda r: r.kind.value)
def test_cumulative_jacobian_is_the_left_product_bitwise(rule):
    task = random_task(18)
    j = transport.step_map(task, rule)[0]
    j1, j2 = transport.step_powers(j, [7, 9])
    m = np.eye(task.dim)
    for k in range(9):
        m = j @ m
        if k == 6:
            assert np.array_equal(j1, m)
    assert np.array_equal(j2, m)


def test_singular_value_submultiplicativity_on_products():
    # sigma_i(AB) <= sigma_1(A) sigma_i(B), checked through the oracle route
    rng = np.random.default_rng(15)
    for _ in range(25):
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        left = singulars_via_gram(a @ b)
        sa = singulars_via_gram(a)
        sb = singulars_via_gram(b)
        assert np.all(left <= sa[0] * sb + 1e-10)


@pytest.mark.parametrize("rule", BITWISE_RULES[1:], ids=lambda r: r.kind.value)
def test_split_across_a_noise_chunk_composes_bitwise(rule):
    # the split at 250 and the run's end fall in different noise chunks
    task = random_task(20, d=3)
    full = propagate_members([(task, rule, np.ones(3), 600, 1, 0)], 8)
    head = propagate_members([(task, rule, np.ones(3), 250, 1, 0)], 8)
    tail = propagate_members([(task, rule, head[0, -1], 350, 1, 250)], 8)
    assert np.array_equal(np.concatenate([head[0], tail[0, 1:]]), full[0])
    expected, _ = per_run_propagation(head[0, -1], task.hessian, task.minimizer, rule, 350, 8, 1, 250)
    assert np.array_equal(tail[0], expected)


ALL_RULES = (transport.StepRule(kind="gradient_descent", step_size=0.05),) + BITWISE_RULES


def assert_members_match_oracle(members, omega_seed):
    states = propagate_members(members, omega_seed)
    finals = propagate_members(members, omega_seed, final_only=True)
    n_max = max(m[3] for m in members)
    assert states.shape == (len(members), n_max + 1, members[0][0].dim)
    # every power of the members' stack, each member's read at its length
    powers = list(transport.step_powers(step_matrices(members), range(n_max + 1)))
    for i, (task, rule, theta0, n, realization, offset) in enumerate(members):
        expected, jacobian = per_run_propagation(
            theta0, task.hessian, task.minimizer, rule, n, omega_seed, realization, offset
        )
        assert np.array_equal(states[i, : n + 1], expected), i
        assert not states[i, n + 1 :].any(), i
        assert np.array_equal(finals[i], expected[-1]), i
        assert np.array_equal(powers[n][i], jacobian), i


def test_stacked_kernel_matches_per_member_propagate_for_every_rule_kind():
    # two members of each kind, on distinct tasks, starts and noise sequences
    members = [
        (random_task(30 + i), rule, np.full(6, 0.5 * i), 17, i, 3)
        for i, rule in enumerate(ALL_RULES + ALL_RULES)
    ]
    assert_members_match_oracle(members, omega_seed=21)


def test_stacked_kernel_with_mixed_lengths_and_a_zero_step_member():
    lengths = [5, 0, 12, 1, 12, 7, 3, 9]
    members = [
        (random_task(40 + i), ALL_RULES[i % 4], np.ones(6), n, i, 0)
        for i, n in enumerate(lengths)
    ]
    assert_members_match_oracle(members, omega_seed=2)
    # a stack of zero-step members returns each start, and its power 0 is the identity
    assert np.array_equal(propagate_members([members[1]] * 2, omega_seed=2), np.ones((2, 1, 6)))
    identity = next(transport.step_powers(step_matrices([members[1]] * 2), [0]))
    assert np.array_equal(identity, np.broadcast_to(np.eye(6), (2, 6, 6)))


def test_stacked_kernel_offsets_across_a_noise_chunk():
    # member 0 reads rows 250..269, across the chunk boundary at CHUNK_STEPS
    assert 250 < rng.CHUNK_STEPS < 270
    members = [
        (random_task(50), ALL_RULES[3], np.ones(6), 20, 1, 250),
        (random_task(51), ALL_RULES[2], np.ones(6), 6, 1, rng.CHUNK_STEPS - 1),
        (random_task(52), ALL_RULES[3], np.ones(6), 4, 1, 0),
    ]
    assert_members_match_oracle(members, omega_seed=8)


def test_stacked_kernel_names_the_diverging_member():
    runaway = tasks.QuadraticTask(dim=6, hessian=random_task(14).hessian, minimizer=np.zeros(6))
    fast = transport.StepRule(kind="gradient_descent", step_size=50.0)
    members = [
        (random_task(60), ALL_RULES[3], np.ones(6), 400, 0, 0),
        (runaway, fast, np.ones(6), 400, 1, 11),
        (random_task(61), ALL_RULES[0], np.ones(6), 30, 2, 0),
    ]
    # the first state of the runaway run past the limit; step k makes state k + 1
    states, _ = per_run_propagation(np.ones(6), runaway.hessian, runaway.minimizer, fast, 20, 0)
    first = int(np.argmax(np.linalg.norm(states, axis=1) > transport.DIVERGENCE_LIMIT))
    assert first > 0
    with pytest.raises(transport.DivergenceError) as stacked:
        propagate_members(members, omega_seed=0, label="runaway")
    assert str(stacked.value) == (
        f"propagate: |theta| = {np.linalg.norm(states[first]):.3e} exceeded 1.0e+08 "
        f"at step {11 + first - 1} (task 'runaway')"
    )


POWER_EXPONENTS = ([0, 3, 3, 9], [0], [6], [2, 2, 11, 12])


@pytest.mark.parametrize("exponents", POWER_EXPONENTS, ids=["zero-repeat-gap", "only-0", "only-6", "repeat-gap"])
def test_step_powers_match_the_plain_loop_jacobian(exponents):
    # one matrix and a stack of one member per rule kind, against the
    # oracle's own Jacobian of a run of k steps
    members = [(random_task(80 + i), rule, np.ones(6), 0, i, 0) for i, rule in enumerate(ALL_RULES)]
    stack = list(transport.step_powers(step_matrices(members), exponents))
    assert len(stack) == len(exponents)
    for i, (task, rule, theta0, _, realization, _) in enumerate(members):
        single = list(transport.step_powers(transport.step_map(task, rule)[0], exponents))
        for k, one, of_stack in zip(exponents, single, stack):
            _, jacobian = per_run_propagation(theta0, task.hessian, task.minimizer, rule, k, 5, realization)
            assert np.array_equal(one, jacobian), (i, k)
            assert np.array_equal(of_stack[i], jacobian), (i, k)


@pytest.mark.parametrize(
    "a, exponents, message",
    [
        (np.ones((2, 3)), [1], r"a must be a \(d, d\) matrix or an \(m, d, d\) stack, got shape \(2, 3\)"),
        (np.eye(3), [-1], "exponents must be >= 0 and non-decreasing, got -1 after 0"),
        # a descending exponent would otherwise yield the power before it again
        (np.eye(3), [4, 2, 5], "exponents must be >= 0 and non-decreasing, got 2 after 4"),
    ],
    ids=["not-square", "negative", "descending"],
)
def test_step_powers_validate_before_yielding(a, exponents, message):
    with pytest.raises(ValueError, match=r"^step_powers: " + message) as err:
        next(transport.step_powers(a, exponents))
    assert "\n" not in str(err.value)
