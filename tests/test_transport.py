import pickle

import numpy as np
import pytest

from reconcap import rng, tasks, transport

from _oracles import singulars_via_gram


def flat_task(d=2):
    return tasks.QuadraticTask(
        dim=d, hessian=np.diag([1.0] + [0.0] * (d - 1)), minimizer=np.zeros(d)
    )


def random_task(seed, d=6):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((d, d))
    return tasks.QuadraticTask(dim=d, hessian=b @ b.T / d, minimizer=rng.standard_normal(d))


def test_step_jacobian_plain():
    rule = transport.StepRule(kind="gradient_descent", step_size=0.5)
    j = transport.step_jacobian(flat_task(), rule)
    assert np.array_equal(j, np.diag([0.5, 1.0]))


def test_step_jacobian_with_decay():
    rule = transport.StepRule(kind="gradient_descent", step_size=0.5, weight_decay=0.2)
    j = transport.step_jacobian(flat_task(), rule)
    assert np.allclose(j, np.diag([0.4, 0.9]), atol=1e-15)


def test_step_jacobian_ignores_noise_scale():
    noisy = transport.StepRule(kind="noisy_gradient", step_size=0.5, noise_scale=3.0)
    hot = transport.StepRule(kind="langevin", step_size=0.5, noise_scale=3.0)
    j_ref = np.diag([0.5, 1.0])
    assert np.array_equal(transport.step_jacobian(flat_task(), noisy), j_ref)
    assert np.array_equal(transport.step_jacobian(flat_task(), hot), j_ref)


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


def test_cumulative_jacobian_matches_matrix_power():
    task = random_task(3)
    rule = transport.StepRule(kind="gradient_descent", step_size=0.05)
    traj = transport.propagate(np.ones(task.dim), task, rule, 40, omega_seed=0)
    expected = np.linalg.matrix_power(transport.step_jacobian(task, rule), 40)
    assert np.allclose(traj.cumulative_jacobian, expected, rtol=1e-11, atol=1e-13)


def test_descent_converges_to_minimizer():
    rng = np.random.default_rng(5)
    d = 6
    b = rng.standard_normal((d, d))
    task = tasks.QuadraticTask(
        dim=d, hessian=b @ b.T / d + 0.3 * np.eye(d), minimizer=rng.standard_normal(d)
    )
    rule = transport.StepRule(kind="gradient_descent", step_size=0.1)
    traj = transport.propagate(np.zeros(d), task, rule, 3000, omega_seed=0)
    assert np.linalg.norm(traj.final - task.minimizer) < 1e-8


def test_noise_stream_determinism():
    task = random_task(6)
    rule = transport.StepRule(kind="langevin", step_size=0.05, noise_scale=0.3)
    a = transport.propagate(np.zeros(task.dim), task, rule, 50, omega_seed=11)
    b = transport.propagate(np.zeros(task.dim), task, rule, 50, omega_seed=11)
    c = transport.propagate(np.zeros(task.dim), task, rule, 50, omega_seed=11, realization=1)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)


def test_plain_descent_never_touches_the_noise_stream():
    task = random_task(7)
    rule = transport.StepRule(kind="gradient_descent", step_size=0.05)
    a = transport.propagate(np.ones(task.dim), task, rule, 20, omega_seed=1)
    b = transport.propagate(np.ones(task.dim), task, rule, 20, omega_seed=99)
    assert np.array_equal(a.states, b.states)


def test_noise_conventions_coincide_when_scales_match():
    # eta*s for the one equals sqrt(2*T*eta) for the other at these values,
    # and both read the same stream, so the paths agree bit for bit
    task = random_task(8)
    noisy = transport.StepRule(kind="noisy_gradient", step_size=0.5, noise_scale=1.0)
    hot = transport.StepRule(kind="langevin", step_size=0.5, noise_scale=0.25)
    a = transport.propagate(np.zeros(task.dim), task, noisy, 30, omega_seed=4)
    b = transport.propagate(np.zeros(task.dim), task, hot, 30, omega_seed=4)
    assert np.array_equal(a.states, b.states)


def test_split_run_composes_to_full_run():
    task = random_task(9)
    rule = transport.StepRule(kind="langevin", step_size=0.05, noise_scale=0.2)
    full = transport.propagate(np.ones(task.dim), task, rule, 24, omega_seed=13)
    head = transport.propagate(np.ones(task.dim), task, rule, 10, omega_seed=13)
    tail = transport.propagate(head.final, task, rule, 14, omega_seed=13, step_offset=10)
    glued = transport.compose(head, tail)
    assert np.array_equal(glued.final, full.final)
    assert glued.n_steps == full.n_steps
    assert np.allclose(glued.cumulative_jacobian, full.cumulative_jacobian, rtol=1e-12)


def test_compose_rejects_mismatched_endpoints():
    task = random_task(10)
    rule = transport.StepRule(kind="gradient_descent", step_size=0.05)
    head = transport.propagate(np.ones(task.dim), task, rule, 5, omega_seed=0)
    stray = transport.propagate(np.zeros(task.dim), task, rule, 5, omega_seed=0)
    with pytest.raises(ValueError):
        transport.compose(head, stray)


def test_divergence_raises():
    task = random_task(14)
    rule = transport.StepRule(kind="gradient_descent", step_size=50.0)
    with pytest.raises(transport.DivergenceError):
        transport.propagate(np.ones(task.dim), task, rule, 400, omega_seed=0)


def test_nan_on_the_final_step_raises():
    # the gradient term overflows to -inf and, on draws with xi > 0, the noise
    # term to +inf, so the state is NaN; a NaN norm is not above the limit
    task = tasks.QuadraticTask(dim=1, hessian=np.array([[1e10]]), minimizer=np.zeros(1))
    rule = transport.StepRule(kind="noisy_gradient", step_size=1e300, noise_scale=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        for seed in range(1, 9):
            with pytest.raises(transport.DivergenceError):
                transport.propagate(np.ones(1), task, rule, 1, omega_seed=seed)


BITWISE_RULES = (
    transport.StepRule(kind="gradient_descent", step_size=0.05, weight_decay=0.1),
    transport.StepRule(kind="noisy_gradient", step_size=0.05, noise_scale=0.7),
    transport.StepRule(kind="langevin", step_size=0.05, noise_scale=0.3),
)


def docstring_update(theta, task, rule, xi):
    """One step of the affine update map as the transport module docstring
    states it: A theta + b + g * xi."""
    eta = rule.step_size
    eye = np.eye(task.dim)
    a = eye - eta * (task.hessian + rule.weight_decay * eye)
    nxt = a @ theta + eta * task.hessian @ task.minimizer
    if rule.kind is transport.StepKind.NOISY_GRADIENT:
        return nxt + eta * rule.noise_scale * xi
    if rule.kind is transport.StepKind.LANGEVIN:
        return nxt + np.sqrt(2.0 * rule.noise_scale * eta) * xi
    return nxt


def gradient_update(theta, task, rule, xi):
    """The same step in gradient form, theta - eta * (grad + wd * theta) + g * xi."""
    eta = rule.step_size
    grad = task.hessian @ (theta - task.minimizer)
    if rule.kind is transport.StepKind.GRADIENT_DESCENT:
        return theta - eta * (grad + rule.weight_decay * theta)
    if rule.kind is transport.StepKind.NOISY_GRADIENT:
        return theta - eta * grad + eta * rule.noise_scale * xi
    return theta - eta * grad + np.sqrt(2.0 * rule.noise_scale * eta) * xi


@pytest.mark.parametrize("rule", BITWISE_RULES, ids=lambda r: r.kind.value)
def test_propagate_matches_public_step_bitwise(rule):
    # one public step is what the module docstring states; loop that here
    from reconcap import rng

    task = random_task(17)
    offset, n = 5, 12
    traj = transport.propagate(
        np.ones(task.dim), task, rule, n, omega_seed=19, realization=2, step_offset=offset
    )
    theta = np.ones(task.dim)
    expected = [theta]
    for k in range(n):
        xi = (
            rng.normal_rows(19, rng.STREAM_STEP_NOISE, 2, offset + k, 1, task.dim)[0]
            if rule.uses_noise()
            else None
        )
        theta = docstring_update(theta, task, rule, xi)
        expected.append(theta)
    assert np.array_equal(traj.states, np.array(expected))


@pytest.mark.parametrize("rule", BITWISE_RULES, ids=lambda r: r.kind.value)
def test_propagate_matches_gradient_form_to_roundoff(rule):
    # the affine and gradient forms of one step differ only in rounding
    from reconcap import rng

    n = 200
    for seed in range(23):
        task = random_task(100 + seed)
        traj = transport.propagate(np.ones(task.dim), task, rule, n, omega_seed=seed)
        noise = rng.normal_rows(seed, rng.STREAM_STEP_NOISE, 0, 0, n, task.dim)
        theta = np.ones(task.dim)
        for k in range(n):
            theta = gradient_update(theta, task, rule, noise[k])
            assert np.allclose(traj.states[k + 1], theta, rtol=1e-12, atol=1e-12 * np.linalg.norm(theta))


@pytest.mark.parametrize("rule", BITWISE_RULES, ids=lambda r: r.kind.value)
def test_cumulative_jacobian_is_the_left_product_bitwise(rule):
    task = random_task(18)
    head = transport.propagate(np.ones(task.dim), task, rule, 7, omega_seed=3)
    tail = transport.propagate(head.final, task, rule, 9, omega_seed=3, step_offset=7)
    j = transport.step_jacobian(task, rule)
    m = np.eye(task.dim)
    for _ in range(9):
        m = j @ m
    assert np.array_equal(tail.cumulative_jacobian, m)
    glued = transport.compose(head, tail)
    assert np.array_equal(
        glued.cumulative_jacobian, tail.cumulative_jacobian @ head.cumulative_jacobian
    )


def test_trajectory_pickle_round_trip():
    task = random_task(19)
    rule = transport.StepRule(kind="langevin", step_size=0.05, noise_scale=0.2)
    head = transport.propagate(np.ones(task.dim), task, rule, 4, omega_seed=5)
    tail = transport.propagate(head.final, task, rule, 6, omega_seed=5, step_offset=4)
    for traj in (head, transport.compose(head, tail)):
        copy = pickle.loads(pickle.dumps(traj))
        assert np.array_equal(copy.states, traj.states)
        assert len(copy.parts) == len(traj.parts)
        assert np.array_equal(copy.cumulative_jacobian, traj.cumulative_jacobian)


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
    full = transport.propagate(np.ones(3), task, rule, 600, omega_seed=8, realization=1)
    head = transport.propagate(np.ones(3), task, rule, 250, omega_seed=8, realization=1)
    tail = transport.propagate(
        head.final, task, rule, 350, omega_seed=8, realization=1, step_offset=250
    )
    glued = transport.compose(head, tail)
    assert np.array_equal(glued.states, full.states)
    replay = transport.propagate(
        head.final, task, rule, 350, omega_seed=8, realization=1, step_offset=250
    )
    assert np.array_equal(replay.states, tail.states)


ALL_RULES = (transport.StepRule(kind="gradient_descent", step_size=0.05),) + BITWISE_RULES


def propagate_stack(members, omega_seed, label="task"):
    """The stacked kernel over members ``(task, rule, theta0, n_steps,
    realization, step_offset)``."""
    tasks_, rules, starts, lengths, realizations, offsets = zip(*members)
    return transport._propagate_stack(
        np.array(starts),
        np.array([task.hessian for task in tasks_]),
        np.array([task.minimizer for task in tasks_]),
        rules,
        lengths,
        omega_seed,
        realizations,
        offsets,
        label,
    )


def assert_members_match_propagate(members, omega_seed):
    states, jacobians = propagate_stack(members, omega_seed)
    assert states.shape == (len(members), max(m[3] for m in members) + 1, members[0][0].dim)
    for i, (task, rule, theta0, n, realization, offset) in enumerate(members):
        traj = transport.propagate(
            theta0, task, rule, n, omega_seed, realization=realization, step_offset=offset
        )
        assert np.array_equal(states[i, : n + 1], traj.states), i
        assert not states[i, n + 1 :].any(), i
        assert np.array_equal(jacobians[i], traj.cumulative_jacobian), i


def test_stacked_kernel_matches_per_member_propagate_for_every_rule_kind():
    # two members of each kind, on distinct tasks, starts and noise sequences
    members = [
        (random_task(30 + i), rule, np.full(6, 0.5 * i), 17, i, 3)
        for i, rule in enumerate(ALL_RULES + ALL_RULES)
    ]
    assert_members_match_propagate(members, omega_seed=21)


def test_stacked_kernel_with_mixed_lengths_and_a_zero_step_member():
    lengths = [5, 0, 12, 1, 12, 7, 3, 9]
    members = [
        (random_task(40 + i), ALL_RULES[i % 4], np.ones(6), n, i, 0)
        for i, n in enumerate(lengths)
    ]
    assert_members_match_propagate(members, omega_seed=2)
    # a stack of zero-step members returns each start and the identity
    states, jacobians = propagate_stack([members[1]] * 2, omega_seed=2)
    assert np.array_equal(states, np.ones((2, 1, 6)))
    assert np.array_equal(jacobians, np.broadcast_to(np.eye(6), (2, 6, 6)))


def test_stacked_kernel_offsets_across_a_noise_chunk():
    # member 0 reads rows 250..269, across the chunk boundary at CHUNK_STEPS
    assert 250 < rng.CHUNK_STEPS < 270
    members = [
        (random_task(50), ALL_RULES[3], np.ones(6), 20, 1, 250),
        (random_task(51), ALL_RULES[2], np.ones(6), 6, 1, rng.CHUNK_STEPS - 1),
        (random_task(52), ALL_RULES[3], np.ones(6), 4, 1, 0),
    ]
    assert_members_match_propagate(members, omega_seed=8)


def test_stacked_kernel_names_the_diverging_member():
    runaway = tasks.QuadraticTask(
        dim=6, hessian=random_task(14).hessian, minimizer=np.zeros(6), label="runaway"
    )
    fast = transport.StepRule(kind="gradient_descent", step_size=50.0)
    members = [
        (random_task(60), ALL_RULES[3], np.ones(6), 400, 0, 0),
        (runaway, fast, np.ones(6), 400, 1, 11),
        (random_task(61), ALL_RULES[0], np.ones(6), 30, 2, 0),
    ]
    with pytest.raises(transport.DivergenceError) as alone:
        transport.propagate(np.ones(6), runaway, fast, 400, 0, realization=1, step_offset=11)
    assert "(task 'runaway')" in str(alone.value)
    with pytest.raises(transport.DivergenceError) as stacked:
        propagate_stack(members, omega_seed=0, label="runaway")
    assert str(stacked.value) == str(alone.value)
