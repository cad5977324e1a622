"""Property: a path of Gaussian states gives, bit for bit, what its states
give one at a time.

The data files are byte-stable, and the default configs alone (diagonal
covariances, d = 2) would not notice a changed rounding, so random PSD
covariances of dimension 1 to 6 are drawn here, some below the covariance
floor.  Every stacked result is compared by repr with the single-state call
and with the per-state oracle, which uses 1-D vector products.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from reconcap import thermo  # noqa: E402
from reconcap.gaussian import COVARIANCE_FLOOR, clamped_state  # noqa: E402
from reconcap.tasks import QuadraticTask  # noqa: E402
from reconcap.transport import StepRule  # noqa: E402

from _oracles import (  # noqa: E402
    per_state_clamp,
    per_state_entropy_production,
    per_state_free_energy,
    per_state_w2,
)


def _random_covariances(gen, n, dim, below_floor):
    # random eigenbases; a state drawn below the floor is scaled down whole,
    # so every eigenvalue sits near or under COVARIANCE_FLOOR
    q = np.linalg.qr(gen.standard_normal((n, dim, dim)))[0]
    eigs = gen.uniform(0.05, 3.0, (n, dim))
    eigs[below_floor] *= COVARIANCE_FLOOR * gen.uniform(0.01, 2.0)
    covs = q @ (eigs[:, :, None] * np.eye(dim)) @ q.swapaxes(1, 2)
    return (covs + covs.swapaxes(1, 2)) / 2.0


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(1, 6),
    below_floor=st.lists(st.booleans(), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_path_results_equal_per_state_results(dim, below_floor, seed):
    gen = np.random.default_rng(seed)
    n = len(below_floor)
    means = gen.standard_normal((n, dim))
    covs = _random_covariances(gen, n, dim, np.array(below_floor))
    h = _random_covariances(gen, 1, dim, np.array([False]))[0]
    task = QuadraticTask(dim=dim, hessian=h, minimizer=gen.standard_normal(dim))
    rule = StepRule(kind="langevin", step_size=0.05, noise_scale=0.3)
    other_means = gen.standard_normal((n, dim))
    other_covs = _random_covariances(gen, n, dim, np.zeros(n, dtype=bool))

    path, clamped = clamped_state(means, covs)
    other, _ = clamped_state(other_means, other_covs)
    states = [clamped_state(means[k], covs[k])[0] for k in range(n)]
    others = [clamped_state(other_means[k], other_covs[k])[0] for k in range(n)]
    oracle = [per_state_clamp(c) for c in covs]
    assert clamped.tolist() == [c for _, c in oracle]
    for k, g in enumerate(states):
        assert path.covariance[k].tobytes() == g.covariance.tobytes() == oracle[k][0].tobytes()
        assert path.mean[k].tobytes() == g.mean.tobytes()

    def same(stacked, single, per_state):
        as_text = [repr(float(x)) for x in stacked]
        assert as_text == [repr(float(x)) for x in single]
        assert as_text == [repr(float(x)) for x in per_state]

    w2 = thermo.w2_gaussian
    same(
        w2(path, other),
        [w2(g, o) for g, o in zip(states, others)],
        [per_state_w2(g.mean, g.covariance, o.mean, o.covariance) for g, o in zip(states, others)],
    )
    g0 = states[0]
    same(
        w2(g0, other),
        [w2(g0, o) for o in others],
        [per_state_w2(g0.mean, g0.covariance, o.mean, o.covariance) for o in others],
    )
    same(
        thermo.free_energy(path, task, 0.3),
        [thermo.free_energy(g, task, 0.3) for g in states],
        [per_state_free_energy(g.mean, g.covariance, task, 0.3) for g in states],
    )
    same(
        thermo.entropy_production_step(path, task, rule),
        [thermo.entropy_production_step(g, task, rule) for g in states],
        [per_state_entropy_production(g.mean, g.covariance, task, rule) for g in states],
    )
