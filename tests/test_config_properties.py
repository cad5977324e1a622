"""Property: a config that loads runs without a config-class failure.

Small configs of every scenario are drawn over wide ranges, including values
no scenario can use.  Each one is either rejected at load with ConfigError or
runs to completion; the only failure a valid config may meet at run time is a
divergence of the dynamics themselves.
"""

import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from reconcap.config import ConfigError, ExperimentConfig  # noqa: E402
from reconcap.scenarios import SCENARIOS, run_scenario  # noqa: E402
from reconcap.transport import DivergenceError, StepKind  # noqa: E402


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _usually(draw, usual, wide):
    """``usual`` three times in four, else ``wide``: every range stays
    reachable, yet enough configs load to exercise the runs."""
    return draw(st.sampled_from((usual, usual, usual, wide)))


def _list_of(draw, entries, n):
    """A list of length n, or now and then one entry longer or shorter."""
    length = max(draw(_usually(draw, st.just(n), st.sampled_from([n - 1, n + 1]))), 0)
    return draw(st.lists(entries, min_size=length, max_size=length))


def _spectrum(draw, usual_lo, lo, hi):
    """Entries for one spectrum: half the time from [usual_lo, hi], half the
    time from [lo, hi], where negative entries are common."""
    return draw(st.sampled_from((_floats(usual_lo, hi), _floats(lo, hi))))


# weight decays down to the subnormal range, where 1 - eta * wd rounds to 1
_WEIGHT_DECAYS = _floats(0.0, 1.0) | st.sampled_from([0.0, 5e-324, 2.5e-150, 1e-12])
_KINDS = st.sampled_from([k.value for k in StepKind])
# thresholds outside the usual range: nonpositive ones, and a tau above 1; a
# tau near the subnormal range would make a sweep's settle phase run for
# hundreds of thousands of steps, which is slow but not a failure
_THRESHOLDS_WIDE = st.sampled_from([0.0, -1e-3, -1.0]) | _floats(1e-6, 2.0)


@st.composite
def payloads(draw):
    scenario = draw(st.sampled_from(tuple(SCENARIOS)))
    dim = draw(st.integers(2, 6))
    k_a = draw(_usually(draw, st.integers(1, dim - 1), st.integers(-1, dim + 1)))
    n_steps = draw(_usually(draw, st.integers(1, 10), st.integers(1, 30)))
    n_thermo = draw(_usually(draw, st.integers(1, 3), st.integers(0, 3)))
    decays = scenario in ("rank-decay", "proxy-probe")
    targets = _usually(
        draw,
        st.lists(st.integers(0, max(k_a, 0)), min_size=1, max_size=3),
        st.lists(st.integers(0, max(k_a, 0) + 1), max_size=3),
    )
    usual_kind = "langevin" if scenario == "esl-gap" else "gradient_descent"
    usual_noise = {"threshold-sweep": st.just(0.0), "esl-gap": _floats(0.01, 2.0)}
    return {
        "scenario": scenario,
        "dim": dim,
        "k_a": k_a,
        "n_steps": n_steps,
        "n_trials": draw(st.integers(1, 3)),
        "master_seed": draw(st.integers(0, 1000)),
        "rule": {
            "kind": draw(_usually(draw, st.just(usual_kind), _KINDS)),
            "step_size": draw(_usually(draw, _floats(0.01, 0.5), _floats(0.01, 1.5))),
            "noise_scale": draw(
                _usually(draw, usual_noise.get(scenario, _floats(0.0, 2.0)), _floats(0.0, 2.0))
            ),
            "weight_decay": draw(
                _usually(draw, _floats(1e-3, 1.0) if decays else st.just(0.0), _WEIGHT_DECAYS)
            ),
        },
        "pair": {
            "spectrum_b_on_a": _list_of(draw, _spectrum(draw, 0.0, -1.0, 3.0), max(k_a, 0)),
            "a_spectrum": None
            if draw(st.booleans())
            else _list_of(draw, _spectrum(draw, 0.1, -1.0, 5.0), dim - k_a),
            "rotation_seed": draw(st.integers(0, 1000)),
        },
        "sweep": {
            "m_b_targets": draw(targets),
            "usable_targets": draw(targets),
            "collapse_strength": draw(_floats(0.1, 1.5)),
            "settle_steps": draw(st.integers(1, 20)),
            "phase2_step_limit": draw(st.integers(1, 50)),
            "offset_scale": draw(_floats(0.0, 2.0)),
            "tilt": draw(_floats(0.0, 2.0)),
        },
        "thermo": {
            "start_mean": _list_of(draw, _floats(-3.0, 3.0), n_thermo),
            "start_cov_scale": draw(_usually(draw, _floats(0.01, 1.0), _floats(0.0, 1.0))),
            "hessian_spectrum": _list_of(draw, _spectrum(draw, 0.1, -1.0, 5.0), n_thermo),
            "n_geodesic_steps": draw(_usually(draw, st.integers(2, 20), st.integers(1, 20))),
        },
        "thresholds": {
            name: draw(_usually(draw, _floats(lo, hi), _THRESHOLDS_WIDE))
            for name, lo, hi in (
                ("tau_sigma", 1e-6, 0.5),
                ("epsilon_a", 1e-8, 0.1),
                ("epsilon_b", 1e-8, 0.1),
                ("epsilon_low", 1e-8, 0.1),
                ("epsilon_high", 1e-8, 1.0),
            )
        },
        "probe": {
            "checkpoint_every": draw(_usually(draw, st.integers(1, n_steps), st.integers(0, 10))),
            "n_probe_samples": draw(_usually(draw, st.integers(2, 16), st.integers(1, 16))),
            "probe_noise": draw(_floats(0.0, 1.0)),
        },
    }


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(payloads())
def test_loaded_config_runs_without_config_failure(payload):
    try:
        cfg = ExperimentConfig.from_dict(payload)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as out:
        try:
            run_scenario(cfg, out_dir=out)
        except DivergenceError:
            pass
