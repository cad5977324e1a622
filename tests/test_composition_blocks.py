"""composition-check's stacked trial blocks against per-trial oracles, and
its default outputs pinned byte for byte."""

import hashlib

import numpy as np
import pytest

from reconcap import capacity, scenarios, transport
from reconcap.config import ExperimentConfig, default_config
from reconcap.scenarios import run_scenario
from reconcap.spectral import spectrum_rank

from _oracles import (
    per_seed_rotations,
    per_trial_composition_row,
    per_trial_controlled_task,
    per_trial_factor_spectra,
    per_trial_monotonicity,
    per_trial_product_spectra,
)

SEED = 2024
# the largest master seed: every rotation seed past it (seed + 7919 * trial +
# 1, seed + 104729 * trial + 11 + k) is 2**32 or more, a two-word key path
WIDE_SEED = 2**32 - 1
DIM = 16
# trials per block of controlled tasks at DIM
BLOCK = scenarios._BLOCK_FLOATS // (DIM * DIM)

# sha256 of the default run's data files, as written before trials were
# stacked in blocks; submultiplicativity.csv as written since each product's
# spectrum is taken from its two inner rotations (sigma_slack moved by at
# most 1.8e-15)
DEFAULT_DIGESTS = {
    "composition.csv": "2ed4c42dac51a956c935cb41a24bad88b82861c89a886997fab85ddd63ade19d",
    "monotonicity.csv": "0636548bf47e8b9c3c4978382be3248e590af9e4b7ed91c804f6aad250d7c29b",
    "submultiplicativity.csv": "d54284a0880cc5f7f4585c8c4746ae549e74d0d35276fd5e283b839a205053e8",
    "summary.json": "a7b31efba5b4caf44b21ea742db7a2ec4d3c07a2fa94538c9d0fee03f7ed6e1c",
}


def _assert_columns_match_rows(table, rows):
    # each column, repr for repr, the oracle rows' fields at its position
    assert len(table) == len(rows[0])
    for column, values in zip(table.values(), zip(*rows)):
        assert repr(column.tolist()) == repr(list(values))


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("composition-default")
    run_scenario(default_config("composition-check"), out_dir=out, check=True)
    return out


def test_default_run_is_byte_stable(default_run):
    digests = {
        name: hashlib.sha256((default_run / name).read_bytes()).hexdigest()
        for name in DEFAULT_DIGESTS
    }
    assert digests == DEFAULT_DIGESTS


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_controlled_tasks_match_per_trial_draws(n):
    trials = range(5, 5 + n)
    hessians, minimizers = scenarios._controlled_tasks(DIM, SEED, trials)
    assert len(hessians) == len(minimizers) == n
    for trial, h, m in zip(trials, hessians, minimizers):
        hessian, minimizer = per_trial_controlled_task(DIM, SEED, trial)
        assert np.array_equal(h, hessian)
        assert np.array_equal(m, minimizer)


def test_composition_rows_match_per_trial_propagate_and_compose():
    # a block of every rule kind and split, stepped as four stacked runs
    trials = range(3, 3 + BLOCK)
    table = scenarios._composition_table(DIM, SEED, trials)
    assert list(table) == ["trial", "len_a", "len_b", "len_c", "rule_kind", "max_abs_error"]
    assert len(table["trial"]) == BLOCK
    _assert_columns_match_rows(table, [per_trial_composition_row(DIM, SEED, trial) for trial in trials])


def test_product_spectra_match_per_trial_loop():
    trials = [0, 7, 31]
    for d_t in range(2, 33):
        gen = np.random.default_rng(d_t)
        s_a, s_b = gen.uniform(0.5, 2.0, size=(2, len(trials), d_t))
        s_a[gen.random(s_a.shape) < 0.3] = 0.0
        stacked = scenarios._product_spectra(SEED, trials, s_a, s_b)
        for i, trial in enumerate(trials):
            assert np.array_equal(stacked[i], per_trial_product_spectra(SEED, trial, s_a[i], s_b[i])), d_t


def test_monotonicity_ledgers_match_per_trial_loop():
    trials = range(3, 10)
    wds, ranks, vals = scenarios._monotonicity_ledgers(DIM, SEED, trials)
    assert wds == [0.1 if trial % 2 else 0.0 for trial in trials]
    for i, trial in enumerate(trials):
        per_ranks, per_vals = per_trial_monotonicity(DIM, SEED, trial)
        assert np.array_equal(ranks[:, i], per_ranks)
        assert np.array_equal(vals[:, i], per_vals)


def test_monotonicity_ledgers_check_their_states_for_divergence(monkeypatch):
    # the ledgers' states come from propagate, which checks every one of them
    monkeypatch.setattr(transport, "DIVERGENCE_LIMIT", 1e-3)
    with pytest.raises(transport.DivergenceError, match=r"at step 0 \(task 'monotonicity-ledger'\)$"):
        scenarios._monotonicity_ledgers(DIM, SEED, range(3, 6))


@pytest.mark.parametrize("seed", [SEED, 7])
def test_two_rotation_spectra_match_the_dense_four_rotation_product(seed):
    # every trial of a default-sized run: its product built densely as
    # U_a S_a V_a^T U_b S_b V_b^T from all four rotations has the spectrum
    # the run takes from S_a (V_a^T U_b) S_b, the same rank_prod and slack
    table = scenarios._submultiplicativity_table(seed, 1000)
    assert table["trial"].tolist() == list(range(1000))
    by_dim = {}
    for trial in range(1000):
        d_t, s_a, s_b = per_trial_factor_spectra(seed, trial)
        by_dim.setdefault(d_t, []).append((trial, s_a, s_b))
    for d_t, members in by_dim.items():
        trials, s_a, s_b = map(np.array, zip(*members))
        two = scenarios._product_spectra(seed, trials, s_a, s_b)
        for i, trial in enumerate(trials):
            first = seed + 104729 * trial + 11
            u_a, v_a, u_b, v_b = per_seed_rotations(d_t, range(first, first + 4))
            dense = (u_a * s_a[i]) @ v_a.T @ (u_b * s_b[i]) @ v_b.T
            sigma = np.linalg.svd(dense, compute_uv=False)
            tol = 1e-14 * max(sigma[0], 1.0)
            assert np.max(np.abs(two[i] - sigma)) <= tol, (d_t, trial)
            assert spectrum_rank(two[i]) == spectrum_rank(sigma) == table["rank_prod"][trial], (d_t, trial)
            sv_a, sv_b = np.sort(s_a[i])[::-1], np.sort(s_b[i])[::-1]
            slack = np.max(sigma - np.minimum(sv_a * sv_b[0], sv_a[0] * sv_b))
            assert abs(table["sigma_slack"][trial] - slack) <= tol and table["ok"][trial], (d_t, trial)


@pytest.mark.parametrize("seed", [SEED, 7, 123])
def test_ledger_ranks_match_general_svd_ranks(seed):
    # the ledger's symmetric solve against a general SVD of each power, over
    # a default run's 200 monotonicity trials
    trials = range(200)
    _, ranks, _ = scenarios._monotonicity_ledgers(DIM, seed, trials)
    h, _ = scenarios._controlled_tasks(DIM, seed + 1, trials)
    wds = np.array([0.1 if trial % 2 else 0.0 for trial in trials])[:, None, None]
    a = np.eye(DIM) - 0.4 * (h + wds * np.eye(DIM))
    power = np.broadcast_to(np.eye(DIM), a.shape)
    general = []
    for k in range(41):
        if k:
            power = a @ power
        general.append(capacity.effective_rank(power))
    general = np.array(general)
    assert np.max(np.abs(ranks - general)) <= 1e-12
    assert np.array_equal(ranks == 0.0, general == 0.0)
    assert np.count_nonzero(general == 0.0) > 0


def test_composition_check_decomposes_each_matrix_once(tmp_path, monkeypatch):
    # a default run QRs 3,200 rotations (1,000 and 200 controlled tasks, two
    # inner rotations for each of 1,000 products) and takes 1,000 SVDs, one
    # per product; its 200 ledger step matrices go through one eigh each, of
    # H + wd I, whose log rates times k are the spectra of all 41 powers,
    # and its 1,200 controlled tasks, PSD by construction, through no check.
    # With four rotations per product and an SVD of every power it QR'd
    # 5,200 and took 9,200 SVDs; with an eigvalsh of every power it took
    # 8,200 of those, and with an eigvalsh of each step matrix, 200.
    names = ("qr", "eigvalsh", "eigh", "svd")
    matrices = dict.fromkeys(names, 0)
    for name in names:
        def counting(a, *args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            matrices[_name] += int(np.prod(np.shape(a)[:-2]))
            return _call(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    run_scenario(default_config("composition-check"), out_dir=tmp_path, check=True)
    assert matrices == {"qr": 3200, "eigvalsh": 0, "eigh": 200, "svd": 1000}


@pytest.mark.parametrize("scenario, builds", [("composition-check", 20), ("threshold-sweep", 2)])
def test_default_run_builds_each_step_map_once(tmp_path, monkeypatch, scenario, builds):
    # one (A, b) per stack, handed to both propagate and step_powers (the
    # ledgers' H to their eigen-solve): 16 composition blocks and 4 ledger
    # blocks; the sweep's phase 1 and its escape.  Built inside propagate
    # and again for step_powers, they were 84 and 3.
    calls = []
    build = transport._affine_step

    def counting(*args):
        calls.append(None)
        return build(*args)

    monkeypatch.setattr(transport, "_affine_step", counting)
    monkeypatch.setattr(scenarios, "_affine_step", counting)
    run_scenario(default_config(scenario), out_dir=tmp_path, check=True)
    assert len(calls) == builds


def test_blocks_match_per_trial_oracles_at_the_largest_seed():
    trials = range(3, 3 + BLOCK)
    hessians, minimizers = scenarios._controlled_tasks(DIM, WIDE_SEED, trials)
    table = scenarios._composition_table(DIM, WIDE_SEED, trials)
    for i, trial in enumerate(trials):
        hessian, minimizer = per_trial_controlled_task(DIM, WIDE_SEED, trial)
        assert np.array_equal(hessians[i], hessian)
        assert np.array_equal(minimizers[i], minimizer)
    _assert_columns_match_rows(table, [per_trial_composition_row(DIM, WIDE_SEED, trial) for trial in trials])
    gen = np.random.default_rng(5)
    for d_t in (2, 9, 32):
        s_a, s_b = gen.uniform(0.5, 2.0, size=(2, BLOCK, d_t))
        stacked = scenarios._product_spectra(WIDE_SEED, trials, s_a, s_b)
        for i, trial in enumerate(trials):
            expected = per_trial_product_spectra(WIDE_SEED, trial, s_a[i], s_b[i])
            assert np.array_equal(stacked[i], expected), (d_t, trial)


def test_single_trial_run_is_the_first_row_of_the_default(default_run, tmp_path):
    # every draw is keyed by its trial, so one trial alone writes the same rows
    cfg = ExperimentConfig(scenario="composition-check", n_trials=1)
    cfg.validate()
    run_scenario(cfg, out_dir=tmp_path, check=True)
    for name in ("composition.csv", "submultiplicativity.csv", "monotonicity.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == 2
        assert lines == (default_run / name).read_text().splitlines()[:2]
