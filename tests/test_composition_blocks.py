"""composition-check's stacked trial blocks against per-trial oracles, and
its default outputs pinned byte for byte."""

import functools
import hashlib

import numpy as np
import pytest
from scipy.stats import ks_2samp

from reconcap import capacity, rng, scenarios, transport
from reconcap.config import ExperimentConfig, default_config
from reconcap.scenarios import run_scenario
from reconcap.spectral import singular_values, spectrum_rank

from _oracles import (
    PRODUCT_ROTATION_KEY,
    STREAM_ORACLE,
    four_rotation_product_spectra,
    per_path_rotations,
    per_trial_composition_row,
    per_trial_controlled_task,
    per_trial_factor_spectra,
    per_trial_monotonicity,
    per_trial_product_spectra,
)

SEED = 2024
# a master seed of 2**32 or more, which SeedSequence splits into two words:
# every key path of the run is then five words long and takes its key from
# SeedSequence itself, path by path, not from the vectorized pass
WIDE_SEED = 2**32 + 5
DIM = 16
# trials per block of controlled tasks at DIM
BLOCK = scenarios._BLOCK_FLOATS // (DIM * DIM)
COMPOSITION_KEYS = (scenarios._KEY_TASK, scenarios._KEY_TASK_ROTATION)
LEDGER_KEYS = (scenarios._KEY_LEDGER_TASK, scenarios._KEY_LEDGER_ROTATION)

# sha256 of the default run's data files, as written since each product's
# spectrum is taken from one rotation and every rotation is keyed on its
# trial's own path
DEFAULT_DIGESTS = {
    "composition.csv": "5e96d6c1513ccf79830716cdf5659912745ad07d4603b49e198474cc872469f0",
    "monotonicity.csv": "0636548bf47e8b9c3c4978382be3248e590af9e4b7ed91c804f6aad250d7c29b",
    "submultiplicativity.csv": "accbd20e6ef855bb5b998f819f7bf12df3a8c39419c82d30e184d1ef44fc05a3",
    "summary.json": "6dbb30aee87a0e37fc9fe81a446ec5a45e2d4187cc5c985c789ec35657d064a8",
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
    hessians, minimizers = scenarios._controlled_tasks(DIM, SEED, trials, COMPOSITION_KEYS)
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


@functools.lru_cache(maxsize=None)
def _default_products(seed):
    """A default run's submultiplicativity table and, per trial in trial
    order, its factor spectra and its product's one-rotation spectrum."""
    by_dim = {}
    for trial in range(1000):
        d_t, s_a, s_b = per_trial_factor_spectra(seed, trial)
        by_dim.setdefault(d_t, []).append((trial, s_a, s_b))
    products = {}
    for members in by_dim.values():
        trials, s_a, s_b = map(np.array, zip(*members))
        for trial, a, b, sigma in zip(trials, s_a, s_b, scenarios._product_spectra(seed, trials, s_a, s_b)):
            products[int(trial)] = (a, b, sigma)
    return scenarios._submultiplicativity_table(seed, 1000), [products[trial] for trial in range(1000)]


@pytest.mark.parametrize("seed", [SEED, 7])
def test_one_rotation_spectra_match_the_dense_product_with_outer_rotations(seed):
    # every trial of a default-sized run: U (S_a R S_b) V^T, built densely
    # with its one rotation R and two more orthogonal factors U and V, has
    # the spectrum the run takes from S_a R S_b, the same rank_prod and slack
    table, products = _default_products(seed)
    assert table["trial"].tolist() == list(range(1000))
    for trial, (s_a, s_b, one) in enumerate(products):
        d_t = len(s_a)
        (rot,) = per_path_rotations(d_t, [(seed, rng.STREAM_TASK, trial, PRODUCT_ROTATION_KEY)])
        u, v = per_path_rotations(d_t, [(seed, STREAM_ORACLE, trial, k) for k in (4, 5)])
        sigma = np.linalg.svd(u @ (s_a[:, None] * rot * s_b[None, :]) @ v.T, compute_uv=False)
        tol = 1e-14 * max(sigma[0], 1.0)
        assert np.max(np.abs(one - sigma)) <= tol, (d_t, trial)
        assert spectrum_rank(one) == spectrum_rank(sigma) == table["rank_prod"][trial], (d_t, trial)
        sv_a, sv_b = np.sort(s_a)[::-1], np.sort(s_b)[::-1]
        slack = np.max(sigma - np.minimum(sv_a * sv_b[0], sv_a[0] * sv_b))
        assert abs(table["sigma_slack"][trial] - slack) <= tol and table["ok"][trial], (d_t, trial)


@pytest.mark.parametrize("seed", [SEED, 7])
def test_two_rotation_spectra_match_the_dense_four_rotation_product(seed):
    # every trial of a default-sized run: its factor spectra, with all four
    # rotations of U_a S_a V_a^T U_b S_b V_b^T drawn, have the product
    # spectrum that the run's stacked SVD takes from S_a (V_a^T U_b) S_b;
    # that reduction is what lets the run draw one rotation for V_a^T U_b.
    # The dense product's rank is the run's rank_prod, and its singular
    # values are bounded as the run's are
    table, products = _default_products(seed)
    by_dim = {}
    for trial, (s_a, s_b, _) in enumerate(products):
        by_dim.setdefault(len(s_a), []).append((trial, s_a, s_b))
    for d_t, members in by_dim.items():
        trials, s_a, s_b = map(np.array, zip(*members))
        mid = []
        for trial in trials:
            _, v_a, u_b, _ = per_path_rotations(d_t, [(seed, STREAM_ORACLE, trial, k) for k in range(4)])
            mid.append(v_a.T @ u_b)
        two = singular_values(s_a[:, :, None] * np.array(mid) * s_b[:, None, :])
        for i, trial in enumerate(trials):
            sigma = four_rotation_product_spectra(seed, trial, s_a[i], s_b[i])
            tol = 1e-14 * max(sigma[0], 1.0)
            assert np.max(np.abs(two[i] - sigma)) <= tol, (d_t, trial)
            assert spectrum_rank(two[i]) == spectrum_rank(sigma) == table["rank_prod"][trial], (d_t, trial)
            sv_a, sv_b = np.sort(s_a[i])[::-1], np.sort(s_b[i])[::-1]
            assert np.all(sigma <= np.minimum(sv_a * sv_b[0], sv_a[0] * sv_b) + tol), (d_t, trial)


@pytest.mark.parametrize("seed", [SEED, 7])
def test_one_rotation_top_singular_values_follow_the_four_rotation_law(seed):
    # one Haar rotation R stands for V_a^T U_b of two independent ones: over
    # a default run's 1,000 trials the top product singular value has the
    # law of the dense product of four rotations.  0.087 is the two-sample
    # Kolmogorov-Smirnov critical value at alpha = 0.001 for 1,000 + 1,000
    _, products = _default_products(seed)
    one = [sigma[0] for _, _, sigma in products]
    four = [four_rotation_product_spectra(seed, trial, s_a, s_b)[0] for trial, (s_a, s_b, _) in enumerate(products)]
    assert ks_2samp(one, four).statistic < 0.087


@pytest.mark.parametrize("seed", [SEED, 7, 123])
def test_ledger_ranks_match_general_svd_ranks(seed):
    # the ledger's symmetric solve against a general SVD of each power, over
    # a default run's 200 monotonicity trials
    trials = range(200)
    _, ranks, _ = scenarios._monotonicity_ledgers(DIM, seed, trials)
    h, _ = scenarios._controlled_tasks(DIM, seed, trials, LEDGER_KEYS)
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
    # a default run QRs 2,200 rotations (1,000 and 200 controlled tasks, one
    # rotation for each of 1,000 products) and takes 1,000 SVDs, one per
    # product; its 200 ledger step matrices go through one eigh each, of
    # H + wd I, whose log rates times k are the spectra of all 41 powers,
    # and its 1,200 controlled tasks, PSD by construction, through no check.
    # With four rotations per product and an SVD of every power it QR'd
    # 5,200 and took 9,200 SVDs; with two rotations per product, 3,200; with
    # an eigvalsh of every power it took 8,200 of those, and with an
    # eigvalsh of each step matrix, 200.
    names = ("qr", "eigvalsh", "eigh", "svd")
    matrices = dict.fromkeys(names, 0)
    for name in names:
        def counting(a, *args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            matrices[_name] += int(np.prod(np.shape(a)[:-2]))
            return _call(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    run_scenario(default_config("composition-check"), out_dir=tmp_path, check=True)
    assert matrices == {"qr": 2200, "eigvalsh": 0, "eigh": 200, "svd": 1000}


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
    hessians, minimizers = scenarios._controlled_tasks(DIM, WIDE_SEED, trials, COMPOSITION_KEYS)
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


def test_every_draw_site_of_a_run_derives_its_own_keys(tmp_path, monkeypatch):
    # each Philox key a small run derives, with the path it came from: a key
    # derived again (a segment re-reading its noise rows) must come from the
    # same path.  Paths equal up to trailing zeros give one key, which once
    # let trial 0's rotation, keyed (seed + 1, STREAM_TASK), share the
    # stream of the ledger's trial-0 task draw, (seed + 1, STREAM_TASK, 0).
    derived = []
    keys = rng._keys

    def recording(paths):
        out = keys(paths)
        derived.extend(zip(map(tuple, paths), map(tuple, out)))
        return out

    monkeypatch.setattr(rng, "_keys", recording)
    monkeypatch.setattr(rng, "stream", lambda *path: pytest.fail(f"stream{path} bypasses draw_each"))
    cfg = ExperimentConfig(scenario="composition-check", dim=4, n_trials=12)
    cfg.validate()
    run_scenario(cfg, out_dir=tmp_path, check=True)
    paths_of = {}
    for path, key in derived:
        paths_of.setdefault(key, set()).add(path)
    shared = {key: paths for key, paths in paths_of.items() if len(paths) > 1}
    assert not shared
    # trial draws, rotations, products and ledger starts, and noise chunks
    assert len(paths_of) > 12 * 4


def test_single_trial_run_is_the_first_row_of_the_default(default_run, tmp_path):
    # every draw is keyed by its trial, so one trial alone writes the same rows
    cfg = ExperimentConfig(scenario="composition-check", n_trials=1)
    cfg.validate()
    run_scenario(cfg, out_dir=tmp_path, check=True)
    for name in ("composition.csv", "submultiplicativity.csv", "monotonicity.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == 2
        assert lines == (default_run / name).read_text().splitlines()[:2]
