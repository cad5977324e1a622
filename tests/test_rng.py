import numpy as np
import pytest

from reconcap import rng


def test_same_key_same_draw():
    a = rng.normal_rows(123, rng.STREAM_STEP_NOISE, 0, 5, 1, 8)
    b = rng.normal_rows(123, rng.STREAM_STEP_NOISE, 0, 5, 1, 8)
    assert np.array_equal(a, b)


def test_any_path_change_decorrelates():
    base = rng.normal_rows(123, rng.STREAM_STEP_NOISE, 0, 5, 1, 8)
    for variant in [
        rng.normal_rows(124, rng.STREAM_STEP_NOISE, 0, 5, 1, 8),
        rng.normal_rows(123, rng.STREAM_INIT, 0, 5, 1, 8),
        rng.normal_rows(123, rng.STREAM_STEP_NOISE, 1, 5, 1, 8),
        rng.normal_rows(123, rng.STREAM_STEP_NOISE, 0, 6, 1, 8),
    ]:
        assert not np.array_equal(base, variant)


def test_stream_is_philox():
    g = rng.stream(7, rng.STREAM_TASK)
    assert isinstance(g.bit_generator, np.random.Philox)


def test_stream_reproducible_across_instances():
    x = rng.stream(99, rng.STREAM_PROBE, 3).standard_normal(16)
    y = rng.stream(99, rng.STREAM_PROBE, 3).standard_normal(16)
    assert np.array_equal(x, y)


def test_draws_look_standard_normal():
    # crude moment check, tight enough to catch scaling mistakes
    x = rng.stream(2024, rng.STREAM_ORACLE).standard_normal(200_000)
    assert abs(float(np.mean(x))) < 0.02
    assert abs(float(np.std(x)) - 1.0) < 0.02


_PATHS = [
    (0,),
    (0, 0),
    (2**32 - 1,),
    (2**32 - 1, rng.STREAM_STEP_NOISE, 0, 0),
    (7, rng.STREAM_INIT, 3, 0),
    (7, rng.STREAM_TASK, 12, 1),
    (2024, rng.STREAM_PROBE, 1, 270),
    (2**63, rng.STREAM_ORACLE),
    (123, 0, 2**40, 2**62),
    (1, 2, 3, 4, 5, 6),
] + [(seed, rng.STREAM_STEP_NOISE, r, chunk) for seed in (11, 99) for r in (0, 5) for chunk in (0, 1, 17)]


@pytest.mark.parametrize("path", _PATHS)
def test_stream_key_matches_explicit_seed_sequence_key(path):
    key = np.random.SeedSequence(path).generate_state(2, dtype=np.uint64)
    explicit = np.random.Generator(np.random.Philox(key=key))
    assert np.array_equal(rng.stream(*path).standard_normal(64), explicit.standard_normal(64))


def _chunked_reference(seed, tag, realization, n_chunks, dim):
    return np.concatenate(
        [
            rng.stream(seed, tag, realization, c).standard_normal((rng.CHUNK_STEPS, dim))
            for c in range(n_chunks)
        ]
    )


@pytest.mark.parametrize(
    "start, n",
    [(0, 0), (250, 0), (0, 1), (5, 12), (250, 20), (255, 1), (256, 1), (0, 600), (300, 212), (511, 258)],
)
def test_normal_rows_is_a_slice_of_one_long_draw(start, n):
    assert rng.CHUNK_STEPS == 256
    full = _chunked_reference(31, rng.STREAM_STEP_NOISE, 2, 4, 3)
    rows = rng.normal_rows(31, rng.STREAM_STEP_NOISE, 2, start, n, 3)
    assert rows.shape == (n, 3)
    assert np.array_equal(rows, full[start : start + n])

