import numpy as np
import pytest

from reconcap import rng

from _oracles import STREAM_ORACLE


def test_same_key_same_draw():
    a = rng.normal_rows_each(123, rng.STREAM_STEP_NOISE, [0], [5], [1], 8)[0]
    b = rng.normal_rows_each(123, rng.STREAM_STEP_NOISE, [0], [5], [1], 8)[0]
    assert np.array_equal(a, b)


def test_any_path_change_decorrelates():
    base = rng.normal_rows_each(123, rng.STREAM_STEP_NOISE, [0], [5], [1], 8)[0]
    for variant in [
        rng.normal_rows_each(124, rng.STREAM_STEP_NOISE, [0], [5], [1], 8)[0],
        rng.normal_rows_each(123, rng.STREAM_INIT, [0], [5], [1], 8)[0],
        rng.normal_rows_each(123, rng.STREAM_STEP_NOISE, [1], [5], [1], 8)[0],
        rng.normal_rows_each(123, rng.STREAM_STEP_NOISE, [0], [6], [1], 8)[0],
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
    x = rng.stream(2024, STREAM_ORACLE).standard_normal(200_000)
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
    (2**63, STREAM_ORACLE),
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
    rows = rng.normal_rows_each(31, rng.STREAM_STEP_NOISE, [2], [start], [n], 3)[0]
    assert rows.shape == (n, 3)
    assert np.array_equal(rows, full[start : start + n])


def _seed_sequence_keys(paths):
    return [np.random.SeedSequence(path).generate_state(2, np.uint64).tolist() for path in paths]


def test_vectorized_keys_match_seed_sequence_at_every_length():
    gen = np.random.default_rng(15)
    for length in range(1, rng._MAX_WORDS + 1):
        words = gen.integers(0, 2**32, size=(2000, length), dtype=np.uint64).astype(np.uint32)
        expected = _seed_sequence_keys(words.tolist())
        assert rng._philox_keys(words).tolist() == expected, length


@pytest.mark.parametrize("n", [1, rng._MIN_BATCH - 1, rng._MIN_BATCH, 3 * rng._MIN_BATCH])
def test_keys_match_seed_sequence_for_random_paths(n):
    # batches below the batch minimum, at it and above it; paths of one
    # length and of mixed lengths (1-6); entries below 2**32 only, entries up
    # to 2**40 (wide, but int64), and entries up to 2**64 - 1
    gen = np.random.default_rng(n)

    def entry(top):
        return int(gen.integers(0, (2**8, top)[int(gen.integers(0, 2))], dtype=np.uint64))

    for trial in range(60):
        same_length, top = trial % 2 == 0, (2**32, 2**40, 2**64)[trial % 3]
        lengths = [int(gen.integers(1, 7))] * n if same_length else gen.integers(1, 7, size=n).tolist()
        paths = [tuple(entry(top) for _ in range(k)) for k in lengths]
        assert rng._keys(paths) == _seed_sequence_keys(paths), paths


def _every_draw(gen):
    # a mix of draws that ends with a half-used 32-bit buffer and a partly
    # used block of raw outputs, which the next path must not see; it starts
    # with full-range 32-bit draws, which would read a stale half (a bounded
    # draw can reject it and hide the leak)
    return (
        gen.integers(0, 2**32, size=3, dtype=np.uint32),
        gen.uniform(0.2, 1.8, size=5),
        gen.standard_normal(7),
        gen.random(3),
        gen.integers(0, 5, size=3),
        gen.bit_generator.random_raw(1),
    )


@pytest.mark.parametrize("n", [2, rng._MIN_BATCH + 1])
@pytest.mark.parametrize("seed", [7, 2**32 - 1, 2**40])
def test_draw_each_matches_fresh_streams_path_after_path(n, seed):
    paths = [(seed, rng.STREAM_TASK, trial, 1) for trial in range(n)]
    drawn = rng.draw_each(paths, _every_draw)
    assert len(drawn) == n
    for path, got in zip(paths, drawn):
        for a, b in zip(got, _every_draw(rng.stream(*path))):
            assert np.array_equal(a, b)


def test_draw_each_of_no_paths_is_empty():
    assert rng.draw_each([], _every_draw) == []


@pytest.mark.parametrize("leak", [lambda gen: gen, lambda gen: gen.bit_generator])
def test_draw_each_keeps_its_generator(leak):
    paths = [(7, rng.STREAM_TASK, trial) for trial in range(rng._MIN_BATCH)]
    with pytest.raises(TypeError, match="draw_each"):
        rng.draw_each(paths, leak)


def test_normal_rows_each_is_a_slice_of_each_members_long_draw():
    realizations, starts, counts = [0, 3, 3, 9, 1], [0, 250, 511, 5, 7], [12, 20, 258, 0, 1]
    rows = rng.normal_rows_each(31, rng.STREAM_STEP_NOISE, realizations, starts, counts, 3)
    assert rows.shape == (5, 258, 3)
    for i, (r, start, n) in enumerate(zip(realizations, starts, counts)):
        full = _chunked_reference(31, rng.STREAM_STEP_NOISE, r, 4, 3)
        assert np.array_equal(rows[i, :n], full[start : start + n])
        assert not rows[i, n:].any()
