"""Counter-based random streams.

Every random draw in the library is produced by a Philox generator whose key
is derived from an explicit integer path (master seed, stream tag, realization
index, chunk index, ...).  ``stream`` builds a fresh generator per path;
``draw_each`` re-keys one generator before each path and never lets it out,
so any draw can be replayed in isolation and no consumer perturbs another.
SeedSequence pads a path's 32-bit words with zeros to four, so paths equal
up to trailing zeros within four words are one stream: ``(s, 2)``, ``(s, 2,
0)`` and ``(s, 2, 0, 0)`` derive one key.  Draw sites that must not share a
stream take paths that are not such zero-padded copies of one another.

Per-step noise is keyed by chunk, not by step: step k of a (stream,
realization) sequence is row ``k % CHUNK_STEPS`` of the block drawn from the
generator keyed by chunk ``k // CHUNK_STEPS``.  A segment of n steps builds
one generator per chunk it touches instead of one per step, and a segment
started at any step reads the same rows as the unsplit run.
"""

from __future__ import annotations

import numpy as np

# Stream tags keep unrelated draw sites on disjoint key paths.
STREAM_STEP_NOISE = 0
STREAM_INIT = 1
STREAM_TASK = 2
STREAM_PROBE = 3

# Steps per noise chunk; recorded in every run's seed ledger.
CHUNK_STEPS = 256

# numpy's SeedSequence (numpy/random/bit_generator.pyx; NEP 19 keeps it
# fixed) hashes with running constants ``init * mult**i`` mod 2**32: one run
# mixes a pool from up to _MAX_WORDS entropy words, another draws the key.
_MAX_WORDS = 16
_POOL_HASH, _KEY_HASH = (
    np.array([init * pow(mult, i, 2**32) % 2**32 for i in range(n)], dtype=np.uint32)
    for init, mult, n in ((0x43B0D7E5, 0x931E8875, 4 * _MAX_WORDS + 1), (0x8B51F9DD, 0x58F38DED, 5))
)
# Fewer paths than this take their keys from SeedSequence itself: below
# about six paths that is cheaper than the vectorized pass's fixed cost.
_MIN_BATCH = 8


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Return a fresh Generator keyed by (master_seed, *path).

    The key is hashed from the integer path via SeedSequence, then drives a
    Philox counter-based bit generator.  Identical paths give bit-identical
    streams on a given platform, and so do paths equal up to trailing zeros
    within four 32-bit words (an entry of 2**32 or more takes several); any
    other distinct paths give statistically independent streams.
    """
    entropy = (int(master_seed),) + tuple(int(p) for p in path)
    # Philox(key=...) would first seed itself from OS entropy, then overwrite
    # the key; seeding from the SeedSequence derives the same key in one hash
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each entry along the last axis, with the
    running constant at that call and the next."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> 16)


def _philox_keys(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(2, np.uint64)`` of each row of an
    ``(n, w)`` uint32 array, as one ``(n, 2)`` uint64 array."""
    # a path shorter than the pool of four words hashes as if padded with zeros
    entropy = np.zeros((len(words), max(words.shape[1], 4)), dtype=np.uint32)
    entropy[:, : words.shape[1]] = words
    pool, c = _hash(entropy[:, :4], _POOL_HASH[:5]), 4
    # each pool word into the other three, then each further word into all four
    for src in range(entropy.shape[1]):
        dst = [i for i in range(4) if i != src]
        hashed = _hash((pool if src < 4 else entropy)[:, src, None], _POOL_HASH[c : c + len(dst) + 1])
        mixed = pool[:, dst] * np.uint32(0xCA01F9DD) - hashed * np.uint32(0x4973F715)
        pool[:, dst] = mixed ^ (mixed >> 16)
        c += len(dst)
    return _hash(pool, _KEY_HASH).astype("<u4").view("<u8").astype(np.uint64)


def _keys(paths) -> list:
    """Each path's Philox key as a pair of ints, the one ``stream`` derives."""
    try:
        words = np.array(paths, dtype=np.int64)
        fast = len(paths) >= _MIN_BATCH and words.ndim == 2 and words.shape[1] <= _MAX_WORDS
        fast = fast and words.min() >= 0 and words.max() < 2**32
    except (OverflowError, ValueError):  # an entry of 2**63 or more; unequal lengths
        fast = False
    if fast:
        return _philox_keys(words.astype(np.uint32)).tolist()
    # SeedSequence splits an entry of 2**32 or more into several words
    seqs = [np.random.SeedSequence([int(p) for p in path]) for path in paths]
    return [seq.generate_state(2, np.uint64).tolist() for seq in seqs]


def draw_each(paths, draw) -> list:
    """``[draw(stream(*path)) for path in paths]``, bit for bit.  ``draw`` is
    called on the paths in order, on one generator re-keyed to each path
    (counter and buffers reset), and may return neither it nor its bit
    generator.  A batch of at least ``_MIN_BATCH`` equal-length paths with
    entries in [0, 2**32) derives its keys in one vectorized pass; any other
    takes each from SeedSequence."""
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    fresh = {"counter": (0, 0, 0, 0), "key": None}
    state = {"bit_generator": "Philox", "state": fresh, "buffer": (0, 0, 0, 0), "buffer_pos": 4}
    state.update(has_uint32=0, uinteger=0)
    out = []
    for key in _keys(paths):
        fresh["key"] = key
        bitgen.state = state
        out.append(draw(gen))
        if out[-1] is gen or out[-1] is bitgen:
            raise TypeError("draw_each: draw returned the generator, which must not leave draw_each")
    return out


def normal_rows_each(master_seed: int, tag: int, realizations, starts, counts, dim: int) -> np.ndarray:
    """Standard normal rows ``starts[i] .. starts[i] + counts[i] - 1`` of
    each (stream, ``realizations[i]``) sequence, as an ``(m, max(counts),
    dim)`` array, zero past each member's rows.  Each chunk the rows touch
    is drawn once, up to the last row needed, and all in one ``draw_each``
    call; a shorter draw is a prefix of a longer one, so every row is
    independent of the segment that asked for it."""
    out = np.zeros((len(counts), int(np.max(counts, initial=0)), dim))
    paths, spans = [], []
    for i, (realization, start, n) in enumerate(zip(realizations, starts, counts)):
        k, end = start, start + n
        while k < end:
            chunk, lo = divmod(k, CHUNK_STEPS)
            hi = min(CHUNK_STEPS, lo + end - k)
            paths.append((master_seed, tag, realization, chunk))
            spans.append((i, k - start, lo, hi))
            k += hi - lo
    # draw_each calls draw in path order, so each call takes its own size
    sizes = iter([(hi, dim) for *_, hi in spans])
    blocks = draw_each(paths, lambda gen: gen.standard_normal(next(sizes)))
    for (i, at, lo, hi), block in zip(spans, blocks):
        out[i, at : at + hi - lo] = block[lo:]
    return out
