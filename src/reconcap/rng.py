"""Counter-based random streams.

Every random draw in the library is produced by a Philox generator whose key
is derived from an explicit integer path (master seed, stream tag, realization
index, chunk index, ...).  No generator is shared between consumers or kept
between calls, so any draw can be replayed in isolation and concurrent
consumers cannot perturb each other.

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
STREAM_ORACLE = 4

# Steps per noise chunk; recorded in every run's seed ledger.
CHUNK_STEPS = 256


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Return a fresh Generator keyed by (master_seed, *path).

    The key is hashed from the integer path via SeedSequence, then drives a
    Philox counter-based bit generator.  Identical paths give bit-identical
    streams on a given platform; distinct paths give statistically independent
    streams.
    """
    entropy = (int(master_seed),) + tuple(int(p) for p in path)
    # Philox(key=...) would first seed itself from OS entropy, then overwrite
    # the key; seeding from the SeedSequence derives the same key in one hash
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def normal_rows(master_seed: int, tag: int, realization: int, start: int, n: int, dim: int) -> np.ndarray:
    """Standard normal rows ``start .. start + n - 1`` of one (stream,
    realization) sequence, as an ``(n, dim)`` array.

    Each chunk the rows touch is drawn once, up to the last row needed; a
    shorter draw is a prefix of a longer one, so every row is independent of
    the segment that asked for it.
    """
    out = np.empty((n, dim))
    k, end = start, start + n
    while k < end:
        chunk, lo = divmod(k, CHUNK_STEPS)
        hi = min(CHUNK_STEPS, lo + end - k)
        block = stream(master_seed, tag, realization, chunk).standard_normal((hi, dim))
        out[k - start : k - start + hi - lo] = block[lo:]
        k += hi - lo
    return out
