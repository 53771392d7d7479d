"""Seeded random streams.

All randomness in the package flows through Philox, a counter-based 64-bit
generator.  Streams are derived from an explicit integer seed plus a path of
stream indices, so Monte-Carlo trials can be generated independently, in any
order, and merged deterministically.

The trial chunk size (`TRIAL_CHUNK`) is part of the output contract, and so
are the blocks of trials and the time slices in which an ergodic chain
chunk draws its uniforms (`systems._BLOCK_CELLS`, `systems._STEP_CELLS`):
changing any of them changes the sampled streams.
"""

import numpy as np

# Trials are generated in fixed-size chunks; chunk c of a run uses the
# derived stream (seed, *path, c).
TRIAL_CHUNK = 1024


def stream(seed, *path):
    """Return a Generator for the derived stream (seed, *path)."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seed=ss))


def trial_chunks(n_trials, chunk=TRIAL_CHUNK):
    """Yield (chunk_index, start, count) covering range(n_trials)."""
    start = 0
    index = 0
    while start < n_trials:
        count = min(chunk, n_trials - start)
        yield index, start, count
        start += count
        index += 1

