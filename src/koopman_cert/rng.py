"""Seeded random streams.

All randomness in the package flows through Philox, a counter-based 64-bit
generator.  Streams are derived from an explicit integer seed plus a path of
stream indices, so Monte-Carlo trials can be generated independently, in any
order, and merged deterministically.
"""

import numpy as np

# Trials are generated in fixed-size chunks; chunk c of a run uses the
# derived stream (seed, *path, c).  The chunk size is part of the output
# contract: changing it changes the sampled streams.
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


def positioned(gen, offsets):
    """One Generator per offset: the b-th draws what the Philox generator
    `gen` would draw from offsets[b] raw 64-bit draws past its current
    position (a float64 in [0, 1) is one raw draw).  `gen` does not move.

    Philox is counter-based: raw draw p is word p % 4 of the block at
    counter p // 4 + 1, and the current position is read from gen's
    counter and `buffer_pos`.
    """
    state = gen.bit_generator.state
    counter = sum(int(c) << (64 * i) for i, c in enumerate(state["state"]["counter"]))
    pos = 4 * (counter - 1) + state["buffer_pos"]
    key = state["state"]["key"]
    out = []
    for offset in offsets:
        p = pos + int(offset)
        bits = np.random.Philox(key=key, counter=p // 4 % (1 << 256))
        bits.random_raw(p % 4)
        out.append(np.random.Generator(bits))
    return out
