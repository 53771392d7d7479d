"""Seeded random streams.

All randomness in the package flows through Philox, a counter-based 64-bit
generator.  Streams are derived from an explicit integer seed plus a path of
stream indices, so Monte-Carlo trials can be generated independently, in any
order, and merged deterministically.

The trial chunk size (`TRIAL_CHUNK`) is part of the output contract, and so
is the slice rule (`systems.block_rows`, `_BLOCK_CELLS`, `_STEP_CELLS`): it
fixes the blocks and time slices in which an ergodic chain chunk draws its
uniforms, and the time slices in which other i.i.d. chunks draw their xs,
then their ys.  Ergodic streams of rotations, noisy maps and SDEs do not
depend on it: every lag draws for the whole chunk.

A chain's draws are uniforms.  A chain with k-step jump tables
(`kernels.chain_tables`; five states or fewer) draws one uniform per code
of k steps, which names the code through the alias table of the codes'
law, and one uniform per step only for the m mod k steps a row has left
at its end: each time slice spans whole codes and draws its code uniforms
and then those steps' (`FiniteMarkovSystem._slices`).  So the alias
table's construction (`kernels._alias`) and the draw (`kernels._draw`)
are part of the contract too; `test_golden_chain_streams` in
tests/test_systems.py pins two such streams as literal states.  Any other
chain draws one uniform per step.
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

