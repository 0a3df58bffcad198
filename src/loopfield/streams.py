"""Reproducible random streams for replicated experiments.

Replica streams are derived counter-style from ``(master_seed, replica_index)``
through ``numpy.random.SeedSequence``, whose mixing function is fixed and
published, feeding a Philox counter-based generator.  Distinct indices give
streams of independent quality; identical inputs give identical streams on
every platform.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_stream", "replicate"]

_SEED_MASK = (1 << 64) - 1


def derive_stream(master_seed: int, replica_index: int = 0) -> np.random.Generator:
    """Generator for one replica, a pure function of (seed, index)."""
    if replica_index < 0:
        raise ValueError("replica_index must be >= 0")
    seq = np.random.SeedSequence(entropy=int(master_seed) & _SEED_MASK, spawn_key=(int(replica_index),))
    return np.random.Generator(np.random.Philox(seq))


def replicate(replicas: int, seed: int, fn) -> list:
    """Run ``fn(index, rng)`` for each replica in index order, in this thread,
    with the stream ``derive_stream(seed, index)``; return the results in
    index order."""
    return [fn(i, derive_stream(seed, i)) for i in range(replicas)]
