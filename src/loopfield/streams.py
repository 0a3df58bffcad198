"""Reproducible random streams for replicated experiments.

Replica streams are derived counter-style from ``(master_seed, replica_index)``
through ``numpy.random.SeedSequence``, whose mixing function is fixed and
published, feeding a Philox counter-based generator.  Distinct indices give
streams of independent quality; identical inputs give identical streams on
every platform.

Replica ``i`` of seed ``s`` runs on the Philox key that
``SeedSequence(entropy=s mod 2^64, spawn_key=(i,)).generate_state(2, uint64)``
gives, with counter 0.  ``derive_stream`` builds that generator for one
replica.  ``replicate`` computes every replica's key in one vectorised pass
of the same mixing (entropy words ``[s_lo, s_hi, 0, 0]`` plus the spawn word
``i``) and re-keys one Philox generator before each replica, so a replica
costs its own draws rather than a generator construction.  Its draws are
those of ``derive_stream(seed, i)``, bit for bit.  A replica whose later
draws depend on work done for a whole chunk still makes them in its own
call, as raw words: the coupling reads ``bit_generator.random_raw`` words
and maps them to its uniforms and sign bits once the chunk is built.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "derive_stream",
    "replicate",
    "replicate_chunks",
    "CHUNK_VALUES",
]

_SEED_MASK = (1 << 64) - 1
_WORD_MASK = (1 << 32) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# a chunk of replicas stacks the draws of at most this many values, so the
# memory of a chunked experiment does not grow with its replica count
CHUNK_VALUES = 1 << 20


def derive_stream(master_seed: int, replica_index: int = 0) -> np.random.Generator:
    """Generator for one replica, a pure function of (seed, index)."""
    if replica_index < 0:
        raise ValueError("replica_index must be >= 0")
    seq = np.random.SeedSequence(entropy=int(master_seed) & _SEED_MASK, spawn_key=(int(replica_index),))
    return np.random.Generator(np.random.Philox(seq))


def _xorshift(value: np.ndarray) -> np.ndarray:
    return value ^ (value >> np.uint32(16))


def _replica_keys(master_seed: int, start: int, stop: int) -> np.ndarray:
    """Philox keys of ``derive_stream(master_seed, i)`` for ``start <= i < stop``,
    shape ``(stop - start, 2)``; one spawn word, so ``stop <= 2^32``."""
    seed = int(master_seed) & _SEED_MASK
    words = [np.array([w], dtype=np.uint32) for w in (seed & _WORD_MASK, seed >> 32, 0, 0)]
    words.append(np.arange(start, stop, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _WORD_MASK
        return _xorshift(value * np.uint32(hash_const))

    def mix(x, y):
        return _xorshift(np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y)

    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for dst in range(_POOL_SIZE):
        pool[dst] = mix(pool[dst], hashmix(words[_POOL_SIZE]))

    # generate_state(2, uint64): four uint32 words, paired low word first
    state = []
    hash_const = _INIT_B
    for value in pool:
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _WORD_MASK
        state.append(_xorshift(value * np.uint32(hash_const)).astype(np.uint64))
    shift = np.uint64(32)
    return np.stack([state[0] | state[1] << shift, state[2] | state[3] << shift], axis=1)


def replicate(replicas: int, seed: int, fn, start: int = 0) -> list:
    """Run ``fn(index, rng)`` for each replica index ``start .. start +
    replicas - 1`` in order, in this thread, with the draws of
    ``derive_stream(seed, index)``; return the results in index order.

    One generator serves every replica and is re-keyed before each call, so
    ``fn`` must not keep ``rng`` (or anything drawing from it) after it
    returns.  Indices stop below 2^32: the keys assume a one-word spawn key.
    """
    stop = start + max(replicas, 0)
    if start < 0:
        raise ValueError("replica indices must be >= 0")
    if stop > 1 << 32:
        raise ValueError("replicate supports replica indices below 2^32 only")
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    counter = np.zeros(4, dtype=np.uint64)
    buffer = np.zeros(4, dtype=np.uint64)
    results = []
    for i, key in enumerate(_replica_keys(seed, start, stop), start):
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": counter, "key": key},
            "buffer": buffer,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        results.append(fn(i, rng))
    return results


def replicate_chunks(replicas: int, seed: int, fn, values_per_replica: int):
    """``replicate(replicas, seed, fn)`` in consecutive chunks of at most
    ``CHUNK_VALUES // values_per_replica`` replicas (at least one); yields
    each chunk's results in turn, in index order."""
    chunk = max(1, CHUNK_VALUES // values_per_replica)
    for start in range(0, replicas, chunk):
        yield replicate(min(chunk, replicas - start), seed, fn, start=start)

