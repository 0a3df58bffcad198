import numpy as np
import pytest

from loopfield.streams import _replica_keys, derive_stream, replicate

MASK = (1 << 64) - 1
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 17, 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_keys_equal_seed_sequence_keys(seed):
    last = 2**16 + 3
    keys = _replica_keys(seed, 0, last + 1)
    assert keys.shape == (last + 1, 2) and keys.dtype == np.uint64
    for i in (0, 1, 2**16, last):
        seq = np.random.SeedSequence(seed & MASK, spawn_key=(i,))
        assert np.array_equal(keys[i], np.random.Philox(seq).state["state"]["key"])


def _draws(_i, rng):
    # every draw kind the experiments use, including a 32-bit buffered one
    return (
        rng.random(3),
        rng.standard_normal(4),
        rng.integers(0, 2, 5),
        rng.poisson(2.5, 2),
        rng.standard_gamma(0.5, 3),
        rng.random(),
    )


@pytest.mark.parametrize("seed", [0, 2**63 + 17, 2**64 - 1])
def test_replicate_draws_equal_derive_stream(seed):
    got = replicate(40, seed, _draws)
    assert len(got) == 40
    for i, draws in enumerate(got):
        for a, b in zip(draws, _draws(i, derive_stream(seed, i))):
            assert np.array_equal(a, b)


def test_replicate_from_start_index():
    # the last indices a one-word spawn key reaches
    start = 2**32 - 4
    got = replicate(4, 5, _draws, start=start)
    for i, draws in enumerate(got, start):
        for a, b in zip(draws, _draws(i, derive_stream(5, i))):
            assert np.array_equal(a, b)
    assert replicate(3, 5, lambda i, _rng: i, start=7) == [7, 8, 9]


def test_replicate_resets_buffered_state():
    # a 32-bit draw leaves half a word buffered; the next replica must not see it
    def fn(_i, rng):
        return rng.integers(0, 2**31, 3, dtype=np.int32), rng.random()

    for i, (a, b) in enumerate(replicate(5, 9, fn)):
        ref = derive_stream(9, i)
        assert np.array_equal(a, ref.integers(0, 2**31, 3, dtype=np.int32))
        assert b == ref.random()


def test_replicate_rejects_more_than_one_spawn_word():
    # rejected before any key is derived, so nothing of that size is allocated
    with pytest.raises(ValueError, match="2\\^32"):
        replicate(2**32 + 1, 1, _draws)
    with pytest.raises(ValueError, match="2\\^32"):
        replicate(2, 1, _draws, start=2**32 - 1)
    with pytest.raises(ValueError, match=">= 0"):
        replicate(2, 1, _draws, start=-1)
    assert replicate(0, 1, _draws) == []
