"""The in-package SeedSequence and PCG64 against numpy's, word for word."""

import random

import numpy as np
import pytest

from rieszkit.atoms import derive_seed
from rieszkit.rng import PCG64, generate_state

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5]


def _tuples(count=2000):
    """Seeded (seed, index, retry) tuples, seeds from 1 to 96 bits wide."""
    rnd = random.Random(20240611)
    return [(rnd.getrandbits(rnd.randint(1, 96)), rnd.randrange(1000), rnd.randrange(8))
            for _ in range(count)]


def _same_stream(seed, draws=6):
    ours, theirs = PCG64(seed), np.random.default_rng(seed)
    assert [ours.uniform(-1.0, 1.0) for _ in range(draws)] == [
        float(theirs.uniform(-1.0, 1.0)) for _ in range(draws)]
    assert [ours.random() for _ in range(draws)] == theirs.random(draws).tolist()


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_edge_seeds_match_numpy(seed):
    for entropy in (seed, (seed,), (seed, 3, 1)):
        assert generate_state(entropy, 9) == np.random.SeedSequence(
            entropy).generate_state(9).tolist()
    _same_stream(seed)


def test_seeded_tuples_match_numpy():
    """Each tuple's atom seed, and the stream that seed starts, are numpy's;
    tuples with a wide seed have more words than the entropy pool holds."""
    for campaign_seed, index, retry in _tuples():
        seed = derive_seed(campaign_seed, index, retry)
        assert seed == int(np.random.SeedSequence(
            (campaign_seed, index, retry)).generate_state(1)[0])
        _same_stream(seed, draws=3)


def test_negative_seed_is_refused_like_numpy():
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError):
        PCG64(-1)
    with pytest.raises(ValueError):
        generate_state((0, -1), 1)
