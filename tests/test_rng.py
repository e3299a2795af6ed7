import tracemalloc

import pytest

from gwspeed.rng import _CHUNK, D_HIT, D_WALK, substream, substreams

# seeds of one, two, three and five 32-bit words; above 128 bits numpy mixes
# the extra seed words in its second loop
SEEDS = (0, 1, 2**32 + 5, 2**70 + 3, 2**130 + 11)
COUNTS = (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2100)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("prefix", [(D_HIT,), (D_WALK, 1), (6, 2**33 + 1)])
def test_substreams_equal_substream(seed, prefix):
    ref = [substream(seed, *prefix, i).bit_generator.state for i in range(max(COUNTS))]
    for count in COUNTS:
        got = [rng.bit_generator.state for rng in substreams(seed, *prefix, count=count)]
        assert got == ref[:count]


@pytest.mark.parametrize("seed, prefix", [(-1, (D_HIT,)), (1, (-1,)), (1, (D_WALK, -3))])
def test_substreams_refuse_negative_keys_as_seed_sequence_does(seed, prefix):
    with pytest.raises(ValueError):
        substream(seed, *prefix, 0)
    with pytest.raises(ValueError):
        next(substreams(seed, *prefix, count=1))


def test_substreams_derive_one_chunk_at_a_time():
    tracemalloc.start()
    try:
        first = next(substreams(1, 7, count=10**15))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.bit_generator.state == substream(1, 7, 0).bit_generator.state
    assert peak < 2**20
