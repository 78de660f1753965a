"""rng's streams against numpy.random's default_rng, which only the tests import."""

import numpy as np
import pytest

from matchflow import rng, trend
from matchflow.momentum import MomentumParams

from util import permutation_oracle

# seeds of one to four uint32 words; with 2**100 + 3, [seed, i] has five words, and the
# words past SeedSequence's pool of four are mixed in separately
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 3]


def numpy_lanes(seed, lanes, n):
    rows = [np.random.default_rng([seed, i]).permutation(n) for i in lanes]
    return np.array(rows).reshape(len(rows), n)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 127, 128, 129, 256, 1000])
def test_lanes_equal_default_rng_permutations(seed, n):
    lanes = range(1000, 1037)
    got = rng.lane_permutations(seed, lanes, n)
    assert got.shape == (37, n) and got.dtype == np.int16
    np.testing.assert_array_equal(got, numpy_lanes(seed, lanes, n))


def test_thousands_of_lanes_of_three():
    # lanes that are still rejecting draws keep every lane reading more outputs
    np.testing.assert_array_equal(rng.lane_permutations(5, range(3000), 3),
                                  numpy_lanes(5, range(3000), 3))


def test_index_dtype_widens_past_int16():
    got = rng.lane_permutations(2, [0, 9], 2**15)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, numpy_lanes(2, [0, 9], 2**15))


def test_null_spans_lane_blocks_with_a_partial_last_block(monkeypatch):
    monkeypatch.setattr(trend, "LANE_BLOCK", 50)
    monkeypatch.setattr(trend, "PERMUTATION_BLOCK", 16)
    victors = np.array([1, 2, 2, 1, 1, 1, 2, 1, 2, 2, 2, 1, 1, 2, 1, 2, 1, 1, 2, 2, 1, 2])
    params = MomentumParams()
    null = trend._permutation_null(victors, trend.stat_max_streak, params, 133, 2**64 + 5)
    _, oracle, _ = permutation_oracle(victors, "max_streak", 133, 2**64 + 5, params)
    np.testing.assert_array_equal(null, oracle)


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_equals_successive_permutation_calls(seed):
    stream, numpy_rng = rng.Stream(seed), np.random.default_rng(seed)
    # (m, count): whole shuffles, empty and one-element ones, and tails whose lower
    # steps are read only when the next call comes
    for m, count in [(5, 5), (0, 0), (1, 1), (1, 0), (1000, 200), (3, 1), (5000, 5000),
                     (64, 0), (65, 13), (2, 2)]:
        want = numpy_rng.permutation(m)
        assert stream.tail(m, count) == want[m - count:].tolist()


def test_negative_seed_raises_value_error_as_numpy_does():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="non-negative"):
        rng.Stream(-1)
    with pytest.raises(ValueError, match="non-negative"):
        rng.lane_permutations(-2**40, [0], 5)
    with pytest.raises(ValueError, match="lanes"):
        rng.lane_permutations(0, [2**32], 5)
