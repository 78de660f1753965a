import math
import tracemalloc

import numpy as np
import pytest

from matchflow.errors import DataError
from matchflow.wavelet import (
    Scalogram,
    WaveletConfig,
    cwt,
    morlet,
    scale_for_period,
    scalogram_export,
)

from util import cwt_batched_oracle, cwt_oracle


def test_morlet_at_zero():
    value = morlet(0.0, 6.0)
    assert value.real == pytest.approx(math.pi**-0.25)
    assert value.imag == 0.0


def test_morlet_even_envelope():
    rng = np.random.default_rng(0)
    for t in rng.uniform(-4, 4, size=12):
        assert abs(morlet(t)) == pytest.approx(abs(morlet(-t)), rel=1e-12)


def test_morlet_gaussian_decay():
    assert abs(morlet(5.0)) < 1e-5 * abs(morlet(0.0))


def test_scale_for_period():
    assert scale_for_period(16.0, 6.0) == pytest.approx(6.0 * 16.0 / (2.0 * math.pi))


def test_constant_signal_is_annihilated():
    signal = np.full(64, 3.0)
    sg = cwt(signal, WaveletConfig(boundary="reflect"))
    assert sg.amplitude.max() < 1e-6 * np.linalg.norm(signal)
    # zero padding turns a constant into a box whose edges are real signal;
    # only coefficients whose support stays interior see pure DC
    sg = cwt(signal, WaveletConfig(scales=np.array([2.0, 3.0, 4.0]), boundary="zero"))
    interior = sg.amplitude[:, 26:38]
    assert interior.max() < 1e-6 * np.linalg.norm(signal)


def test_sinusoid_ridge_at_predicted_scale():
    n = 256
    period = 16.0
    t = np.arange(n)
    signal = np.sin(2.0 * math.pi * t / period)
    config = WaveletConfig()
    sg = cwt(signal, config)
    predicted = scale_for_period(period, config.center_frequency)
    ladder = sg.scales
    step = ladder[1] / ladder[0]
    # average amplitude over the middle half, away from boundary effects
    middle = sg.amplitude[:, n // 4 : 3 * n // 4].mean(axis=1)
    found = ladder[int(np.argmax(middle))]
    assert abs(math.log(found / predicted)) <= math.log(step) + 1e-12


def test_linearity():
    rng = np.random.default_rng(1)
    signal = rng.normal(size=48)
    config = WaveletConfig(n_scales=8)
    a = cwt(signal, config).coefficients
    b = cwt(2.0 * signal, config).coefficients
    assert np.allclose(b, 2.0 * a, atol=1e-10)


def test_direct_summation_oracle_zero_pad():
    rng = np.random.default_rng(2)
    signal = rng.normal(size=32)
    scales = [2.0, 3.5, 5.0, 8.0]
    config = WaveletConfig(scales=np.array(scales), boundary="zero")
    got = cwt(signal, config).coefficients
    want = cwt_oracle(signal, scales, 6.0, boundary="zero")
    assert np.max(np.abs(got - want)) <= 1e-10


def test_direct_summation_oracle_reflect():
    rng = np.random.default_rng(3)
    signal = rng.normal(size=32)
    scales = [2.0, 4.0, 6.0]
    config = WaveletConfig(scales=np.array(scales), boundary="reflect")
    got = cwt(signal, config).coefficients
    want = cwt_oracle(signal, scales, 6.0, boundary="reflect")
    assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize(
    "n, boundary, scales",
    [
        (8, "reflect", None),  # reflect padding longer than the signal
        (45, "reflect", None),  # length that is not a power of two
        (45, "zero", None),
        (20, "reflect", [2.0, 40.0]),  # one scale whose support exceeds the signal
        (20, "zero", [2.0, 40.0]),
    ],
)
def test_fft_transform_matches_direct_summation_oracle(n, boundary, scales):
    signal = np.random.default_rng(n).normal(size=n)
    if scales is None:
        config = WaveletConfig(n_scales=6, boundary=boundary)
    else:
        config = WaveletConfig(scales=np.array(scales), boundary=boundary)
    got = cwt(signal, config)
    want = cwt_oracle(signal, got.scales.tolist(), 6.0, boundary=boundary)
    assert got.coefficients.shape == (got.scales.size, n)
    assert np.max(np.abs(got.coefficients - want)) <= 1e-10


def test_shift_covariance_in_the_interior():
    rng = np.random.default_rng(4)
    n, shift = 96, 5
    base = rng.normal(size=n)
    shifted = np.zeros(n)
    shifted[shift:] = base[: n - shift]
    scales = np.array([2.0, 2.8, 3.5])
    config = WaveletConfig(scales=scales, boundary="zero")
    a = cwt(base, config).coefficients
    b = cwt(shifted, config).coefficients
    middle = np.arange(n // 3, 2 * n // 3)
    assert np.max(np.abs(b[:, middle + shift] - a[:, middle])) <= 1e-8


def test_amplitude_ignores_signal_sign():
    rng = np.random.default_rng(5)
    signal = rng.normal(size=40)
    config = WaveletConfig(n_scales=6)
    a = cwt(signal, config)
    b = cwt(-signal, config)
    assert np.allclose(a.amplitude, b.amplitude, atol=1e-12)


def test_export_shape_and_exactness():
    rng = np.random.default_rng(6)
    signal = rng.normal(size=16)
    config = WaveletConfig(scales=np.array([2.0, 4.0]))
    sg = cwt(signal, config)
    table = scalogram_export(sg)
    assert table["n_rows"] == 2 * 16
    # export is lossless: every row of the three columns the CLI writes matches the
    # in-memory amplitude matrix
    amp = sg.amplitude
    columns = [np.repeat(sg.scales, sg.times.size), np.tile(sg.times, sg.scales.size),
               amp.ravel()]
    assert all(column.size == table["n_rows"] for column in columns)
    for scale, time, amplitude in zip(*columns):
        si = int(np.argmin(np.abs(sg.scales - scale)))
        assert amplitude == amp[si, int(time)]
    peak = table["global_peak"]
    si, ti = np.unravel_index(int(np.argmax(amp)), amp.shape)
    assert peak["scale"] == sg.scales[si]
    assert peak["time"] == int(sg.times[ti])
    assert peak["amplitude"] == amp[si, ti]


def test_ladder_spans_requested_periods():
    config = WaveletConfig(n_scales=32, min_period=2.0)
    ladder = config.scale_ladder(128)
    assert ladder.size == 32
    assert ladder[0] == pytest.approx(scale_for_period(2.0))
    assert ladder[-1] == pytest.approx(scale_for_period(64.0))
    ratios = ladder[1:] / ladder[:-1]
    assert np.allclose(ratios, ratios[0])
    assert WaveletConfig(n_scales=1).scale_ladder(64).tolist() == [scale_for_period(2.0)]


def test_validation_errors():
    with pytest.raises(DataError, match="at least 8"):
        cwt(np.zeros(4))
    with pytest.raises(DataError, match="admissibility"):
        cwt(np.zeros(16), WaveletConfig(center_frequency=2.0))
    with pytest.raises(DataError, match="boundary"):
        cwt(np.zeros(16), WaveletConfig(boundary="wrap"))
    with pytest.raises(DataError, match="positive"):
        cwt(np.zeros(16), WaveletConfig(scales=np.array([1.0, -2.0])))
    with pytest.raises(DataError, match="max_period"):
        cwt(np.zeros(16), WaveletConfig(min_period=10.0, max_period=5.0))
    with pytest.raises(DataError, match="max_period must exceed min_period"):
        WaveletConfig(min_period=40.0).scale_ladder(64)  # the default max_period is 64 / 2


def test_max_period_may_reach_the_signal_length_and_no_further():
    # max_period sizes the reflect padding and every kernel, so the data bound it
    signal = np.sin(np.arange(40) / 3.0)
    scalogram = cwt(signal, WaveletConfig(max_period=40.0))
    assert scalogram.scales[-1] == pytest.approx(scale_for_period(40.0))
    assert scalogram.coefficients.shape == (32, 40)
    assert np.all(np.isfinite(scalogram.coefficients))
    with pytest.raises(DataError, match="max_period must be at most the signal length, 40, "
                                        "got 40.5"):
        cwt(signal, WaveletConfig(max_period=40.5))


@pytest.mark.parametrize("n", [8, 45, 210, 400])
@pytest.mark.parametrize("boundary", ["reflect", "zero"])
@pytest.mark.parametrize("ladder", ["default", "wide"])
def test_per_scale_transform_matches_the_batched_one_bit_for_bit(n, boundary, ladder):
    # numpy's SIMD exp treats an array's tail apart from the rest, and its complex product
    # is not bitwise commutative, so rows match the batched arrays only through the same
    # work in the same order.  "wide" has a scale whose support exceeds the signal; at 400
    # points it needs an FFT of 16384 terms, the size from which numpy may reuse a
    # temporary operand of a product in place
    signal = np.random.default_rng([11, n]).normal(size=n)
    scales = None if ladder == "default" else np.array([2.0, 2.0 * n])
    config = WaveletConfig(scales=scales, boundary=boundary)
    got = cwt(signal, config).coefficients
    want = cwt_batched_oracle(signal, config)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_transform_holds_one_scale_at_a_time_within_a_memory_bound():
    """Traced peak of cwt on 1000 points with the default 32-scale ladder.

    Building every scale's kernel, spectrum and inverse at once peaked at about
    12.7 MB.  One scale at a time it peaks at about 1.6 MB: the 0.5 MB output, the
    signal's spectrum and one scale's kernel and spectra.
    """
    signal = np.random.default_rng(1000).normal(size=1000)
    tracemalloc.start()
    try:
        scalogram = cwt(signal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scalogram.coefficients.shape == (32, 1000)
    assert peak <= 3e6, peak
