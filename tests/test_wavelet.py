import math

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

from util import cwt_oracle


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
    assert table.rows.shape == (2 * 16, 3)
    # export is lossless: every row matches the in-memory amplitude matrix
    amp = sg.amplitude
    for scale, time, amplitude in table.rows:
        si = int(np.argmin(np.abs(sg.scales - scale)))
        assert amplitude == amp[si, int(time)]
    peak = table.global_peak
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
