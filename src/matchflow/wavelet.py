"""Continuous wavelet transform of momentum series with a complex Morlet
basis, producing amplitude scalograms over a geometric scale ladder.

The transform is W(a, b) = sum_t f(t) * conj(psi((t - b) / a)) / sqrt(a)
with unit sample spacing.  Each scale's row is a cross-correlation of the
signal with that scale's sampled wavelet, so it is computed as one FFT
convolution per scale (Torrence & Compo 1998, "A Practical Guide to Wavelet
Analysis", BAMS 79): the wavelet is sampled once at every lag the sum can
reach, and the FFT is at least as long as that sampled kernel, so no term
the sum uses wraps around or is dropped.  The result is the direct sum up
to rounding.  The signal's spectrum is taken once and the scales are then
transformed one at a time, so besides the (n_scales, n) output only one
scale's kernel, spectrum and inverse are held at any moment.
Boundaries are handled by reflecting the signal (default) or by treating
everything outside it as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError

MIN_SIGNAL_LENGTH = 8
MIN_CENTER_FREQUENCY = 5.0  # below this the zero-mean approximation degrades
SUPPORT_RADIUS = 6.0  # reflect padding extends this many scale units


def morlet(t, center_frequency: float = 6.0):
    """Complex Morlet wavelet pi^(-1/4) e^(i w0 t) e^(-t^2/2); a scalar t gives an np.complex128."""
    t = np.asarray(t, dtype=float)
    return math.pi**-0.25 * np.exp(1j * center_frequency * t) * np.exp(-0.5 * t**2)


def scale_for_period(period: float, center_frequency: float = 6.0) -> float:
    """Scale whose wavelet oscillates with the given period in samples."""
    return center_frequency * period / (2.0 * math.pi)


@dataclass
class WaveletConfig:
    """Basis and ladder parameters for the transform."""

    center_frequency: float = 6.0
    n_scales: int = 32
    min_period: float = 2.0
    max_period: float | None = None  # defaults to half the signal length; at most the length
    scales: np.ndarray | None = None  # explicit ladder overrides the periods
    boundary: str = "reflect"  # or "zero"

    def validate(self):
        if self.center_frequency < MIN_CENTER_FREQUENCY:
            raise DataError(
                f"center frequency must be >= {MIN_CENTER_FREQUENCY} for admissibility"
            )
        if self.boundary not in ("reflect", "zero"):
            raise DataError("boundary must be 'reflect' or 'zero'")
        if self.scales is not None and np.any(np.asarray(self.scales) <= 0):
            raise DataError("all scales must be positive")
        if self.scales is None:
            if self.n_scales < 1:
                raise DataError("need at least one scale")
            if self.min_period <= 0:
                raise DataError("min_period must be positive")
            if self.max_period is not None and self.max_period <= self.min_period:
                raise DataError("max_period must exceed min_period")

    def scale_ladder(self, signal_length: int) -> np.ndarray:
        if self.scales is not None:
            return np.asarray(self.scales, dtype=float)
        max_period = self.max_period if self.max_period else signal_length / 2.0
        if max_period <= self.min_period:
            raise DataError("max_period must exceed min_period")
        if max_period > signal_length:  # it sizes the padding and every kernel
            raise DataError(f"max_period must be at most the signal length, {signal_length}, "
                            f"got {max_period:g}")
        lo = scale_for_period(self.min_period, self.center_frequency)
        hi = scale_for_period(max_period, self.center_frequency)
        if self.n_scales == 1:
            return np.array([lo])
        return lo * (hi / lo) ** (np.arange(self.n_scales) / (self.n_scales - 1))


@dataclass
class Scalogram:
    """Complex coefficients over (scale, time) plus their amplitudes."""

    scales: np.ndarray
    times: np.ndarray
    coefficients: np.ndarray  # (n_scales, n_times) complex

    @cached_property
    def amplitude(self) -> np.ndarray:
        """|coefficients|, computed on the first read and kept."""
        return np.abs(self.coefficients)


def cwt(signal, config: WaveletConfig | None = None) -> Scalogram:
    """Continuous wavelet transform, one FFT convolution per scale.

    The signal is extended by reflection over SUPPORT_RADIUS scale units of
    the largest scale (or taken as zero outside itself), and every scale's
    row is the linear convolution of that extension with the time-reversed
    conjugate wavelet, sampled over every lag between an extended position
    and an output time.  Agrees with the direct sum to rounding error (about
    1e-14 of the peak amplitude).

    The signal's FFT is taken once; each scale then builds its kernel,
    multiplies the kernel's FFT by that spectrum and inverts it into its row
    of a preallocated output.  Beyond the output, the transient is one
    scale's kernel and spectra: a few complex arrays of the FFT length, not
    n_scales of each.

    Args:
        signal: real sequence of at least 8 samples.
        config: basis/ladder settings; defaults to a 32-step geometric ladder
            spanning periods from 2 samples to half the signal length.

    Raises:
        DataError: empty/short signal or an invalid configuration.
    """
    x = np.asarray(signal, dtype=float).ravel()
    if x.size < MIN_SIGNAL_LENGTH:
        raise DataError(f"signal must have at least {MIN_SIGNAL_LENGTH} samples")
    config = config or WaveletConfig()
    config.validate()
    scales = config.scale_ladder(x.size)

    pad = int(math.ceil(SUPPORT_RADIUS * scales.max())) if config.boundary == "reflect" else 0
    extended = np.pad(x, pad, mode="reflect") if pad else x
    # extended[j] sits at position j - pad, so position - time spans +-reach
    reach = x.size - 1 + pad
    lags = np.arange(-reach, reach + 1, dtype=float)
    # Output index q = b + pad + reach pairs extended[j] with kernel index
    # q - j = reach - (j - pad - b), which stays inside 0..2*reach for every
    # j and b; an FFT at least as long as the kernel therefore never wraps a
    # term that the direct sum uses.
    size = 1 << (lags.size - 1).bit_length()
    signal_fft = np.fft.fft(extended, size)
    start = pad + reach
    coeffs = np.empty((scales.size, x.size), dtype=complex)
    for row, scale, root in zip(coeffs, scales, np.sqrt(scales)):
        kernel = np.conj(morlet(-lags / scale, config.center_frequency))
        kernel /= root
        spectrum = np.fft.fft(kernel, size)
        # signal first: numpy's complex product is not bitwise commutative, and a bare
        # `signal_fft * np.fft.fft(...)` may reuse the temporary and swap the operands
        np.multiply(signal_fft, spectrum, out=spectrum)
        row[:] = np.fft.ifft(spectrum)[start : start + x.size]
    times = np.arange(x.size)
    return Scalogram(scales, times, coeffs)


def scalogram_export(scalogram: Scalogram) -> dict:
    """Peak marks of a scalogram and its number of (scale, time, amplitude) rows.

    Returns the payload scalogram.json holds (schema ``scalogram``), less the
    config the CLI adds.  The per-time peak scale traces the
    momentum-oscillation ridge; the global peak row always matches the
    amplitude matrix argmax.
    """
    amp = scalogram.amplitude
    si, ti = np.unravel_index(int(np.argmax(amp)), amp.shape)
    return {
        "version": 1,
        "n_rows": amp.size,
        "peak_time_per_scale": scalogram.times[np.argmax(amp, axis=1)].tolist(),
        "peak_scale_per_time": scalogram.scales[np.argmax(amp, axis=0)].tolist(),
        "global_peak": {
            "scale": float(scalogram.scales[si]),
            "time": int(scalogram.times[ti]),
            "amplitude": float(amp[si, ti]),
        },
    }
