"""Cepstral frontend: 26-dimensional feature vectors at 0.1 s frame steps.

Each frame yields 7 linear-frequency cepstral coefficients plus a frequency
energy term; a differential (max-minus-min) energy track and regression-based
first and second derivatives complete the vector:

    [c1..c7, Ef, Ed, delta(c1..c7, Ef, Ed), deltadelta(c1..c7, Ef)]
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dct, rfft

from .errors import DataError
from .signal_io import Recording

PIPELINE_RATE_HZ = 250.0
ENERGY_FLOOR = 1e-10


@dataclass(frozen=True)
class FrameSpec:
    frame_s: float = 0.1
    window_s: float = 0.2
    fft_size: int = 64
    num_filters: int = 18
    num_cepstra: int = 7
    diff_energy_window_frames: int = 9   # M, must be odd
    delta_width_first: int = 9           # N1
    delta_width_second: int = 3          # N2
    frames_per_epoch: int = 10

    def __post_init__(self):
        if self.window_s < self.frame_s:
            raise DataError("window_s must be >= frame_s")
        if self.diff_energy_window_frames % 2 == 0:
            raise DataError("diff_energy_window_frames must be odd")
        if self.delta_width_first < 1 or self.delta_width_second < 1:
            raise DataError("delta widths must be >= 1")

    def window_samples(self, rate_hz: float) -> int:
        return int(round(self.window_s * rate_hz))

    def step_samples(self, rate_hz: float) -> int:
        return int(round(self.frame_s * rate_hz))


FEATURE_DIM = 26


@dataclass(frozen=True)
class FeatureGrid:
    """Per-channel frame features plus the 1 s epoch grouping."""
    vectors: np.ndarray  # (channels, frames, 26)
    frames_per_epoch: int = 10

    @property
    def num_channels(self) -> int:
        return self.vectors.shape[0]

    @property
    def num_frames(self) -> int:
        return self.vectors.shape[1]

    @property
    def num_epochs(self) -> int:
        return -(-self.num_frames // self.frames_per_epoch)

    def cells(self) -> np.ndarray:
        """The (epochs, channels, frames_per_epoch, 26) observation blocks of
        every cell, built in one allocation; a trailing partial epoch is
        padded by repeating the final frame."""
        fpe = self.frames_per_epoch
        n_ch, n_fr, dim = self.vectors.shape
        out = np.empty((self.num_epochs, n_ch, fpe, dim), dtype=self.vectors.dtype)
        full = n_fr // fpe
        out[:full] = self.vectors[:, :full * fpe].reshape(
            n_ch, full, fpe, dim).transpose(1, 0, 2, 3)
        rest = n_fr - full * fpe
        if rest:
            out[full, :, :rest] = self.vectors[:, full * fpe:]
            out[full, :, rest:] = self.vectors[:, -1:]
        return out


def frame_signal(samples: np.ndarray, spec: FrameSpec,
                 rate_hz: float = PIPELINE_RATE_HZ) -> np.ndarray:
    """Slice a channel into Hamming-windowed overlapping frames.

    Frame t covers samples [t*frame_s, t*frame_s + window_s); a trailing
    partial frame is dropped.
    """
    samples = np.asarray(samples, dtype=np.float64)
    win = spec.window_samples(rate_hz)
    step = spec.step_samples(rate_hz)
    if len(samples) < win:
        raise DataError(
            f"signal of {len(samples)} samples shorter than one {win}-sample window")
    n_frames = (len(samples) - win) // step + 1
    idx = np.arange(win)[None, :] + step * np.arange(n_frames)[:, None]
    return samples[idx] * np.hamming(win)


def _filterbank_matrix(spec: FrameSpec, rate_hz: float) -> np.ndarray:
    """Triangular filters linearly spaced from 0 to Nyquist with 50% overlap,
    applied to the magnitude-squared rfft bins."""
    n_bins = spec.fft_size // 2 + 1
    freqs = np.arange(n_bins) * rate_hz / spec.fft_size
    nyq = rate_hz / 2.0
    centers = np.linspace(0.0, nyq, spec.num_filters + 2)
    fb = np.zeros((spec.num_filters, n_bins))
    for j in range(spec.num_filters):
        lo, c, hi = centers[j], centers[j + 1], centers[j + 2]
        rising = (freqs - lo) / (c - lo)
        falling = (hi - freqs) / (hi - c)
        fb[j] = np.clip(np.minimum(rising, falling), 0.0, None)
    return fb


def filterbank_energies(frames: np.ndarray, spec: FrameSpec,
                        rate_hz: float = PIPELINE_RATE_HZ) -> np.ndarray:
    """Per-frame filterbank energies, floored at ENERGY_FLOOR."""
    frames = np.atleast_2d(frames)
    spectrum = np.abs(rfft(frames, n=spec.fft_size, axis=-1)) ** 2
    fb = _filterbank_matrix(spec, rate_hz)
    energies = spectrum @ fb.T
    return np.maximum(energies, ENERGY_FLOOR)


def cepstra(energies: np.ndarray, spec: FrameSpec) -> np.ndarray:
    """DCT-II of the log filterbank energies; the 0th coefficient is discarded
    and coefficients 1..num_cepstra returned."""
    logmel = np.log(np.atleast_2d(energies))
    coeffs = dct(logmel, type=2, norm="ortho", axis=-1)
    return coeffs[..., 1:spec.num_cepstra + 1]


def frequency_energy(energies: np.ndarray) -> np.ndarray:
    """Log total filterbank energy per frame (the floored energies keep the
    log finite on silent frames)."""
    return np.log(np.sum(np.atleast_2d(energies), axis=-1))


def differential_energy(ef: np.ndarray, m: int = 9) -> np.ndarray:
    """Max-minus-min of the frame energy over an m-frame window centered on
    each frame; boundary windows truncate to the available frames (edge
    replication adds no new values, so it gives the same max and min)."""
    if m % 2 == 0:
        raise DataError("differential energy window must be odd")
    ef = np.asarray(ef, dtype=np.float64)
    windows = sliding_window_view(np.pad(ef, m // 2, mode="edge"), m)
    return windows.max(axis=1) - windows.min(axis=1)


def deltas(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Regression-based derivative along the frame axis with edge-replicated
    padding: d_t = sum_n n*(c_{t+n} - c_{t-n}) / (2*sum_n n^2)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    squeeze = coeffs.ndim == 1
    c = coeffs[:, None] if squeeze else coeffs
    padded = np.pad(c, ((n, n), (0, 0)), mode="edge")
    denom = 2.0 * sum(k * k for k in range(1, n + 1))
    out = np.zeros_like(c)
    for k in range(1, n + 1):
        out += k * (padded[n + k: n + k + len(c)] - padded[n - k: n - k + len(c)])
    out /= denom
    return out[:, 0] if squeeze else out


def extract_channel(samples: np.ndarray, spec: FrameSpec,
                    rate_hz: float = PIPELINE_RATE_HZ) -> np.ndarray:
    """Full 26-dimensional feature matrix (frames x 26) for one channel."""
    frames = frame_signal(samples, spec, rate_hz)
    energies = filterbank_energies(frames, spec, rate_hz)
    ceps = cepstra(energies, spec)                      # (T, 7)
    ef = frequency_energy(energies)                     # (T,)
    ed = differential_energy(ef, spec.diff_energy_window_frames)
    absolute = np.column_stack([ceps, ef, ed])          # (T, 9)
    d1 = deltas(absolute, spec.delta_width_first)       # (T, 9)
    d2 = deltas(d1[:, :8], spec.delta_width_second)     # (T, 8): c1..c7, Ef only
    return np.column_stack([absolute, d1, d2])


def extract_features(rec: Recording, spec: FrameSpec | None = None) -> FeatureGrid:
    spec = spec or FrameSpec()
    if abs(rec.sample_rate_hz - PIPELINE_RATE_HZ) > 1e-9:
        raise DataError(
            f"feature extraction requires {PIPELINE_RATE_HZ:g} Hz input, "
            f"got {rec.sample_rate_hz:g} Hz (resample first)")
    mats = [extract_channel(samples, spec, rec.sample_rate_hz)
            for samples in rec.data]
    return FeatureGrid(np.stack(mats), spec.frames_per_epoch)
