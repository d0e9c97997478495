"""Cepstral frontend: 26-dimensional feature vectors at 0.1 s frame steps.

Each frame yields 7 linear-frequency cepstral coefficients plus a frequency
energy term; a differential (max-minus-min) energy track and regression-based
first and second derivatives complete the vector:

    [c1..c7, Ef, Ed, delta(c1..c7, Ef, Ed), deltadelta(c1..c7, Ef)]

No frames are built. A channel is cut into contiguous step-sized blocks, and
the Hamming-windowed real DFT of every frame is one wide GEMM of a
precomputed basis against those blocks, followed by one shifted add per
step-sized slice of the window. Power, filterbank, log and DCT then run over
chunks of frames small enough to stay in cache. The rest of the vector (the
differential energy, both delta passes and the copy into the output) runs
over groups of channels whose 26 rows fit the same cache budget: all 22
channels of a 30 s clip in two groups, one channel at a time for 10 min.
The GEMMs run with numpy's OpenBLAS held at one thread (`parallel`); the
features are the same bits at one and two threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import DataError
from .signal_io import Recording

PIPELINE_RATE_HZ = 250.0
ENERGY_FLOOR = 1e-10
FEATURE_DIM = 26
_CEPSTRA = 7  # the vector above holds c1..c7

# Doubles in the DFT product of one chunk of frames, (rows of the basis) x
# (frames + blocks per window - 1), and in the 26 rows of one group of
# channels: 1 MB, so a chunk's or a group's buffers stay in L2.
_CHUNK = 1 << 17


def _gemm_width(blocks: int) -> int:
    """`blocks` rounded up to a multiple of 8. Measured with OpenBLAS 0.3.31
    on x86-64, the 132 x 25 DFT product has the same bits at 1 and 2 threads
    only when its width is below 159 or a multiple of 8; at a 30 s clip's
    300 blocks the features moved by up to 3.9e-13. The extra columns are
    never read."""
    return -(-blocks // 8) * 8


@dataclass(frozen=True)
class FrameSpec:
    frame_s: float = 0.1
    window_s: float = 0.2
    fft_size: int = 64
    num_filters: int = 18
    num_cepstra: int = 7
    diff_energy_window_frames: int = 9   # M, odd
    delta_width_first: int = 9           # N1
    delta_width_second: int = 3          # N2
    frames_per_epoch: int = 10

    def __post_init__(self):
        if self.window_s < self.frame_s:
            raise DataError("window_s must be >= frame_s")
        if self.step_samples(PIPELINE_RATE_HZ) < 1:
            raise DataError(f"frame_s = {self.frame_s} is shorter than one "
                            f"sample at {PIPELINE_RATE_HZ:g} Hz")
        if self.fft_size < 1:
            raise DataError(f"fft_size = {self.fft_size} must be at least 1")
        # c1..c7 come from a DCT of num_filters log energies; anything else
        # changes the vector's width, which every trained model depends on
        if self.num_cepstra != _CEPSTRA:
            raise DataError(f"num_cepstra = {self.num_cepstra} must be "
                            f"{_CEPSTRA} ({FEATURE_DIM}-dimensional vectors)")
        if self.num_filters < _CEPSTRA + 1:
            raise DataError(f"num_filters = {self.num_filters} must be at least "
                            f"{_CEPSTRA + 1} to give {_CEPSTRA} cepstra")
        if self.diff_energy_window_frames < 1 or self.diff_energy_window_frames % 2 == 0:
            raise DataError(f"diff_energy_window_frames = "
                            f"{self.diff_energy_window_frames} must be odd and positive")
        if self.delta_width_first < 1 or self.delta_width_second < 1:
            raise DataError("delta widths must be >= 1")

    def window_samples(self, rate_hz: float) -> int:
        return int(round(self.window_s * rate_hz))

    def step_samples(self, rate_hz: float) -> int:
        return int(round(self.frame_s * rate_hz))


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

    def frame_rows(self, cells: np.ndarray) -> np.ndarray:
        """The rows of vectors.reshape(-1, 26) that hold each cell's frames,
        as a (frames_per_epoch, len(cells)) index array: frame-major, the
        order in which the emission GEMM reads them. Cell c is epoch
        c // channels of channel c % channels; a trailing partial epoch
        repeats the final frame."""
        epoch, channel = np.divmod(cells, self.num_channels)
        frame = epoch * self.frames_per_epoch + np.arange(self.frames_per_epoch)[:, None]
        return channel * self.num_frames + np.minimum(frame, self.num_frames - 1)


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


class _Spectrum:
    """Filterbank energies of one channel, chunk by chunk, in buffers that
    are allocated once and reused for every chunk and channel."""

    def __init__(self, spec: FrameSpec, rate_hz: float, num_samples: int):
        win, self.step = spec.window_samples(rate_hz), spec.step_samples(rate_hz)
        if num_samples < win:
            raise DataError(f"signal of {num_samples} samples shorter than "
                            f"one {win}-sample window")
        self.num_frames = (num_samples - win) // self.step + 1
        self.slices = -(-win // self.step)  # step-sized blocks per window
        n = spec.fft_size
        self.bins = n // 2 + 1
        # the DFT basis: slice j holds the cosine then the sine rows for
        # window samples j*step .. (j+1)*step - 1; samples at or past
        # min(window, fft_size) get zeros, as rfft(n=fft_size) truncates
        taper = np.zeros(self.slices * self.step)
        taper[:min(win, n)] = np.hamming(win)[:n]
        angle = (2 * np.pi / n) * (np.outer(np.arange(self.bins), np.arange(len(taper))) % n)
        basis = np.concatenate([np.cos(angle), np.sin(angle)]) * taper
        self.basis = np.ascontiguousarray(
            basis.reshape(2 * self.bins, self.slices, self.step).transpose(1, 0, 2)
            .reshape(-1, self.step))
        # each filter's support is a run of at most `taps` bins; a filter is
        # summed over that run in bin order, so no BLAS call (whose summation
        # order may follow the thread count) touches the energies
        fb = _filterbank_matrix(spec, rate_hz)
        support = fb > 0
        width = support.sum(axis=1)
        offset = np.arange(max(width.max(), 1))[:, None]
        self.tap_bins = np.minimum(support.argmax(axis=1) + offset,
                                   self.bins - 1)                  # (taps, filters)
        self.tap_weights = np.where(
            offset < width, fb[np.arange(len(fb)), self.tap_bins], 0.0)
        self.chunk = max(_CHUNK // len(self.basis) - self.slices + 1, 1)
        cols = _gemm_width(min(self.chunk, self.num_frames) + self.slices - 1)
        self._prod = np.empty(len(self.basis) * cols)
        self._taps = np.empty(self.tap_bins.size * cols)

    def chunks(self):
        for t0 in range(0, self.num_frames, self.chunk):
            yield t0, min(t0 + self.chunk, self.num_frames)

    def energies(self, samples: np.ndarray, t0: int, t1: int) -> np.ndarray:
        """(filters, t1 - t0) energies of frames t0..t1-1, floored at
        ENERGY_FLOOR; a view of a buffer that the next call overwrites."""
        q, step, b = self.slices, self.step, self.bins
        # the blocks that the chunk's frames touch, and the unread ones up to
        # a thread-invariant GEMM width
        cols = _gemm_width(t1 - t0 + q - 1)
        blocks = samples[t0 * step:(t0 + cols) * step]
        if len(blocks) < cols * step:
            # past the end of the signal: the unread blocks, and the end of a
            # window that is not a whole number of steps, which meets zero
            # basis rows
            blocks = np.concatenate([blocks, np.zeros(cols * step - len(blocks))])
        np.matmul(self.basis, blocks.reshape(cols, step).T,
                  out=_view(self._prod, (len(self.basis), cols)))
        # Frame t is the sum over slices j of slice j's column t + j. Slice j
        # starts j * (size + 1) elements after slice 0 in the flat product,
        # so each sum is one contiguous add; the last q - 1 columns of every
        # row then hold sums across rows, which are never read.
        size = 2 * b * cols
        dft = self._prod[:size]
        for j in range(1, q):
            dft[:size - q + 1] += self._prod[j * (size + 1):j * (size + 1) + size - q + 1]
        dft *= dft
        power = dft[:b * cols]
        power += dft[b * cols:]
        taps = np.take(power.reshape(b, cols), self.tap_bins, axis=0, mode="clip",
                       out=_view(self._taps, (*self.tap_bins.shape, cols)))
        taps *= self.tap_weights[..., None]
        out = taps[0]
        for tap in taps[1:]:
            out += tap
        np.maximum(out, ENERGY_FLOOR, out=out)
        return out[:, :t1 - t0]


def _view(buf: np.ndarray, shape: tuple) -> np.ndarray:
    """The leading elements of a flat buffer as a C-contiguous array."""
    return buf[:math.prod(shape)].reshape(shape)


def filterbank_energies(samples: np.ndarray, spec: FrameSpec,
                        rate_hz: float = PIPELINE_RATE_HZ) -> np.ndarray:
    """(frames, filters) energies of one channel, floored at ENERGY_FLOOR.

    Frame t covers samples [t*frame_s, t*frame_s + window_s); a trailing
    partial frame is dropped."""
    samples = np.asarray(samples, dtype=np.float64)
    spectrum = _Spectrum(spec, rate_hz, len(samples))
    out = np.empty((spectrum.num_frames, spec.num_filters))
    for t0, t1 in spectrum.chunks():
        out[t0:t1] = spectrum.energies(samples, t0, t1).T
    return out


def _dct_basis(num_filters: int, num_cepstra: int) -> np.ndarray:
    """Rows 1..num_cepstra of the orthonormal DCT-II of num_filters points."""
    k = np.arange(1, num_cepstra + 1)[:, None]
    j = np.arange(num_filters)[None, :]
    return np.sqrt(2.0 / num_filters) * np.cos(np.pi * k * (j + 0.5) / num_filters)


def frequency_energy(energies: np.ndarray) -> np.ndarray:
    """Log total filterbank energy per frame of (..., filters) energies (the
    floored energies keep the log finite on silent frames)."""
    return np.log(np.sum(np.atleast_2d(energies), axis=-1))


def _edge_padded(a: np.ndarray, n: int) -> np.ndarray:
    """`a` with its first and last frames repeated n times at the two ends
    of the last axis: np.pad's "edge" mode, written into one buffer."""
    t = a.shape[-1]
    padded = np.empty(a.shape[:-1] + (t + 2 * n,))
    padded[..., n:n + t] = a
    padded[..., :n] = a[..., :1]
    padded[..., n + t:] = a[..., -1:]
    return padded


def differential_energy(ef: np.ndarray, m: int = 9) -> np.ndarray:
    """Max-minus-min of the frame energy over an m-frame window centered on
    each frame, along the last (frame) axis; boundary windows truncate to
    the available frames (edge replication adds no new values, so it gives
    the same max and min)."""
    if m < 1 or m % 2 == 0:
        raise DataError("differential energy window must be odd and positive")
    ef = np.asarray(ef, dtype=np.float64)
    t = ef.shape[-1]
    padded = _edge_padded(ef, m // 2)
    hi, lo = padded[..., :t].copy(), padded[..., :t].copy()
    for k in range(1, m):  # m whole-array passes, not a reduction per frame
        np.maximum(hi, padded[..., k:k + t], out=hi)
        np.minimum(lo, padded[..., k:k + t], out=lo)
    return np.subtract(hi, lo, out=hi)


def deltas(coeffs: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Regression-based derivative along the last (frame) axis with
    edge-replicated padding: d_t = sum_n n*(c_{t+n} - c_{t-n}) / (2*sum_n n^2)."""
    c = np.asarray(coeffs, dtype=np.float64)
    t = c.shape[-1]
    padded = _edge_padded(c, n)
    out = np.empty_like(c) if out is None else out
    out[...] = 0.0
    term = np.empty_like(c)
    for k in range(1, n + 1):
        np.subtract(padded[..., n + k:n + k + t], padded[..., n - k:n - k + t], out=term)
        term *= k
        out += term
    out /= 2.0 * sum(k * k for k in range(1, n + 1))
    return out


def extract_features(rec: Recording, spec: FrameSpec | None = None) -> FeatureGrid:
    spec = spec or FrameSpec()
    if abs(rec.sample_rate_hz - PIPELINE_RATE_HZ) > 1e-9:
        raise DataError(
            f"feature extraction requires {PIPELINE_RATE_HZ:g} Hz input, "
            f"got {rec.sample_rate_hz:g} Hz (resample first)")
    spectrum = _Spectrum(spec, rec.sample_rate_hz, rec.num_samples)
    dct = _dct_basis(spec.num_filters, spec.num_cepstra)
    channels, frames = rec.data.shape[0], spectrum.num_frames
    out = np.empty((channels, frames, FEATURE_DIM))
    group = min(max(_CHUNK // (FEATURE_DIM * frames), 1), channels)
    rows = np.empty((group, FEATURE_DIM, frames))  # a group of channels, frame-last
    with parallel.one_blas_thread():
        for c0 in range(0, channels, group):
            block = rows[:min(group, channels - c0)]
            for samples, row in zip(rec.data[c0:c0 + group], block):
                for t0, t1 in spectrum.chunks():
                    energies = spectrum.energies(samples, t0, t1)
                    row[7, t0:t1] = frequency_energy(energies.T)
                    np.matmul(dct, np.log(energies, out=energies), out=row[:7, t0:t1])
            block[:, 8] = differential_energy(block[:, 7], spec.diff_energy_window_frames)
            deltas(block[:, :9], spec.delta_width_first, out=block[:, 9:18])
            deltas(block[:, 9:17], spec.delta_width_second, out=block[:, 18:])  # c1..c7, Ef
            out[c0:c0 + len(block)] = block.transpose(0, 2, 1)
    return FeatureGrid(out, spec.frames_per_epoch)
