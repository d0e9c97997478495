"""Cepstral frontend: 26-dimensional feature vectors at 0.1 s frame steps,
from rows sampled at signal_io.RATE_HZ, the one rate the frontend runs at.

Each frame yields 7 linear-frequency cepstral coefficients plus a frequency
energy term; a differential (max-minus-min) energy track and regression-based
first and second derivatives complete the vector:

    [c1..c7, Ef, Ed, delta(c1..c7, Ef, Ed), deltadelta(c1..c7, Ef)]

No frames are built. A channel is cut into contiguous step-sized blocks, and
the Hamming-windowed real DFT of every frame is one wide GEMM of a basis
against those blocks, followed by one shifted add per step-sized slice of
the window. The basis and the filter taps are built once, on first use.
Power, filterbank, log and DCT then run over chunks of frames
small enough to stay in cache. The rest of the vector (the
differential energy, both delta passes and the copy into the output) runs
over groups of channels whose 26 rows fit the same cache budget (`_group`):
all 22 channels of a 30 s clip in two groups, one channel at a time for
10 min. The groups run one after another in the caller, in a spectrum and
rows allocated once per call (the delta passes allocate their own padded
copy); a decode splits a recording into these groups
across its workers (`pipeline`). Everything runs with numpy's OpenBLAS
held at one thread (`parallel`); a channel's features are the same bits in
any group and at any BLAS thread count.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import DataError
from .signal_io import RATE_HZ

ENERGY_FLOOR = 1e-10
FEATURE_DIM = 26
_CEPSTRA = 7  # the vector above holds c1..c7

# The paper's frontend: 0.1 s steps through 0.2 s Hamming windows at RATE_HZ,
# a 64-point DFT, 18 filters, a 9-frame differential energy and regression
# derivatives over 9 and then 3 frames either side.
STEP_SAMPLES = 25
WINDOW_SAMPLES = 50      # a whole number of steps, at most FFT_SIZE
FFT_SIZE = 64
NUM_FILTERS = 18
DIFF_ENERGY_WINDOW = 9   # frames, odd
DELTA_FIRST = 9
DELTA_SECOND = 3
FRAMES_PER_EPOCH = int(RATE_HZ) // STEP_SAMPLES  # 10 steps in a 1 s epoch
_BINS = FFT_SIZE // 2 + 1
_SLICES = WINDOW_SAMPLES // STEP_SAMPLES  # step-sized blocks in a window

# Doubles in the DFT product of one chunk of frames, (rows of the basis) x
# (frames + blocks per window - 1), and in the 26 rows of one group of
# channels: 1 MB, so a chunk's or a group's buffers stay in L2.
_CHUNK = 1 << 17


def gemm_width(columns: int) -> int:
    """`columns` rounded up to a multiple of 8: the width of a GEMM whose
    every column gets the same bits whatever the width and the thread count.
    Measured with OpenBLAS 0.3.31 on x86-64: the 132 x 25 DFT product has
    the same bits at 1 and 2 threads only when its width is below 159 or a
    multiple of 8 (at a 30 s clip's 300 blocks the features moved by up to
    3.9e-13), and a pass-1 emission GEMM of 300 columns (a 30 s channel)
    gave 107 of its 3 960 posteriors other bits than the same cells in one
    of 3 300. The extra columns are never read."""
    return -(-columns // 8) * 8


def num_frames(num_samples: int) -> int:
    """Whole frames in `num_samples`; a trailing partial frame is dropped."""
    if num_samples < WINDOW_SAMPLES:
        raise DataError(f"signal of {num_samples} samples shorter than "
                        f"one {WINDOW_SAMPLES}-sample window")
    return (num_samples - WINDOW_SAMPLES) // STEP_SAMPLES + 1


@dataclass(frozen=True)
class FeatureGrid:
    """Per-channel frame features plus the 1 s epoch grouping."""
    vectors: np.ndarray  # (channels, frames, 26)
    frames_per_epoch: int

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


def _filterbank_matrix() -> np.ndarray:
    """Triangular filters linearly spaced from 0 to Nyquist with 50% overlap,
    applied to the magnitude-squared rfft bins."""
    freqs = np.arange(_BINS) * RATE_HZ / FFT_SIZE
    nyq = RATE_HZ / 2.0
    centers = np.linspace(0.0, nyq, NUM_FILTERS + 2)
    fb = np.zeros((NUM_FILTERS, _BINS))
    for j in range(NUM_FILTERS):
        lo, c, hi = centers[j], centers[j + 1], centers[j + 2]
        rising = (freqs - lo) / (c - lo)
        falling = (hi - freqs) / (hi - c)
        fb[j] = np.clip(np.minimum(rising, falling), 0.0, None)
    return fb


@functools.cache
def _tables():
    """The read-only parts of a _Spectrum: the DFT basis, and each filter's
    tap bins and weights. Built on first use and shared by every _Spectrum,
    in every worker."""
    # the DFT basis: slice j holds the cosine then the sine rows for window
    # samples j*step .. (j+1)*step - 1
    angle = (2 * np.pi / FFT_SIZE) * (
        np.outer(np.arange(_BINS), np.arange(WINDOW_SAMPLES)) % FFT_SIZE)
    basis = np.concatenate([np.cos(angle), np.sin(angle)]) * np.hamming(WINDOW_SAMPLES)
    basis = np.ascontiguousarray(
        basis.reshape(2 * _BINS, _SLICES, STEP_SAMPLES).transpose(1, 0, 2)
        .reshape(-1, STEP_SAMPLES))
    # each filter's support is a run of at most `taps` bins; a filter is
    # summed over that run in bin order, so no BLAS call (whose summation
    # order may follow the thread count) touches the energies
    fb = _filterbank_matrix()
    support = fb > 0
    width = support.sum(axis=1)
    offset = np.arange(max(width.max(), 1))[:, None]
    tap_bins = np.minimum(support.argmax(axis=1) + offset, _BINS - 1)  # (taps, filters)
    tap_weights = np.where(offset < width, fb[np.arange(len(fb)), tap_bins], 0.0)
    for table in (basis, tap_bins, tap_weights):
        table.flags.writeable = False
    return basis, tap_bins, tap_weights


class _Spectrum:
    """Filterbank energies of one channel, chunk by chunk, in buffers that
    are allocated once and reused for every chunk and channel."""

    def __init__(self, num_samples: int):
        self.num_frames = num_frames(num_samples)
        self.basis, self.tap_bins, self.tap_weights = _tables()
        self.chunk = max(_CHUNK // len(self.basis) - _SLICES + 1, 1)
        cols = gemm_width(min(self.chunk, self.num_frames) + _SLICES - 1)
        self._prod = np.empty(len(self.basis) * cols)
        self._taps = np.empty(self.tap_bins.size * cols)

    def chunks(self):
        for t0 in range(0, self.num_frames, self.chunk):
            yield t0, min(t0 + self.chunk, self.num_frames)

    def energies(self, samples: np.ndarray, t0: int, t1: int) -> np.ndarray:
        """(filters, t1 - t0) energies of frames t0..t1-1, floored at
        ENERGY_FLOOR; a view of a buffer that the next call overwrites."""
        q, step, b = _SLICES, STEP_SAMPLES, _BINS
        # the blocks that the chunk's frames touch, and the unread ones up to
        # a thread-invariant GEMM width
        cols = gemm_width(t1 - t0 + q - 1)
        blocks = samples[t0 * step:(t0 + cols) * step]
        if len(blocks) < cols * step:
            # past the end of the signal: the unread blocks
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


def filterbank_energies(samples: np.ndarray) -> np.ndarray:
    """(frames, filters) energies of one channel, floored at ENERGY_FLOOR:
    extract_features' spectrum kernel on one channel, the harness through
    which the tests check the frontend and the synthetic classes' separation.

    Frame t covers samples [t*STEP_SAMPLES, t*STEP_SAMPLES + WINDOW_SAMPLES);
    a trailing partial frame is dropped."""
    samples = np.asarray(samples, dtype=np.float64)
    spectrum = _Spectrum(len(samples))
    out = np.empty((spectrum.num_frames, NUM_FILTERS))
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


def differential_energy(ef: np.ndarray, m: int = DIFF_ENERGY_WINDOW) -> np.ndarray:
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


def _group(channels: int, frames: int) -> int:
    """Channels in one frontend group: as many as fit their 26 frame-last
    rows in _CHUNK doubles, at least one."""
    return min(max(_CHUNK // (FEATURE_DIM * frames), 1), channels)


def extract_features(data: np.ndarray,
                     labels: tuple[str, ...] | None = None) -> FeatureGrid:
    """The feature grid of the (channels, samples) rows `data`, sampled at
    RATE_HZ, a group of channels at a time.

    Finite samples can still be too large for the frontend: a spectrum that
    overflows float64 is a DataError naming the channel (its label, or its
    row without `labels`). The frequency energy row is finite exactly when
    all of a channel's energies are, so it is the one row checked."""
    channels, num_samples = data.shape
    frames = num_frames(num_samples)
    group = _group(channels, frames)
    dct = _dct_basis(NUM_FILTERS, _CEPSTRA)
    out = np.empty((channels, frames, FEATURE_DIM))
    # the spectrum and the rows of a group, frame-last, reused for every group
    spectrum = _Spectrum(num_samples)
    rows = np.empty((group, FEATURE_DIM, frames))
    with parallel.one_blas_thread():
        for c0 in range(0, channels, group):
            block = rows[:min(group, channels - c0)]
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                for samples, row in zip(data[c0:c0 + group], block):
                    for t0, t1 in spectrum.chunks():
                        energies = spectrum.energies(samples, t0, t1)
                        row[7, t0:t1] = frequency_energy(energies.T)
                        np.matmul(dct, np.log(energies, out=energies),
                                  out=row[:7, t0:t1])
            finite = np.isfinite(block[:, 7]).all(axis=1)
            if not finite.all():
                c = c0 + int(finite.argmin())
                where = f"channel {labels[c]!r}" if labels else f"row {c}"
                raise DataError(f"{where}: samples too large, the spectrum "
                                f"overflows")
            block[:, 8] = differential_energy(block[:, 7], DIFF_ENERGY_WINDOW)
            deltas(block[:, :9], DELTA_FIRST, block[:, 9:18])
            # c1..c7, Ef
            deltas(block[:, 9:17], DELTA_SECOND, block[:, 18:])
            out[c0:c0 + len(block)] = block.transpose(0, 2, 1)
    return FeatureGrid(out, FRAMES_PER_EPOCH)
