import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dct, rfft

from seqdet import synth
from seqdet.errors import DataError
from seqdet.features import (ENERGY_FLOOR, FEATURE_DIM, FrameSpec, _dct_basis,
                             _filterbank_matrix, deltas, differential_energy,
                             extract_features, filterbank_energies,
                             frequency_energy)
from seqdet.signal_io import Recording

RATE = 250.0
SPEC = FrameSpec()
U = np.finfo(np.float64).eps / 2  # unit roundoff


def rec_from(data, rate=RATE):
    data = np.atleast_2d(data)
    return Recording(data, tuple(f"CH{i}" for i in range(len(data))), rate)


def channel_features(samples, spec=SPEC):
    return extract_features(rec_from(samples), spec).vectors[0]


# ---------------------------------------------------------------------------
# The per-channel reference frontend, kept as the differential oracle: frames
# built with a fancy-index gather, rfft(n=fft_size), a filterbank GEMM,
# scipy's DCT-II, and derivatives along the frame axis of (frames, dims).

def frame_signal(samples, spec=SPEC, rate_hz=RATE):
    """Hamming-windowed overlapping frames; a trailing partial frame is
    dropped."""
    samples = np.asarray(samples, dtype=np.float64)
    win, step = spec.window_samples(rate_hz), spec.step_samples(rate_hz)
    n_frames = (len(samples) - win) // step + 1
    idx = np.arange(win)[None, :] + step * np.arange(n_frames)[:, None]
    return samples[idx] * np.hamming(win)


def ref_filterbank_energies(frames, spec=SPEC, rate_hz=RATE):
    spectrum = np.abs(rfft(np.atleast_2d(frames), n=spec.fft_size, axis=-1)) ** 2
    return np.maximum(spectrum @ _filterbank_matrix(spec, rate_hz).T,
                      ENERGY_FLOOR)


def ref_cepstra(energies, spec=SPEC):
    coeffs = dct(np.log(np.atleast_2d(energies)), type=2, norm="ortho", axis=-1)
    return coeffs[..., 1:spec.num_cepstra + 1]


def ref_differential_energy(ef, m):
    windows = sliding_window_view(np.pad(ef, m // 2, mode="edge"), m)
    return windows.max(axis=1) - windows.min(axis=1)


def ref_deltas(coeffs, n):
    """Regression derivative along axis 0 of (frames, dims)."""
    padded = np.pad(coeffs, ((n, n), (0, 0)), mode="edge")
    out = np.zeros_like(coeffs)
    for k in range(1, n + 1):
        out += k * (padded[n + k: n + k + len(coeffs)]
                    - padded[n - k: n - k + len(coeffs)])
    out /= 2.0 * sum(k * k for k in range(1, n + 1))
    return out


def extract_channel(samples, spec=SPEC, rate_hz=RATE):
    """(frames, 26) features of one channel."""
    energies = ref_filterbank_energies(frame_signal(samples, spec, rate_hz),
                                       spec, rate_hz)
    ceps = ref_cepstra(energies, spec)
    ef = np.log(np.sum(energies, axis=-1))
    ed = ref_differential_energy(ef, spec.diff_energy_window_frames)
    absolute = np.column_stack([ceps, ef, ed])
    d1 = ref_deltas(absolute, spec.delta_width_first)
    d2 = ref_deltas(d1[:, :8], spec.delta_width_second)
    return np.column_stack([absolute, d1, d2])


def _spread(bound, n):
    """sum_k k (b_{t+k} + b_{t-k}) / (2 sum k^2) along axis 0: what a
    regression derivative does to elementwise bounds b >= 0."""
    padded = np.pad(bound, ((n, n), (0, 0)), mode="edge")
    out = np.zeros_like(bound)
    for k in range(1, n + 1):
        out += k * (padded[n + k: n + k + len(bound)]
                    + padded[n - k: n - k + len(bound)])
    return out / (2.0 * sum(k * k for k in range(1, n + 1)))


def feature_error_bound(samples, spec=SPEC, rate_hz=RATE):
    """Elementwise bound on |extract_features - extract_channel| for one
    channel, from the float64 error model (u = 2^-53) taken stage by stage.

    - DFT: a real or imaginary term is a sum of L = min(window, fft_size)
      products w_k x_k cos/sin. The GEMM's error is at most (L + 2) u A,
      A = sum_k |w_k x_k| (summation bound plus the rounded basis); an FFT's
      is of order log2(n) u A. delta bounds the difference of the two.
    - Power: |d(re^2 + im^2)| <= 2 sqrt(2) |X| delta + 2 delta^2, plus 3 u
      of rounding; band energies add bin bounds through the filter weights,
      plus the rounding of a (bins)-term sum in each method.
    - Log: flooring is 1-Lipschitz, and log's slope on the band is at most
      1 / max(E - dE, floor). This is the term that dominates: a band whose
      energy is far below the frame total keeps the absolute error of the
      total's DFT terms.
    - Everything after the log is linear or 1-Lipschitz (DCT, sum, max -
      min, regression derivatives), so bounds go through with absolute
      weights, and each stage adds the rounding of its own sums.
    """
    frames = frame_signal(samples, spec, rate_hz)
    nf, n = spec.num_filters, spec.fft_size
    used = min(frames.shape[1], n)
    a = np.abs(frames[:, :used]).sum(axis=1, keepdims=True)
    delta = 2 * (used + 2 * np.log2(max(n, 2)) + 4) * U * a
    mag = np.abs(rfft(frames, n=n, axis=-1))
    d_power = 2 * np.sqrt(2) * mag * delta + 2 * delta ** 2 + 6 * U * mag ** 2
    fb = _filterbank_matrix(spec, rate_hz)
    raw = mag ** 2 @ fb.T
    d_energy = d_power @ fb.T + 4 * fb.shape[1] * U * raw
    energies = np.maximum(raw, ENERGY_FLOOR)
    log_e = np.log(energies)
    d_log = (d_energy / np.maximum(raw - d_energy, ENERGY_FLOOR)
             + 4 * U * np.abs(log_e))
    basis = np.abs(_dct_basis(nf, spec.num_cepstra))
    d_ceps = d_log @ basis.T + 4 * nf * U * np.abs(log_e).sum(axis=1, keepdims=True)
    total = energies.sum(axis=1)
    ef = np.log(total)
    d_ef = (d_energy.sum(axis=1) / np.maximum(total - d_energy.sum(axis=1),
                                              nf * ENERGY_FLOOR)
            + 2 * nf * U + 4 * U * np.abs(ef))
    m = spec.diff_energy_window_frames
    ed = ref_differential_energy(ef, m)
    d_ed = (2 * sliding_window_view(np.pad(d_ef, m // 2, mode="edge"), m).max(axis=1)
            + 4 * U * ed)
    absolute = np.column_stack([ref_cepstra(energies, spec), ef, ed])
    d_abs = np.column_stack([d_ceps, d_ef, d_ed])
    n1, n2 = spec.delta_width_first, spec.delta_width_second
    d1 = ref_deltas(absolute, n1)
    d_d1 = _spread(d_abs, n1) + 4 * n1 * U * _spread(np.abs(absolute), n1)
    d_d2 = (_spread(d_d1[:, :8], n2)
            + 4 * n2 * U * _spread(np.abs(d1[:, :8]), n2))
    return np.column_stack([d_abs, d_d1, d_d2])


def assert_matches_reference(data, spec=SPEC):
    """extract_features against the per-channel reference, channel by
    channel, within the error-model bound; returns the worst absolute gap
    and the worst gap as a fraction of its bound."""
    grid = extract_features(rec_from(data), spec)
    worst_abs = worst_frac = 0.0
    for samples, got in zip(np.atleast_2d(data), grid.vectors):
        want = extract_channel(samples, spec)
        bound = feature_error_bound(samples, spec)
        assert got.shape == want.shape
        gap = np.abs(got - want)
        assert (gap <= bound).all(), np.unravel_index(np.argmax(gap - bound),
                                                      gap.shape)
        worst_abs = max(worst_abs, gap.max())
        worst_frac = max(worst_frac, (gap / bound).max())
    return worst_abs, worst_frac


class TestAgainstReference:
    def test_criterion8_recording(self):
        # criterion 8's evaluation recording (tests/test_acceptance.py);
        # measured: 2.7e-12 absolute, at most 2 % of the bound (the random
        # signals and frame specs below: 1e-14 to 3e-14, at most 6.4 %)
        script = synth.balanced_script(10, 5, seed=20,
                                       channel_profile=synth.FOCAL_PROFILE)
        rec, _ = synth.generate(script, seed=21)
        assert_matches_reference(rec.data)

    @pytest.mark.parametrize("n", [50, 74, 75, 200, 2500])
    def test_random_signals(self, n):
        # lengths around one window (50), two frames (75) and many
        assert_matches_reference(
            np.random.default_rng(n).standard_normal((3, n)) * 30)

    def test_all_zero_input(self):
        assert_matches_reference(np.zeros((2, 1000)))
        assert (filterbank_energies(np.zeros(1000), SPEC) == ENERGY_FLOOR).all()

    @pytest.mark.parametrize("window_s", [0.05, 0.13, 0.15])
    @pytest.mark.parametrize("frame_s", [0.03, 0.05])
    @pytest.mark.parametrize("fft_size", [8, 32, 128])
    def test_other_frame_specs(self, window_s, frame_s, fft_size):
        # windows of 12, 32 and 38 samples, steps of 8 and 12 (so 12 and 38
        # are not always a whole number of steps, and 12 can be one step),
        # FFTs shorter and longer than the window
        spec = FrameSpec(frame_s=frame_s, window_s=window_s, fft_size=fft_size)
        rng = np.random.default_rng(int(1000 * (window_s + frame_s)) + fft_size)
        assert_matches_reference(rng.standard_normal((2, 2503)) * 30, spec)

    def test_energies_match_reference(self):
        x = np.random.default_rng(11).standard_normal(1337) * 40
        np.testing.assert_allclose(filterbank_energies(x, SPEC),
                                   ref_filterbank_energies(frame_signal(x)),
                                   rtol=1e-9)


class TestThreadCount:
    def test_features_equal_at_one_and_two_blas_threads(self, tmp_path):
        """A fresh process per BLAS thread count, the count set before numpy
        loads; 22 channels of 10 min give six full chunks and a partial one."""
        script = (
            "import sys\nimport numpy as np\n"
            "from seqdet.features import extract_features\n"
            "from seqdet.signal_io import Recording\n"
            "data = np.random.default_rng(5).standard_normal((22, 150000)) * 30\n"
            "rec = Recording(data, tuple(map(str, range(22))), 250.0)\n"
            "np.save(sys.argv[1], extract_features(rec).vectors)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(synth.__file__)))
        out = []
        for threads in (1, 2):
            path = str(tmp_path / f"f{threads}.npy")
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       PYTHONPATH=os.pathsep.join(
                           [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
            subprocess.run([sys.executable, "-c", script, path], env=env,
                           check=True, capture_output=True, timeout=300)
            out.append(open(path, "rb").read())
        assert out[0] == out[1]


class TestFraming:
    def test_frame_count(self):
        # 10 s at 250 Hz: windows of 50 samples every 25 samples.
        assert filterbank_energies(np.zeros(2500), SPEC).shape == (99, 18)
        assert extract_features(rec_from(np.zeros(2500))).num_frames == 99

    def test_frame_alignment(self):
        # frame 3 covers samples 75..124 and nothing else
        x = np.random.default_rng(0).standard_normal(500)
        e = filterbank_energies(x, SPEC)
        np.testing.assert_allclose(e[3], ref_filterbank_energies(
            x[75:125] * np.hamming(50))[0], rtol=1e-9)
        y = x.copy()
        y[:75] = y[125:] = 0.0
        np.testing.assert_array_equal(filterbank_energies(y, SPEC)[3], e[3])

    def test_too_short(self):
        for n in (0, 40, 49):
            with pytest.raises(DataError):
                filterbank_energies(np.zeros(n), SPEC)
            with pytest.raises(DataError):
                extract_features(rec_from(np.zeros((2, n))))


class TestFrameSpec:
    @pytest.mark.parametrize("key, value", [
        ("num_cepstra", 5), ("num_cepstra", 8), ("num_filters", 4),
        ("num_filters", 7), ("frame_s", 0.001), ("fft_size", 0),
        ("diff_energy_window_frames", -1), ("diff_energy_window_frames", 4),
    ])
    def test_rejected(self, key, value):
        with pytest.raises(DataError, match=f"{key} = {value}"):
            FrameSpec(**{key: value})

    def test_every_valid_spec_gives_feature_dim(self):
        spec = FrameSpec(num_filters=8, fft_size=16)
        assert channel_features(np.ones(300), spec).shape[1] == FEATURE_DIM


class TestFilterbank:
    def test_shape_and_support(self):
        fb = _filterbank_matrix(SPEC, RATE)
        assert fb.shape == (18, 33)
        assert (fb >= 0).all()

    def test_triangle_peaks(self):
        fb = _filterbank_matrix(SPEC, RATE)
        centers = np.linspace(0.0, RATE / 2, 20)[1:-1]
        freqs = np.arange(33) * RATE / SPEC.fft_size
        for j in range(18):
            # response at the filter's own center frequency is near 1
            k = np.argmin(np.abs(freqs - centers[j]))
            assert fb[j, k] > 0.7

    def test_energy_floor(self):
        e = filterbank_energies(np.zeros(100), SPEC)
        assert (e == 1e-10).all()

    def test_pure_tone_band(self):
        # a tone at one filter's center concentrates energy in that filter
        centers = np.linspace(0.0, RATE / 2, 20)
        t = np.arange(50) / RATE
        e = filterbank_energies(np.sin(2 * np.pi * centers[9] * t), SPEC)[0]
        assert np.argmax(e) == 8  # filter 8 has center centers[9]


class TestCepstra:
    BASIS = _dct_basis(18, 7)

    def test_shape(self):
        assert self.BASIS.shape == (7, 18)
        x = np.random.default_rng(0).standard_normal(200)
        assert channel_features(x)[:, :7].shape == (7, 7)

    def test_matches_scipy_dct(self):
        log_e = np.random.default_rng(0).standard_normal((5, 18))
        np.testing.assert_allclose(log_e @ self.BASIS.T,
                                   dct(log_e, norm="ortho")[:, 1:8], atol=1e-14)

    def test_orthonormal_rows(self):
        np.testing.assert_allclose(self.BASIS @ self.BASIS.T, np.eye(7),
                                   atol=1e-14)

    def test_flat_spectrum_zero(self):
        # constant log energies have no shape: all kept coefficients 0
        np.testing.assert_allclose(self.BASIS @ np.full(18, np.log(2.0)), 0.0,
                                   atol=1e-12)

    def test_scaling_invariance(self):
        # multiplying a signal by a constant only shifts coefficient 0
        x = np.random.default_rng(1).standard_normal(600)
        np.testing.assert_allclose(channel_features(x)[:, :7],
                                   channel_features(7.5 * x)[:, :7], atol=1e-10)

    def test_single_cosine_mode(self):
        # log energies shaped as one DCT basis vector excite one coefficient
        k = 3
        n = 18
        basis = np.cos(np.pi * k * (np.arange(n) + 0.5) / n)
        expect = np.zeros(7)
        expect[k - 1] = np.sqrt(n / 2.0)  # ortho DCT-II norm for k > 0
        np.testing.assert_allclose(self.BASIS @ basis, expect, atol=1e-10)


class TestEnergies:
    def test_frequency_energy_log_sum(self):
        e = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(frequency_energy(e), [np.log(6.0)])

    def test_amplitude_doubling_shifts_ef(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(500) * 50
        f1 = frequency_energy(filterbank_energies(x, SPEC))
        f2 = frequency_energy(filterbank_energies(2 * x, SPEC))
        np.testing.assert_allclose(f2 - f1, np.log(4.0), atol=1e-6)

    def test_differential_energy_constant_zero(self):
        np.testing.assert_array_equal(differential_energy(np.full(30, 1.7)),
                                      np.zeros(30))

    def test_differential_energy_window(self):
        ef = np.zeros(20)
        ef[10] = 5.0
        ed = differential_energy(ef, 9)
        # the spike is visible from frames 6..14 inclusive
        assert (ed[6:15] == 5.0).all()
        assert ed[5] == 0.0 and ed[15] == 0.0

    @pytest.mark.parametrize("m", [1, 3, 9])
    def test_differential_energy_matches_loop(self, m):
        # per-frame reference: the window truncated at the boundaries
        def loop(ef):
            half = m // 2
            out = np.empty_like(ef)
            for t in range(len(ef)):
                seg = ef[max(0, t - half):min(len(ef), t + half + 1)]
                out[t] = seg.max() - seg.min()
            return out

        rng = np.random.default_rng(m)
        for n in range(1, 21):
            ef = rng.standard_normal(n)
            np.testing.assert_array_equal(differential_energy(ef, m), loop(ef))

    def test_differential_energy_even_window_rejected(self):
        with pytest.raises(DataError):
            differential_energy(np.zeros(5), 4)

    @pytest.mark.parametrize("m", [0, -1])
    def test_differential_energy_nonpositive_window_rejected(self, m):
        with pytest.raises(DataError):
            differential_energy(np.zeros(5), m)


class TestDeltas:
    def test_constant_zero(self):
        np.testing.assert_allclose(deltas(np.full(40, 3.0), 9), 0.0)

    def test_ramp_unit_slope(self):
        # a perfect ramp has regression slope 1 away from the padded edges
        d = deltas(np.arange(60, dtype=float), 9)
        np.testing.assert_allclose(d[9:-9], 1.0, atol=1e-12)

    def test_manual_small_case(self):
        x = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
        d = deltas(x, 1)
        # edge replication: d_0 = (x1 - x0)/2, interior central differences
        np.testing.assert_allclose(d, [0.5, 2.0, 4.0, 6.0, 3.5])

    @pytest.mark.parametrize("n", [1, 3, 9])
    def test_matches_reference_exactly(self, n):
        # the same operations in the same order along the last axis
        c = np.random.default_rng(n).standard_normal((30, 9))
        np.testing.assert_array_equal(deltas(c.T, n).T, ref_deltas(c, n))

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (3, 20),
                  elements=st.floats(-100, 100)),
           arrays(np.float64, (3, 20),
                  elements=st.floats(-100, 100)),
           st.floats(-5, 5), st.floats(-5, 5),
           st.integers(1, 9))
    def test_linearity(self, x, y, a, b, n):
        lhs = deltas(a * x + b * y, n)
        rhs = a * deltas(x, n) + b * deltas(y, n)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


class TestVectorLayout:
    def test_dimension(self):
        rng = np.random.default_rng(3)
        mat = channel_features(rng.standard_normal(1000))
        assert mat.shape[1] == FEATURE_DIM == 26

    def test_block_structure(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(1500) * 20
        mat = channel_features(x)
        e = filterbank_energies(x, SPEC)
        np.testing.assert_allclose(mat[:, :7], ref_cepstra(e), atol=1e-12)
        np.testing.assert_allclose(mat[:, 7], frequency_energy(e), atol=1e-13)
        np.testing.assert_array_equal(mat[:, 8], differential_energy(mat[:, 7], 9))
        np.testing.assert_array_equal(mat[:, 9:18], deltas(mat[:, :9].T, 9).T)
        np.testing.assert_array_equal(mat[:, 18:26], deltas(mat[:, 9:17].T, 3).T)


def gathered(grid):
    """Every cell's frames, (epochs, channels, frames_per_epoch, 26), taken
    from the feature array through FeatureGrid.frame_rows."""
    cells = np.arange(grid.num_epochs * grid.num_channels)
    frames = grid.vectors.reshape(-1, FEATURE_DIM)[grid.frame_rows(cells).T]
    return frames.reshape(grid.num_epochs, grid.num_channels, -1, FEATURE_DIM)


class TestGrid:
    def test_epoch_grouping(self):
        rng = np.random.default_rng(5)
        rec = rec_from(rng.standard_normal((2, 2500)))
        grid = extract_features(rec)
        assert grid.num_channels == 2
        assert grid.num_frames == 99
        assert grid.num_epochs == 10
        block = gathered(grid)[3, 1]
        assert block.shape == (10, 26)
        np.testing.assert_array_equal(block, grid.vectors[1, 30:40])

    def test_partial_trailing_epoch_padded(self):
        rng = np.random.default_rng(6)
        rec = rec_from(rng.standard_normal((1, 2500)))
        grid = extract_features(rec)
        # last epoch only has 9 real frames; the final frame repeats
        block = gathered(grid)[9, 0]
        np.testing.assert_array_equal(block[:9], grid.vectors[0, 90:99])
        np.testing.assert_array_equal(block[9], grid.vectors[0, 98])

    def test_cells_block(self):
        rng = np.random.default_rng(7)
        rec = rec_from(rng.standard_normal((3, 2500)))
        grid = extract_features(rec)
        cells = gathered(grid)
        assert cells.shape == (10, 3, 10, FEATURE_DIM)
        np.testing.assert_array_equal(cells[4, 2], grid.vectors[2, 40:50])
        np.testing.assert_array_equal(cells[9, :, 9], grid.vectors[:, 98])
        # frame-major rows: row k holds frame k of every cell, in cell order
        rows = grid.frame_rows(np.array([0, 5, 29]))
        assert rows.shape == (10, 3)
        np.testing.assert_array_equal(rows[:, 1], 2 * 99 + np.arange(10, 20))
        np.testing.assert_array_equal(rows[:, 2], 2 * 99 + np.array([*range(90, 99), 98]))

    def test_cells_shorter_than_one_epoch(self):
        rng = np.random.default_rng(8)
        grid = extract_features(rec_from(rng.standard_normal((2, 200))))
        assert grid.num_frames == 7
        cells = gathered(grid)
        assert cells.shape == (1, 2, 10, FEATURE_DIM)
        np.testing.assert_array_equal(cells[0, :, :7], grid.vectors)
        np.testing.assert_array_equal(cells[0, :, 7:],
                                      np.repeat(grid.vectors[:, 6:], 3, axis=1))

    def test_wrong_rate_rejected(self):
        rec = rec_from(np.zeros((1, 1000)), rate=256.0)
        with pytest.raises(DataError):
            extract_features(rec)
