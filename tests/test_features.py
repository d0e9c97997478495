import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dct, rfft

from seqdet import features, parallel, synth
from seqdet.errors import DataError
from seqdet.features import (_CEPSTRA, _CHUNK, ENERGY_FLOOR, FEATURE_DIM,
                             _dct_basis, _filterbank_matrix, _Spectrum, deltas,
                             differential_energy, extract_features,
                             filterbank_energies, frequency_energy)
from seqdet.pipeline import _decode_pass1
from seqdet.signal_io import Recording
from tests.test_hmm import default_shape_models

RATE = 250.0
# The paper's frontend, written out here and not read from features, so that
# the reference below fails on a changed constant: 0.1 s steps through 0.2 s
# windows, a 64-point DFT, a 9-frame differential energy and derivatives
# over 9 and then 3 frames.
STEP, WINDOW, NFFT, ED_WINDOW, DELTA_1, DELTA_2 = 25, 50, 64, 9, 9, 3
U = np.finfo(np.float64).eps / 2  # unit roundoff
# default-shape models for the decodes of TestGrid::test_overflowing_spectrum_rejected
OVERFLOW_MODELS = default_shape_models(np.random.default_rng(40), FEATURE_DIM)


def channel_features(samples):
    return extract_features(np.atleast_2d(samples)).vectors[0]


# ---------------------------------------------------------------------------
# The per-channel reference frontend, kept as the differential oracle: frames
# built with a fancy-index gather, rfft(n=NFFT), a filterbank GEMM,
# scipy's DCT-II, and derivatives along the frame axis of (frames, dims).

def frame_signal(samples):
    """Hamming-windowed overlapping frames; a trailing partial frame is
    dropped."""
    samples = np.asarray(samples, dtype=np.float64)
    n_frames = (len(samples) - WINDOW) // STEP + 1
    idx = np.arange(WINDOW)[None, :] + STEP * np.arange(n_frames)[:, None]
    return samples[idx] * np.hamming(WINDOW)


def ref_filterbank_energies(frames):
    spectrum = np.abs(rfft(np.atleast_2d(frames), n=NFFT, axis=-1)) ** 2
    return np.maximum(spectrum @ _filterbank_matrix().T, ENERGY_FLOOR)


def ref_cepstra(energies):
    coeffs = dct(np.log(np.atleast_2d(energies)), type=2, norm="ortho", axis=-1)
    return coeffs[..., 1:_CEPSTRA + 1]


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


def extract_channel(samples):
    """(frames, 26) features of one channel."""
    energies = ref_filterbank_energies(frame_signal(samples))
    ceps = ref_cepstra(energies)
    ef = np.log(np.sum(energies, axis=-1))
    ed = ref_differential_energy(ef, ED_WINDOW)
    absolute = np.column_stack([ceps, ef, ed])
    d1 = ref_deltas(absolute, DELTA_1)
    d2 = ref_deltas(d1[:, :8], DELTA_2)
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


def feature_error_bound(samples):
    """Elementwise bound on |extract_features - extract_channel| for one
    channel, from the float64 error model (u = 2^-53) taken stage by stage.

    - DFT: a real or imaginary term is a sum of L = min(window, NFFT)
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
    frames = frame_signal(samples)
    n = NFFT
    used = min(frames.shape[1], n)
    a = np.abs(frames[:, :used]).sum(axis=1, keepdims=True)
    delta = 2 * (used + 2 * np.log2(max(n, 2)) + 4) * U * a
    mag = np.abs(rfft(frames, n=n, axis=-1))
    d_power = 2 * np.sqrt(2) * mag * delta + 2 * delta ** 2 + 6 * U * mag ** 2
    fb = _filterbank_matrix()
    nf = len(fb)
    raw = mag ** 2 @ fb.T
    d_energy = d_power @ fb.T + 4 * fb.shape[1] * U * raw
    energies = np.maximum(raw, ENERGY_FLOOR)
    log_e = np.log(energies)
    d_log = (d_energy / np.maximum(raw - d_energy, ENERGY_FLOOR)
             + 4 * U * np.abs(log_e))
    basis = np.abs(_dct_basis(nf, _CEPSTRA))
    d_ceps = d_log @ basis.T + 4 * nf * U * np.abs(log_e).sum(axis=1, keepdims=True)
    total = energies.sum(axis=1)
    ef = np.log(total)
    d_ef = (d_energy.sum(axis=1) / np.maximum(total - d_energy.sum(axis=1),
                                              nf * ENERGY_FLOOR)
            + 2 * nf * U + 4 * U * np.abs(ef))
    m = ED_WINDOW
    ed = ref_differential_energy(ef, m)
    d_ed = (2 * sliding_window_view(np.pad(d_ef, m // 2, mode="edge"), m).max(axis=1)
            + 4 * U * ed)
    absolute = np.column_stack([ref_cepstra(energies), ef, ed])
    d_abs = np.column_stack([d_ceps, d_ef, d_ed])
    n1, n2 = DELTA_1, DELTA_2
    d1 = ref_deltas(absolute, n1)
    d_d1 = _spread(d_abs, n1) + 4 * n1 * U * _spread(np.abs(absolute), n1)
    d_d2 = (_spread(d_d1[:, :8], n2)
            + 4 * n2 * U * _spread(np.abs(d1[:, :8]), n2))
    return np.column_stack([d_abs, d_d1, d_d2])


def assert_matches_reference(data):
    """extract_features against the per-channel reference, channel by
    channel, within the error-model bound; returns the worst absolute gap
    and the worst gap as a fraction of its bound."""
    grid = extract_features(np.atleast_2d(data))
    worst_abs = worst_frac = 0.0
    for samples, got in zip(np.atleast_2d(data), grid.vectors):
        want = extract_channel(samples)
        bound = feature_error_bound(samples)
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
        # measured: 2.7e-12 absolute, at most 2 % of the bound
        script = synth.balanced_script(10, 5, seed=20,
                                       channel_profile=synth.FOCAL_PROFILE)
        rec, _ = synth.generate(script, seed=21)
        assert_matches_reference(rec.rows(0, 22))

    @pytest.mark.parametrize("n", [50, 74, 75, 200, 2500])
    def test_random_signals(self, n):
        # lengths around one window (50), two frames (75) and many
        assert_matches_reference(
            np.random.default_rng(n).standard_normal((3, n)) * 30)

    def test_all_zero_input(self):
        assert_matches_reference(np.zeros((2, 1000)))
        assert (filterbank_energies(np.zeros(1000)) == ENERGY_FLOOR).all()

    def test_energies_match_reference(self):
        x = np.random.default_rng(11).standard_normal(1337) * 40
        np.testing.assert_allclose(filterbank_energies(x),
                                   ref_filterbank_energies(frame_signal(x)),
                                   rtol=1e-9)


def extract_features_reference(data):
    """The frontend before channel groups: each channel's 26 rows finished on
    their own, with np.pad-padded derivatives, then copied out."""
    spectrum = _Spectrum(data.shape[1])
    dct_rows = _dct_basis(18, _CEPSTRA)
    out = np.empty((len(data), spectrum.num_frames, FEATURE_DIM))
    rows = np.empty((FEATURE_DIM, spectrum.num_frames))
    for samples, vectors in zip(data, out):
        for t0, t1 in spectrum.chunks():
            energies = spectrum.energies(samples, t0, t1)
            rows[7, t0:t1] = frequency_energy(energies.T)
            np.matmul(dct_rows, np.log(energies, out=energies), out=rows[:7, t0:t1])
        rows[8] = ref_differential_energy(rows[7], ED_WINDOW)
        rows[9:18] = ref_deltas(rows[:9].T, DELTA_1).T
        rows[18:] = ref_deltas(rows[9:17].T, DELTA_2).T
        vectors[...] = rows.T
    return out


class TestChannelGroups:
    @pytest.mark.parametrize("channels, seconds, group", [
        (22, 30, 16),   # 299 frames: groups of 16 + 6
        (4, 30, 16),    # one group
        (5, 200, 2),    # 1 999 frames, two full frontend chunks and a
                        # partial one: groups of 2 + 2 + 1
        (22, 600, 1),   # 10 min: one channel a group, six chunks + a partial
        (10, 61.3, 8),  # 612 frames: groups of 8 + 2
    ])
    def test_equal_to_per_channel_loop(self, channels, seconds, group):
        rng = np.random.default_rng(channels + int(seconds))
        data = rng.standard_normal((channels, int(seconds * RATE))) * 30
        frames = (data.shape[1] - 50) // 25 + 1
        assert max(_CHUNK // (FEATURE_DIM * frames), 1) == group
        np.testing.assert_array_equal(extract_features(data).vectors,
                                      extract_features_reference(data))

    def test_long_recording_keeps_per_channel_memory(self):
        # groups of one channel at 10 min: 3.8 MB beyond the 27.5 MB
        # output, as with the per-channel loop (48 MB as one group)
        data = np.random.default_rng(0).standard_normal((22, 150000))
        tracemalloc.start()
        try:
            vectors = extract_features(data).vectors
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - vectors.nbytes < 6e6

    @pytest.mark.parametrize("frames", [1, 2, 3, 4, 20, 299])
    @pytest.mark.parametrize("width", [1, 3, 9])
    def test_batched_derivatives_equal_row_by_row(self, frames, width):
        # (rows, channels, frames) input, each row a 1-D call; 1 and 3
        # frames are shorter than the padding of the wider windows
        x = np.random.default_rng(frames + width).standard_normal((9, 5, frames))
        ed, d = differential_energy(x, width), deltas(x, width)
        for i, j in np.ndindex(9, 5):
            np.testing.assert_array_equal(ed[i, j], differential_energy(x[i, j], width))
            np.testing.assert_array_equal(d[i, j], deltas(x[i, j], width))
            np.testing.assert_array_equal(
                ed[i, j], ref_differential_energy(x[i, j], width))


def _features_at(tmp_path, threads, seconds, channels):
    """extract_features' bytes in a fresh process whose BLAS thread count is
    set before numpy loads."""
    script = (
        "import sys\nimport numpy as np\n"
        "from seqdet.features import extract_features\n"
        f"data = np.random.default_rng(5).standard_normal(({channels}, "
        f"{int(seconds * RATE)})) * 30\n"
        "np.save(sys.argv[1], extract_features(data).vectors)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(synth.__file__)))
    path = tmp_path / f"f{threads}.npy"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                   check=True, capture_output=True, timeout=300)
    return path.read_bytes()


class TestThreadCount:
    def test_features_equal_at_one_and_two_blas_threads(self, tmp_path):
        """22 channels of 10 min give six full chunks and a partial one."""
        assert (_features_at(tmp_path, 1, 600, 22)
                == _features_at(tmp_path, 2, 600, 22))

    @pytest.mark.parametrize("seconds", [30, 45])
    def test_short_recording_equal_at_one_and_two_blas_threads(self, tmp_path,
                                                               seconds):
        """One partial chunk, 300 and 450 blocks wide before rounding: wide
        enough for OpenBLAS to split the DFT product between threads."""
        assert (_features_at(tmp_path, 1, seconds, 22)
                == _features_at(tmp_path, 2, seconds, 22))


class TestWorkers:
    """The read-only tables that the spectra of every decode worker share."""

    def test_tables_built_once_per_spec(self):
        a = _Spectrum(7500)
        b = _Spectrum(150000)
        assert features._tables.cache_info().misses == 1
        assert a.basis is b.basis and a.tap_weights is b.tap_weights
        assert not a.basis.flags.writeable
        assert a._prod is not b._prod


class TestFraming:
    def test_frame_count(self):
        # 10 s at 250 Hz: windows of 50 samples every 25 samples.
        assert filterbank_energies(np.zeros(2500)).shape == (99, 18)
        assert extract_features(np.zeros((1, 2500))).num_frames == 99

    def test_frame_alignment(self):
        # frame 3 covers samples 75..124 and nothing else
        x = np.random.default_rng(0).standard_normal(500)
        e = filterbank_energies(x)
        np.testing.assert_allclose(e[3], ref_filterbank_energies(
            x[75:125] * np.hamming(50))[0], rtol=1e-9)
        y = x.copy()
        y[:75] = y[125:] = 0.0
        np.testing.assert_array_equal(filterbank_energies(y)[3], e[3])

    def test_too_short(self):
        for n in (0, 40, 49):
            with pytest.raises(DataError):
                filterbank_energies(np.zeros(n))
            with pytest.raises(DataError):
                extract_features(np.zeros((2, n)))


class TestFilterbank:
    def test_shape_and_support(self):
        fb = _filterbank_matrix()
        assert fb.shape == (18, 33)
        assert (fb >= 0).all()

    def test_triangle_peaks(self):
        fb = _filterbank_matrix()
        centers = np.linspace(0.0, RATE / 2, 20)[1:-1]
        freqs = np.arange(33) * RATE / NFFT
        for j in range(18):
            # response at the filter's own center frequency is near 1
            k = np.argmin(np.abs(freqs - centers[j]))
            assert fb[j, k] > 0.7

    def test_energy_floor(self):
        e = filterbank_energies(np.zeros(100))
        assert (e == 1e-10).all()

    def test_pure_tone_band(self):
        # a tone at one filter's center concentrates energy in that filter
        centers = np.linspace(0.0, RATE / 2, 20)
        t = np.arange(50) / RATE
        e = filterbank_energies(np.sin(2 * np.pi * centers[9] * t))[0]
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
        f1 = frequency_energy(filterbank_energies(x))
        f2 = frequency_energy(filterbank_energies(2 * x))
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
        e = filterbank_energies(x)
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
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_overflowing_spectrum_rejected(self, monkeypatch, cpus):
        # finite samples near 1e307 whose squared DFT overflows: the
        # channel is named, by its label or its row, with no numpy warning
        # on the way, by extract_features and by a decode's pass 1 on one
        # worker or on a helper (channel 13 of 22 at 10 min is the 14th
        # one-channel group, which worker 1 of 2 reads)
        monkeypatch.setattr(parallel, "cpus", lambda: cpus)
        rng = np.random.default_rng(9)
        data = rng.standard_normal((22, 150000)) * 30
        data[13] *= 1e305
        labels = tuple(f"CH{i}" for i in range(22))
        overflow = r"^channel 'CH13': samples too large, the spectrum overflows$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=overflow):
                extract_features(data, labels)
            with pytest.raises(DataError, match=overflow):
                _decode_pass1(Recording.of(data, labels, RATE), OVERFLOW_MODELS)
            with pytest.raises(DataError, match=r"^row 3: samples too large"):
                extract_features(data[10:])
            data[13] *= 1e-155  # 1e150: large, but its spectrum is finite
            assert np.isfinite(extract_features(data, labels).vectors).all()

    def test_epoch_grouping(self):
        rng = np.random.default_rng(5)
        grid = extract_features(rng.standard_normal((2, 2500)))
        assert grid.num_channels == 2
        assert grid.num_frames == 99
        assert grid.num_epochs == 10
        block = gathered(grid)[3, 1]
        assert block.shape == (10, 26)
        np.testing.assert_array_equal(block, grid.vectors[1, 30:40])

    def test_partial_trailing_epoch_padded(self):
        rng = np.random.default_rng(6)
        grid = extract_features(rng.standard_normal((1, 2500)))
        # last epoch only has 9 real frames; the final frame repeats
        block = gathered(grid)[9, 0]
        np.testing.assert_array_equal(block[:9], grid.vectors[0, 90:99])
        np.testing.assert_array_equal(block[9], grid.vectors[0, 98])

    def test_cells_block(self):
        rng = np.random.default_rng(7)
        grid = extract_features(rng.standard_normal((3, 2500)))
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
        grid = extract_features(rng.standard_normal((2, 200)))
        assert grid.num_frames == 7
        cells = gathered(grid)
        assert cells.shape == (1, 2, 10, FEATURE_DIM)
        np.testing.assert_array_equal(cells[0, :, :7], grid.vectors)
        np.testing.assert_array_equal(cells[0, :, 7:],
                                      np.repeat(grid.vectors[:, 6:], 3, axis=1))
