import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from seqdet.errors import DataError
from seqdet.features import (FEATURE_DIM, FrameSpec, cepstra, deltas,
                             differential_energy, extract_channel,
                             extract_features, filterbank_energies,
                             frame_signal, frequency_energy,
                             _filterbank_matrix)
from seqdet.signal_io import Recording

RATE = 250.0
SPEC = FrameSpec()


def rec_from(data, rate=RATE):
    data = np.atleast_2d(data)
    return Recording(data, tuple(f"CH{i}" for i in range(len(data))), rate)


class TestFraming:
    def test_frame_count(self):
        # 10 s at 250 Hz: windows of 50 samples every 25 samples.
        frames = frame_signal(np.zeros(2500), SPEC)
        assert frames.shape == (99, 50)

    def test_frame_alignment(self):
        x = np.arange(500, dtype=float)
        frames = frame_signal(x, SPEC)
        win = np.hamming(50)
        np.testing.assert_allclose(frames[0], x[:50] * win)
        np.testing.assert_allclose(frames[3], x[75:125] * win)

    def test_too_short(self):
        with pytest.raises(DataError):
            frame_signal(np.zeros(40), SPEC)


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
        e = filterbank_energies(np.zeros((3, 50)), SPEC)
        assert (e == 1e-10).all()

    def test_pure_tone_band(self):
        # a tone at one filter's center concentrates energy in that filter
        centers = np.linspace(0.0, RATE / 2, 20)
        t = np.arange(50) / RATE
        tone = np.sin(2 * np.pi * centers[9] * t) * np.hamming(50)
        e = filterbank_energies(tone, SPEC)[0]
        assert np.argmax(e) == 8  # filter 8 has center centers[9]


class TestCepstra:
    def test_shape(self):
        e = filterbank_energies(np.random.default_rng(0).standard_normal((5, 50)),
                                SPEC)
        assert cepstra(e, SPEC).shape == (5, 7)

    def test_flat_spectrum_zero(self):
        # constant filterbank energies have no shape: all kept coefficients 0
        c = cepstra(np.full((1, 18), 2.0), SPEC)
        np.testing.assert_allclose(c, 0.0, atol=1e-12)

    def test_scaling_invariance(self):
        # multiplying energies by a constant only shifts coefficient 0
        rng = np.random.default_rng(1)
        e = np.exp(rng.standard_normal((4, 18)))
        np.testing.assert_allclose(cepstra(e, SPEC), cepstra(7.5 * e, SPEC),
                                   atol=1e-10)

    def test_single_cosine_mode(self):
        # log energies shaped as one DCT basis vector excite one coefficient
        k = 3
        n = 18
        basis = np.cos(np.pi * k * (np.arange(n) + 0.5) / n)
        e = np.exp(basis)[None]
        c = cepstra(e, SPEC)[0]
        expect = np.zeros(7)
        expect[k - 1] = np.sqrt(n / 2.0)  # ortho DCT-II norm for k > 0
        np.testing.assert_allclose(c, expect, atol=1e-10)


class TestEnergies:
    def test_frequency_energy_log_sum(self):
        e = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(frequency_energy(e), [np.log(6.0)])

    def test_amplitude_doubling_shifts_ef(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(500) * 50
        f1 = frequency_energy(filterbank_energies(frame_signal(x, SPEC), SPEC))
        f2 = frequency_energy(filterbank_energies(frame_signal(2 * x, SPEC), SPEC))
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

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (20, 3),
                  elements=st.floats(-100, 100)),
           arrays(np.float64, (20, 3),
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
        mat = extract_channel(rng.standard_normal(1000), SPEC)
        assert mat.shape[1] == FEATURE_DIM == 26

    def test_block_structure(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(1500) * 20
        mat = extract_channel(x, SPEC)
        frames = frame_signal(x, SPEC)
        e = filterbank_energies(frames, SPEC)
        ceps = cepstra(e, SPEC)
        ef = frequency_energy(e)
        ed = differential_energy(ef, 9)
        np.testing.assert_allclose(mat[:, :7], ceps)
        np.testing.assert_allclose(mat[:, 7], ef)
        np.testing.assert_allclose(mat[:, 8], ed)
        d1 = deltas(np.column_stack([ceps, ef, ed]), 9)
        np.testing.assert_allclose(mat[:, 9:18], d1)
        d2 = deltas(d1[:, :8], 3)
        np.testing.assert_allclose(mat[:, 18:26], d2)


class TestGrid:
    def test_epoch_grouping(self):
        rng = np.random.default_rng(5)
        rec = rec_from(rng.standard_normal((2, 2500)))
        grid = extract_features(rec)
        assert grid.num_channels == 2
        assert grid.num_frames == 99
        assert grid.num_epochs == 10
        block = grid.cells()[3, 1]
        assert block.shape == (10, 26)
        np.testing.assert_array_equal(block, grid.vectors[1, 30:40])

    def test_partial_trailing_epoch_padded(self):
        rng = np.random.default_rng(6)
        rec = rec_from(rng.standard_normal((1, 2500)))
        grid = extract_features(rec)
        # last epoch only has 9 real frames; the final frame repeats
        block = grid.cells()[9, 0]
        np.testing.assert_array_equal(block[:9], grid.vectors[0, 90:99])
        np.testing.assert_array_equal(block[9], grid.vectors[0, 98])

    def test_cells_block(self):
        rng = np.random.default_rng(7)
        rec = rec_from(rng.standard_normal((3, 2500)))
        grid = extract_features(rec)
        cells = grid.cells()
        assert cells.shape == (10, 3, 10, FEATURE_DIM)
        np.testing.assert_array_equal(cells[4, 2], grid.vectors[2, 40:50])
        np.testing.assert_array_equal(cells[9, :, 9], grid.vectors[:, 98])

    def test_cells_shorter_than_one_epoch(self):
        rng = np.random.default_rng(8)
        grid = extract_features(rec_from(rng.standard_normal((2, 200))))
        assert grid.num_frames == 7
        cells = grid.cells()
        assert cells.shape == (1, 2, 10, FEATURE_DIM)
        np.testing.assert_array_equal(cells[0, :, :7], grid.vectors)
        np.testing.assert_array_equal(cells[0, :, 7:],
                                      np.repeat(grid.vectors[:, 6:], 3, axis=1))

    def test_wrong_rate_rejected(self):
        rec = rec_from(np.zeros((1, 1000)), rate=256.0)
        with pytest.raises(DataError):
            extract_features(rec)
