import contextlib
import io
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from seqdet import cli, signal_io
from seqdet.errors import DataError
from seqdet.labels import EventLabel
from seqdet.signal_io import (ALL_CHANNELS, AnnotationSet, Event,
                              MontageSpec, Recording, apply_montage,
                              open_recording, read_annotations, resample,
                              write_annotations, write_recording)
from tests.test_bundle import tiny_bundle


def make_recording(data, rate=250.0, labels=None):
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    labels = labels or [f"CH{i}" for i in range(data.shape[0])]
    return Recording.of(data, tuple(labels), rate)


def read_whole(path):
    """The recording at `path`, and all of its rows."""
    rec = open_recording(str(path))
    return rec, rec.rows(0, len(rec.labels))


def write_edf(path, signals, rate=256, record_dur=1.0, phys=(-1000.0, 1000.0),
              dig=(-32768, 32767), labels=None, num_records=None):
    """Byte-level EDF writer used only by the tests. `phys` is one physical
    range for every signal or a list of one per signal."""
    ns = len(signals)
    phys = [phys] * ns if np.ndim(phys) == 1 else phys
    spr = int(round(rate * record_dur))
    if num_records is None:
        num_records = len(signals[0]) // spr
    labels = labels or [f"EEG {i}" for i in range(ns)]
    head = b""
    head += b"0".ljust(8)
    head += b"patient".ljust(80)
    head += b"recording".ljust(80)
    head += b"01.01.20".ljust(8) + b"00.00.00".ljust(8)
    head += str(256 + 256 * ns).encode().ljust(8)
    head += b"".ljust(44)
    head += str(num_records).encode().ljust(8)
    head += f"{record_dur:g}".encode().ljust(8)
    head += str(ns).encode().ljust(4)
    cols = [
        [l.encode().ljust(16) for l in labels],
        [b"".ljust(80)] * ns,
        [b"uV".ljust(8)] * ns,
        [f"{p[0]:g}".encode().ljust(8) for p in phys],
        [f"{p[1]:g}".encode().ljust(8) for p in phys],
        [str(dig[0]).encode().ljust(8)] * ns,
        [str(dig[1]).encode().ljust(8)] * ns,
        [b"".ljust(80)] * ns,
        [str(spr).encode().ljust(8)] * ns,
        [b"".ljust(32)] * ns,
    ]
    for col in cols:
        head += b"".join(col)
    body = b""
    for r in range(num_records):
        for sig in signals:
            seg = np.asarray(sig[r * spr:(r + 1) * spr], dtype="<i2")
            body += seg.tobytes()
    with open(path, "wb") as f:
        f.write(head + body)


class TestRecording:
    def test_label_count_must_match_rows(self):
        with pytest.raises(DataError, match="1 channel labels for 2"):
            Recording.of(np.zeros((2, 5)), ("A",), 250.0)

    def test_one_dimensional_data_rejected(self):
        with pytest.raises(DataError, match="matrix"):
            Recording.of(np.zeros(5), ("A",), 250.0)

    def test_zero_channels_rejected(self):
        with pytest.raises(DataError, match="at least one channel"):
            Recording.of(np.zeros((0, 5)), (), 250.0)

    @pytest.mark.parametrize("rate", [0.0, -250.0, np.nan, np.inf])
    def test_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(DataError, match="positive and finite"):
            Recording.of(np.zeros((1, 5)), ("A",), rate)


class TestRawMatrix:
    def test_header_arithmetic(self, tmp_path):
        path = tmp_path / "r.rm"
        rec = make_recording(np.zeros((2, 1000)), rate=250.0)
        write_recording(rec, str(path))
        back, data = read_whole(path)
        assert back.duration_s == pytest.approx(4.0)
        assert len(data) == 2

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        rec = make_recording(rng.standard_normal((3, 500)).astype(np.float32))
        path = tmp_path / "r.rm"
        write_recording(rec, str(path))
        back, data = read_whole(path)
        np.testing.assert_array_equal(data, rec.rows(0, 3))
        assert back.sample_rate_hz == rec.sample_rate_hz

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.rm"
        path.write_bytes(b"not a header\n")
        with pytest.raises(DataError):
            open_recording(str(path))

    def test_negative_dimensions_rejected(self, tmp_path):
        path = tmp_path / "bad.rm"
        path.write_bytes(b"channels=-1 rate_hz=250 samples=-4\n" + b"\0" * 16)
        with pytest.raises(DataError, match="malformed"):
            open_recording(str(path))

    def test_payload_size_mismatch(self, tmp_path):
        path = tmp_path / "bad.rm"
        path.write_bytes(b"channels=2 rate_hz=250 samples=100\n" + b"\0" * 16)
        with pytest.raises(DataError):
            open_recording(str(path))

    @pytest.mark.parametrize("name", ["a.rm", "a.edf"])
    def test_partial_sample_rejected(self, tmp_path, name):
        # a payload that is not a whole number of samples
        path = tmp_path / name
        if name.endswith(".edf"):
            write_edf(str(path), [np.arange(256)])
        else:
            write_recording(make_recording(np.ones((2, 4))), str(path))
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(DataError, match="payload has"):
            open_recording(str(path))


# A 40 TB matrix declared over a 16-byte payload.
HUGE_RAW = b"channels=100000 rate_hz=250 samples=100000000\n" + b"\0" * 16


class _ShortReads:
    """A file whose readinto fills only half of what is asked for."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def __getattr__(self, name):
        return getattr(self.f, name)

    def readinto(self, buf):
        view = memoryview(buf).cast("B")
        return self.f.readinto(view[:max(len(view) // 2, 1)])


class TestRawMatrixErrors:
    def test_huge_header_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "huge.rm"
        path.write_bytes(HUGE_RAW)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="payload has 16 bytes, "
                                                "expected 40000000000000"):
                open_recording(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_zero_samples_rejected(self, tmp_path):
        # zero channels or samples: nothing to decode, no label tuple sized
        # by the header, and no matrix shape numpy cannot make
        for header in (b"channels=1000000000 rate_hz=250 samples=0\n",
                       b"channels=0 rate_hz=250 samples=10\n",
                       b"channels=0 rate_hz=250 samples=%d\n" % 10 ** 30):
            path = tmp_path / "empty.rm"
            path.write_bytes(header)
            with pytest.raises(DataError, match="malformed"):
                open_recording(str(path))

    def test_reads_across_staging_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(signal_io, "_READ_BLOCK", 7)
        rng = np.random.default_rng(9)
        rec = make_recording(rng.standard_normal((3, 11)).astype(np.float32))
        write_recording(rec, str(tmp_path / "r.rm"))
        _, data = read_whole(tmp_path / "r.rm")
        assert data.dtype == np.float64 and data.flags.c_contiguous
        np.testing.assert_array_equal(data, rec.rows(0, 3))

    @pytest.mark.parametrize("case", ["short", "trailing", "short_readinto"])
    def test_cli_exits_2_with_one_line(self, tmp_path, monkeypatch, case):
        bundle = str(tmp_path / "model.seqd")
        tiny_bundle().save(bundle)
        path = tmp_path / "r.rm"
        write_recording(make_recording(np.ones((22, 3000))), str(path))
        raw = path.read_bytes()
        if case == "short":
            path.write_bytes(raw[:-6])
        elif case == "trailing":
            path.write_bytes(raw + b"\0" * 8)
        else:
            monkeypatch.setattr(signal_io, "open",
                                lambda *a: _ShortReads(open(*a)), raising=False)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["decode", bundle, str(path),
                             "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert err.getvalue().startswith("data error: ")
        assert "payload has" in err.getvalue()
        assert err.getvalue().count("\n") == 1


def edf_formula_reference(path):
    """The physical matrix as first computed: an int64 difference of the
    de-interleaved records, times the gain, plus the physical minimum."""
    raw = Path(path).read_bytes()
    ns = int(raw[252:256])
    fields = [raw[256 + off * ns:256 + (off + 8) * ns] for off in (104, 112, 120, 128, 216)]
    col = [np.array([float(f[i * 8:(i + 1) * 8]) for i in range(ns)])[:, None]
           for f in fields]
    phys_min, phys_max, dig_min, dig_max, spr = col
    dig_min, spr = dig_min.astype(np.int64), int(spr[0, 0])
    payload = np.frombuffer(raw, dtype="<i2", offset=256 + 256 * ns)
    dig = payload.reshape(-1, ns, spr).transpose(1, 0, 2)
    gain = (phys_max - phys_min) / (dig_max.astype(np.int64) - dig_min)
    return (dig.reshape(ns, -1) - dig_min) * gain + phys_min


class TestEdf:
    def test_in_place_scaling_equals_formula(self, tmp_path):
        rng = np.random.default_rng(12)
        for k in range(20):
            ns, records = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            lo = int(rng.integers(-32768, 0))
            hi = int(rng.integers(lo + 1, 32768))
            p0 = float(np.round(rng.uniform(-5000, 0), 2))
            p1 = float(np.round(rng.uniform(1, 5000), 2))
            signals = [rng.integers(lo, hi + 1, size=256 * records)
                       for _ in range(ns)]
            path = str(tmp_path / f"r{k}.edf")
            write_edf(path, signals, phys=(p0, p1), dig=(lo, hi))
            _, data = read_whole(path)
            np.testing.assert_array_equal(data, edf_formula_reference(path))

    def test_read_22_channels_256hz(self, tmp_path):
        rng = np.random.default_rng(1)
        signals = [rng.integers(-100, 100, size=512) for _ in range(22)]
        path = tmp_path / "a.edf"
        write_edf(str(path), signals, rate=256)
        rec, data = read_whole(path)
        assert len(data) == 22
        assert rec.sample_rate_hz == 256.0
        assert rec.num_samples == 512

    def test_identity_calibration(self, tmp_path):
        signals = [np.arange(-50, 206)]
        path = tmp_path / "a.edf"
        write_edf(str(path), signals, rate=256, phys=(-32768.0, 32767.0))
        _, data = read_whole(path)
        np.testing.assert_allclose(data[0], signals[0])

    def test_physical_scaling(self, tmp_path):
        signals = [np.array([0, 16384, -16384] * 86, dtype=np.int64)[:256]]
        path = tmp_path / "a.edf"
        write_edf(str(path), signals, phys=(-100.0, 100.0))
        _, data = read_whole(path)
        gain = 200.0 / 65535
        expect = (signals[0] + 32768) * gain - 100.0
        np.testing.assert_allclose(data[0], expect)

    def test_records_deinterleaved(self, tmp_path):
        # 3 signals, 4 one-second records: each record holds 256 samples of
        # every signal in turn.
        signals = [np.arange(1024) + 2000 * i for i in range(3)]
        path = tmp_path / "a.edf"
        write_edf(str(path), signals, phys=(-32768.0, 32767.0),
                  labels=["A", "B", "C"])
        rec, data = read_whole(path)
        assert rec.labels == ("A", "B", "C")
        np.testing.assert_array_equal(data, np.stack(signals))

    def test_zero_digital_range_names_signal(self, tmp_path):
        path = tmp_path / "a.edf"
        write_edf(str(path), [np.zeros(256), np.zeros(256)],
                  labels=["A", "B"])
        raw = bytearray(path.read_bytes())
        # dig max of the second signal, after label/transducer/dim/phys/dig min.
        off = 256 + (16 + 80 + 8 + 8 + 8 + 8) * 2 + 8
        raw[off:off + 8] = b"-32768".ljust(8)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="'B': digital min == max"):
            open_recording(str(path))

    def test_annotation_channel_rejected(self, tmp_path):
        path = tmp_path / "a.edf"
        write_edf(str(path), [np.zeros(256)], labels=["EDF Annotations"])
        with pytest.raises(DataError):
            open_recording(str(path))

    def test_mixed_rates_rejected(self, tmp_path):
        path = tmp_path / "a.edf"
        # Handcraft: two signals with different samples/record.
        write_edf(str(path), [np.zeros(256), np.zeros(256)])
        raw = bytearray(path.read_bytes())
        # samples/record column sits after label/transducer/dim/phys/dig/prefilter.
        off = 256 + (16 + 80 + 8 + 8 + 8 + 8 + 8 + 80) * 2 + 8
        raw[off:off + 8] = b"128".ljust(8)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            open_recording(str(path))

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "a.edf"
        write_edf(str(path), [np.zeros(256)])
        path.write_bytes(path.read_bytes()[:300])
        with pytest.raises(DataError):
            open_recording(str(path))


class TestOpenRecording:
    @pytest.mark.parametrize("read_block", [7, 1 << 16])
    def test_raw_blocks_equal_the_file(self, tmp_path, monkeypatch, read_block):
        # rows of 11 samples through a 7-sample staging buffer end mid-buffer
        monkeypatch.setattr(signal_io, "_READ_BLOCK", read_block)
        rng = np.random.default_rng(10)
        rec = make_recording(rng.standard_normal((5, 11)).astype(np.float32))
        path = tmp_path / "r.rm"
        write_recording(rec, str(path))
        header = path.read_bytes().index(b"\n") + 1
        want = np.fromfile(path, dtype="<f4", offset=header).reshape(5, 11)
        lazy = open_recording(str(path))
        assert (lazy.labels, lazy.num_samples, lazy.sample_rate_hz) == (
            ("CH0", "CH1", "CH2", "CH3", "CH4"), 11, 250.0)
        for lo, hi in itertools.combinations(range(6), 2):
            part = lazy.rows(lo, hi)
            assert part.dtype == np.float64
            np.testing.assert_array_equal(part, want[lo:hi])
        np.testing.assert_array_equal(lazy.read([4, 0, 2]), want[[4, 0, 2]])

    def test_edf_blocks_equal_the_formula(self, tmp_path):
        rng = np.random.default_rng(11)
        path = str(tmp_path / "a.edf")
        write_edf(path, [rng.integers(-300, 300, size=768) for _ in range(4)],
                  phys=(-12.5, 40.0), dig=(-400, 400), labels=list("ABCD"))
        want = edf_formula_reference(path)
        lazy = open_recording(path)
        assert (lazy.labels, lazy.num_samples) == (("A", "B", "C", "D"), 768)
        for lo, hi in itertools.combinations(range(5), 2):
            np.testing.assert_array_equal(lazy.rows(lo, hi), want[lo:hi])
        np.testing.assert_array_equal(lazy.read([3, 1]), want[[3, 1]])

    @pytest.mark.parametrize("bad, channel", [
        ([(4, 10)], "CH4"),          # the last sample: the staging tail
        ([(3, 0), (4, 10)], "CH3"),  # the first bad channel is named
    ])
    def test_raw_non_finite_rejected_at_open(self, tmp_path, monkeypatch, bad,
                                             channel):
        monkeypatch.setattr(signal_io, "_READ_BLOCK", 7)
        path = tmp_path / "r.rm"
        write_recording(make_recording(np.ones((5, 11))), str(path))
        raw = bytearray(path.read_bytes())
        start = raw.index(b"\n") + 1
        for row, col in bad:
            at = start + 4 * (11 * row + col)
            raw[at:at + 4] = np.float32(np.inf).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=f"channel '{channel}': non-finite"):
            open_recording(str(path))

    def test_edf_non_finite_rejected_at_open(self, tmp_path):
        # signal B declares digital 0..1 over -1000..1e305 units; its one sample
        # of 32767 overflows float64 once calibrated
        path = tmp_path / "a.edf"
        b = np.zeros(256)
        b[-1] = 32767
        write_edf(str(path), [np.zeros(256), b], labels=["A", "B"])
        raw = bytearray(path.read_bytes())
        for col, value in ((4, b"1e305"), (5, b"0"), (6, b"1")):  # phys max, dig min, max
            off = 256 + (16 + 80 + 8 + 8 * (col - 3)) * 2 + 8
            raw[off:off + 8] = value.ljust(8)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="channel 'B': non-finite"):
            open_recording(str(path))

    def test_huge_edf_rejected_before_allocating(self, tmp_path):
        # 10^8 one-second records declared over one
        path = tmp_path / "a.edf"
        write_edf(str(path), [np.zeros(256)])
        raw = bytearray(path.read_bytes())
        raw[236:244] = b"99999999"
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="EDF payload has 512 bytes, "
                                                "expected 51199999488"):
                open_recording(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_file_shortened_after_open(self, tmp_path):
        path = tmp_path / "r.rm"
        write_recording(make_recording(np.ones((5, 11))), str(path))
        lazy = open_recording(str(path))
        path.write_bytes(path.read_bytes()[:-4])
        np.testing.assert_array_equal(lazy.rows(0, 4), np.ones((4, 11)))
        with pytest.raises(DataError, match="payload has 216 bytes, expected 220"):
            lazy.rows(4, 5)


class TestResample:
    def test_same_rate_identity(self):
        data = np.random.default_rng(0).standard_normal((2, 250))
        np.testing.assert_array_equal(resample(data, 250.0, 250.0), data)

    def test_sine_downsample(self):
        t = np.arange(5000) / 500.0
        out = resample(np.sin(2 * np.pi * 10.0 * t)[None], 500.0, 250.0)
        assert out.shape == (1, 2500)
        spec = np.abs(np.fft.rfft(out[0]))
        freqs = np.fft.rfftfreq(out.shape[1], 1 / 250.0)
        peak = freqs[np.argmax(spec)]
        assert abs(peak - 10.0) < 0.1
        interior = out[0][200:-200]
        assert abs(interior.max() - 1.0) < 0.01

    def test_dc_preserved(self):
        out = resample(np.full((1, 1000), 3.0), 200.0, 250.0)
        interior = out[0][100:-100]
        # polyphase branch gains carry small stopband ripple
        np.testing.assert_allclose(interior, 3.0, atol=1e-3)

    def test_down_up_round_trip(self):
        rng = np.random.default_rng(3)
        # band-limited signal: keep content well below 125 Hz
        spec = np.zeros(2500, dtype=complex)
        spec[1:100] = rng.standard_normal(99) + 1j * rng.standard_normal(99)
        x = np.fft.irfft(spec, n=5000)
        back = resample(resample(x[None], 500.0, 250.0), 250.0, 500.0)
        a = x[500:-500]
        b = back[0][500:-500]
        assert np.linalg.norm(a - b) / np.linalg.norm(a) < 0.01


class TestMontage:
    def test_equal_inputs_zero(self):
        out = apply_montage(np.ones((2, 10)), ("A", "B"),
                            MontageSpec((("X", "A", "A"),)))
        np.testing.assert_array_equal(out[0], np.zeros(10))

    def test_copy_derivation(self):
        out = apply_montage(np.array([[1.0, 2.0, 3.0]]), ("A",),
                            MontageSpec((("X", "A", None),)))
        np.testing.assert_array_equal(out[0], [1.0, 2.0, 3.0])

    def test_differences(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((3, 20))
        spec = MontageSpec((("X", "A", "B"), ("Y", "C", "A")))
        out = apply_montage(data, ("A", "B", "C"), spec)
        np.testing.assert_allclose(out[0], data[0] - data[1])
        np.testing.assert_allclose(out[1], data[2] - data[0])

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((2, 2, 30))
        spec = MontageSpec((("X", "A", "B"),))
        a, b = 2.5, -1.25
        combo, mx, my = (apply_montage(d, ("A", "B"), spec)
                         for d in (a * x + b * y, x, y))
        np.testing.assert_allclose(combo[0], a * mx[0] + b * my[0])

    def test_unresolved_label(self):
        with pytest.raises(DataError):
            apply_montage(np.ones((1, 5)), ("A",),
                          MontageSpec((("X", "A", "MISSING"),)))


class TestAnnotations:
    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "a.csv"
        write_annotations(AnnotationSet(()), str(path))
        assert read_annotations(str(path)).events == ()
        assert path.read_text().startswith("channel,start_s,stop_s,label")

    @pytest.mark.parametrize("start, stop", [
        (np.nan, 1.0), (0.0, np.nan), (0.0, np.inf), (np.inf, np.inf),
        (-np.inf, 1.0), (-1.0, 1.0), (1.0, 1.0)])
    def test_bad_event_times_refused(self, start, stop):
        with pytest.raises(DataError, match="^invalid event times: "):
            Event(0, start, stop, EventLabel.BCKG)

    def test_single_event(self, tmp_path):
        path = tmp_path / "a.csv"
        ann = AnnotationSet((Event(0, 1.0, 2.0, EventLabel.PLED),))
        write_annotations(ann, str(path))
        back = read_annotations(str(path))
        assert back.events == ann.events

    def test_random_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        events = []
        for ch in range(10):
            t = 0.0
            for _ in range(10):
                start = t + rng.integers(0, 3)
                stop = start + 1 + rng.integers(0, 4)
                lab = EventLabel(int(rng.integers(6)))
                events.append(Event(int(ch), float(start), float(stop), lab))
                t = stop
        ann = AnnotationSet(tuple(events))
        path = tmp_path / "a.csv"
        write_annotations(ann, str(path))
        assert read_annotations(str(path)).events == ann.events

    def test_all_channel_marker(self, tmp_path):
        path = tmp_path / "a.csv"
        ann = AnnotationSet((Event(ALL_CHANNELS, 0.0, 5.0, EventLabel.BCKG),))
        write_annotations(ann, str(path))
        assert read_annotations(str(path)).events[0].channel == ALL_CHANNELS

    def test_conflicting_overlap_rejected(self):
        with pytest.raises(DataError):
            AnnotationSet((Event(0, 0.0, 2.0, EventLabel.PLED),
                           Event(0, 1.0, 3.0, EventLabel.GPED)))

    def test_same_label_overlap_allowed(self):
        AnnotationSet((Event(0, 0.0, 2.0, EventLabel.PLED),
                       Event(0, 1.0, 3.0, EventLabel.PLED)))

    def test_nonfinite_samples_rejected(self):
        with pytest.raises(DataError, match="'B': non-finite"):
            Recording.of(np.array([[1.0, 2.0], [1.0, np.nan]]), ("A", "B"), 250.0)
