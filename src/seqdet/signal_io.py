"""Recordings and annotations: the pipeline's rate and channel count
(RATE_HZ, CHANNELS), the one Recording type, raw-matrix and EDF-subset
readers that check a file when it is opened and build its float64 rows a
block of channels at a time, windowed-sinc resampling and montage derivation
of plain (channels, samples) arrays, and the annotation CSV round-trip.

EDF support is deliberately a strict read-only subset: plain header plus
16-bit little-endian signal records with a uniform record duration. Anything
outside that (annotation channels, variable rates across channels) raises
DataError rather than being guessed at.
"""
from __future__ import annotations

import csv
import functools
import math
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DataError
from .labels import EventLabel, parse_label

ALL_CHANNELS = -1  # channel index meaning "event applies to every channel"

# The recording contract of the pipeline: load_recording resamples every
# recording to RATE_HZ, and it has CHANNELS channels after the montage. The
# pipeline labels 1 s epochs, so an epoch is RATE_HZ samples and holds a
# whole number of frame steps (features.FRAMES_PER_EPOCH).
# Annotations are in seconds, and these readers take a second as an epoch
# index: evaluation.epoch_reference_labels and
# channel_epoch_reference_labels, pipeline._merge_runs and score_files.
RATE_HZ = 250.0
CHANNELS = 22


@dataclass(frozen=True)
class Recording:
    """A multichannel recording in microvolts, one label per channel, whose
    rows are built when they are asked for, so that its (channels, samples)
    matrix need never exist. `read(index)` builds the float64 rows of the
    channels in the list `index`, in that order. Every sample was checked
    when the recording was opened or made, so no read checks it again."""
    labels: tuple[str, ...]
    sample_rate_hz: float
    num_samples: int
    read: Callable[[list[int]], np.ndarray] = field(repr=False, compare=False)

    @classmethod
    def of(cls, data, labels: Sequence[str], sample_rate_hz: float) -> "Recording":
        """An in-memory (channels, samples) matrix, checked here: a positive
        finite rate, one label per row, at least one row, finite samples.
        Each read returns a copy of its rows."""
        _check_rate(sample_rate_hz)
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise DataError(f"recording data must be a (channels, samples) "
                            f"matrix, got {data.ndim}-D")
        if not len(data):
            raise DataError("recording must have at least one channel")
        labels = tuple(labels)
        if len(labels) != len(data):
            raise DataError(f"{len(labels)} channel labels for {len(data)} channels")
        for i, row in enumerate(data):  # no (channels, samples) mask
            if not np.isfinite(row).all():
                raise _non_finite(labels, i)
        return cls(labels, sample_rate_hz, data.shape[1], lambda index: data[index])

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Channels lo..hi-1; `hi` may pass the last channel, as in a
        slice."""
        return self.read(list(range(len(self.labels))[lo:hi]))

    @property
    def duration_s(self) -> float:
        return self.num_samples / self.sample_rate_hz


def _check_rate(rate: float) -> None:
    if not 0 < rate < math.inf:
        raise DataError(f"sample_rate_hz must be positive and finite, got {rate}")


@dataclass(frozen=True)
class MontageSpec:
    """List of output derivations (output_label, positive_input, negative_input
    or None for a plain copy)."""
    derivations: tuple[tuple[str, str, str | None], ...]

    def __post_init__(self):
        outs = [d[0] for d in self.derivations]
        if len(set(outs)) != len(outs):
            raise DataError("montage output labels must be unique")
        object.__setattr__(self, "derivations", tuple(self.derivations))


@dataclass(frozen=True)
class Event:
    channel: int  # channel index, or ALL_CHANNELS
    start_s: float
    stop_s: float
    label: EventLabel

    def __post_init__(self):  # refuses NaN and infinite times too
        if not (0 <= self.start_s < self.stop_s < math.inf):
            raise DataError(
                f"invalid event times: start={self.start_s} stop={self.stop_s}")


@dataclass(frozen=True)
class AnnotationSet:
    events: tuple[Event, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        self._check_conflicts()

    def _check_conflicts(self):
        # Overlapping same-channel events with different labels are ambiguous.
        by_channel: dict[int, list[Event]] = {}
        for ev in self.events:
            by_channel.setdefault(ev.channel, []).append(ev)
        for ch, evs in by_channel.items():
            evs = sorted(evs, key=lambda e: e.start_s)
            for a, b in zip(evs, evs[1:]):
                if b.start_s < a.stop_s and a.label != b.label:
                    raise DataError(
                        f"conflicting overlap on channel {ch}: "
                        f"{a.label.name} [{a.start_s},{a.stop_s}) vs "
                        f"{b.label.name} [{b.start_s},{b.stop_s})")


# ---------------------------------------------------------------------------
# Opening a recording file. Every check runs when the file is opened; the
# float64 rows are built later, a block of channels at a time.

def open_recording(path: str) -> Recording:
    """An EDF file if the name ends in .edf, a raw matrix otherwise."""
    if path.lower().endswith(".edf"):
        return _open_edf(path)
    return _open_raw_matrix(path)


def _non_finite(labels: tuple[str, ...], channel: int) -> DataError:
    return DataError(f"channel {labels[channel]!r}: non-finite samples rejected")


# raw_matrix format: text header line "channels=<n> rate_hz=<r> samples=<m>"
# followed by little-endian float32, channel-major.

_READ_BLOCK = 1 << 16  # float32 samples staged per read: 256 KB


def _staged(f, count: int, done: int, expected: int):
    """The next `count` float32 samples of `f` as (offset, samples) pieces:
    views of one staging buffer, which each piece overwrites. `done` bytes
    of the `expected`-byte payload come before them."""
    buf = np.empty(min(_READ_BLOCK, count), dtype="<f4")
    for lo in range(0, count, len(buf)):
        block = buf[:count - lo]
        got = f.readinto(block)
        if got != block.nbytes:
            raise DataError(f"raw_matrix payload has {done + 4 * lo + got} "
                            f"bytes, expected {expected}")
        yield lo, block


def _open_raw_matrix(path: str) -> Recording:
    """The header is checked against the file's size before anything is
    allocated, and one pass through the staging buffer checks that every
    sample is finite. `read` reads each channel it returns through the
    same buffer straight into its float64 row."""
    with open(path, "rb") as f:
        header = f.readline().decode("ascii", errors="replace").strip()
        fields = {}
        for tok in header.split():
            if "=" not in tok:
                raise DataError(f"malformed raw_matrix header: {header!r}")
            k, v = tok.split("=", 1)
            fields[k] = v
        try:
            n = int(fields["channels"])
            rate = float(fields["rate_hz"])
            m = int(fields["samples"])
        except (KeyError, ValueError):
            raise DataError(f"malformed raw_matrix header: {header!r}") from None
        if n < 1 or m < 1:
            raise DataError(f"malformed raw_matrix header: {header!r}")
        expected = 4 * n * m
        start = f.tell()
        size = os.fstat(f.fileno()).st_size - start
        if size != expected:
            raise DataError(f"raw_matrix payload has {size} bytes, "
                            f"expected {expected}")
        _check_rate(rate)
        labels = tuple(f"CH{i}" for i in range(n))
        for lo, block in _staged(f, n * m, 0, expected):
            finite = np.isfinite(block)
            if not finite.all():
                raise _non_finite(labels, (lo + int(finite.argmin())) // m)

    def read(index: list[int]) -> np.ndarray:
        data = np.empty((len(index), m))
        with open(path, "rb") as f:
            for i, row in zip(index, data):
                f.seek(start + 4 * i * m)
                for lo, block in _staged(f, m, 4 * i * m, expected):
                    row[lo:lo + len(block)] = block
        return data

    return Recording(labels, rate, m, read)


def write_recording(rec: Recording, path: str) -> None:
    """The raw_matrix file of `rec`, written a channel at a time."""
    header = (f"channels={len(rec.labels)} rate_hz={rec.sample_rate_hz:g} "
              f"samples={rec.num_samples}\n")
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        for i in range(len(rec.labels)):
            f.write(rec.read([i]).astype("<f4").tobytes())


# EDF subset reader

_EDF_HEADER = 256


def _open_edf(path: str) -> Recording:
    """A plain EDF file: 16-bit little-endian integer records scaled to
    physical units by the per-signal calibration in the header. The headers
    are checked against the file's size before the payload is read, and
    only the int16 payload is kept; `read` calibrates the signals it
    returns."""
    with open(path, "rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        head = f.read(_EDF_HEADER)
        if len(head) < _EDF_HEADER:
            raise DataError("EDF file shorter than fixed header")

        def _field(buf, off, n):
            return buf[off:off + n].decode("ascii", errors="replace").strip()

        version = _field(head, 0, 8)
        if version != "0":
            raise DataError(f"unsupported EDF version field: {version!r}")
        try:
            header_bytes = int(_field(head, 184, 8))
            num_records = int(_field(head, 236, 8))
            record_dur = float(_field(head, 244, 8))
            ns = int(_field(head, 252, 4))
        except ValueError:
            raise DataError("malformed EDF fixed header") from None
        if ns <= 0 or num_records < 0 or record_dur <= 0:
            raise DataError("malformed EDF fixed header")
        if header_bytes != _EDF_HEADER + 256 * ns:
            raise DataError("EDF header size inconsistent with signal count")
        if file_size < header_bytes:
            raise DataError("EDF file truncated in signal headers")
        sig = f.read(header_bytes - _EDF_HEADER)
    # EDF signal header layout, stored column-wise (all labels, then all
    # transducers, ...): label 16, transducer 80, dimension 8, phys min 8,
    # phys max 8, dig min 8, dig max 8, prefilter 80, samples/record 8,
    # reserved 32.
    sizes = [16, 80, 8, 8, 8, 8, 8, 80, 8, 32]

    def _column(idx):
        base = sum(s * ns for s in sizes[:idx])
        n = sizes[idx]
        return [
            sig[base + i * n: base + (i + 1) * n]
            .decode("ascii", errors="replace").strip()
            for i in range(ns)
        ]

    labels = tuple(_column(0))
    try:
        # Calibration as (ns, 1) columns that broadcast over the samples.
        phys_min, phys_max = (np.array([float(v) for v in _column(i)])[:, None]
                              for i in (3, 4))
        dig_min, dig_max = (np.array([int(v) for v in _column(i)])[:, None]
                            for i in (5, 6))
        spr = [int(v) for v in _column(8)]
    except ValueError:
        raise DataError("malformed EDF signal header") from None

    for lab in labels:
        if "EDF Annotations" in lab:
            raise DataError("annotations-in-signal EDF channels are not supported")
    if len(set(spr)) != 1:
        raise DataError("per-channel sample rates differ; uniform rates required")
    if any(n <= 0 for n in spr):
        raise DataError("non-positive samples-per-record")

    rate = spr[0] / record_dur
    expected = 2 * num_records * ns * spr[0]
    if file_size - header_bytes != expected:
        raise DataError(f"EDF payload has {file_size - header_bytes} bytes, "
                        f"expected {expected}")
    dscale = dig_max - dig_min
    if not dscale.all():
        flat = np.flatnonzero(dscale == 0)[0]
        raise DataError(f"signal {labels[flat]!r}: digital min == max")
    gain = (phys_max - phys_min) / dscale
    _check_rate(rate)
    dig = np.fromfile(path, dtype="<i2", count=expected // 2, offset=header_bytes)
    if 2 * dig.size != expected:  # the file shrank after it was measured
        raise DataError(f"EDF payload has {2 * dig.size} bytes, expected {expected}")
    # Each record holds spr samples of every signal in turn.
    dig = dig.reshape(num_records, ns, spr[0])
    if dig.size:
        # The calibration is monotonic in the digital value, so a signal
        # has a non-finite sample only if one of its extremes does.
        ends = np.stack([dig.min(axis=(0, 2)), dig.max(axis=(0, 2))], axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite((ends - dig_min) * gain + phys_min).all(axis=1)
        if not finite.all():
            raise _non_finite(labels, int(finite.argmin()))

    def read(index: list[int]) -> np.ndarray:
        # The integer difference is exact in float64, so each row is built
        # in place.
        data = np.empty((len(index), num_records * spr[0]))
        for i, row in zip(index, data):
            np.subtract(dig[:, i], dig_min[i], out=row.reshape(num_records, spr[0]))
            row *= gain[i]
            row += phys_min[i]
        return data

    return Recording(labels, rate, num_records * spr[0], read)


# ---------------------------------------------------------------------------
# Resampling: windowed-sinc (Kaiser beta=8, 64 taps per polyphase branch).

_KAISER_BETA = 8.0
_TAPS_PER_PHASE = 64
# A resampling ratio is a fraction whose denominator is at most MAX_RATIO,
# and load_recording refuses a ratio above MAX_RATIO.
MAX_RATIO = 1000


def resample_ratio(rate_hz: float, target_hz: float) -> Fraction:
    """The up/down ratio `resample` runs at: target_hz / rate_hz to the
    nearest fraction whose denominator is at most MAX_RATIO, which is 0 for
    a ratio below about 1 / (2 MAX_RATIO)."""
    return Fraction(target_hz / rate_hz).limit_denominator(MAX_RATIO)


def resampled_length(num_samples: int, rate_hz: float, target_hz: float) -> int:
    """The samples that `resample` returns for `num_samples` at `rate_hz`."""
    return int(round(num_samples * target_hz / rate_hz))


@functools.lru_cache(maxsize=8)
def _resample_filter(up: int, down: int) -> np.ndarray:
    """The windowed-sinc filter of an up/down resampling: 64 taps per
    polyphase branch, cut off at the tighter of the two Nyquists. Built
    once per ratio, however many blocks of channels are resampled."""
    from scipy.signal import firwin  # slow to import; 250 Hz input never resamples
    max_rate = max(up, down)
    h = firwin(_TAPS_PER_PHASE * max_rate + 1, 1.0 / max_rate,
               window=("kaiser", _KAISER_BETA))
    h.flags.writeable = False
    return h


def resample(data: np.ndarray, rate_hz: float, target_hz: float) -> np.ndarray:
    """The (channels, samples) rows `data` at `rate_hz`, resampled to
    `target_hz`. Every row is resampled on its own, so a block of rows gives
    the same bits as those rows of the whole recording."""
    if target_hz <= 0:
        raise DataError("target_hz must be positive")
    if target_hz == rate_hz:
        return data
    ratio = resample_ratio(rate_hz, target_hz)
    up, down = ratio.numerator, ratio.denominator
    new_len = resampled_length(data.shape[1], rate_hz, target_hz)
    from scipy.signal import resample_poly
    # resample_poly scales a user-supplied filter by `up` itself.
    y = resample_poly(data, up, down, axis=-1, window=_resample_filter(up, down))
    if y.shape[1] < new_len:
        y = np.pad(y, ((0, 0), (0, new_len - y.shape[1])))
    return y[:, :new_len]


# ---------------------------------------------------------------------------
# Montage

def montage_inputs(labels: tuple[str, ...], spec: MontageSpec) -> dict[str, int]:
    """The row of each channel label; DataError if `spec` reads a label that
    is not there."""
    row = {label: i for i, label in enumerate(labels)}
    for _, *inputs in spec.derivations:
        for name in inputs:
            if name is not None and name not in row:
                raise DataError(f"montage input {name!r} not found in recording")
    return row


def apply_montage(data: np.ndarray, labels: tuple[str, ...],
                  spec: MontageSpec) -> np.ndarray:
    """The rows of `spec`'s outputs, from the rows `data` that carry
    `labels`; each output row is computed from its own inputs alone."""
    row = montage_inputs(labels, spec)
    out = data[[row[pos] for _, pos, _ in spec.derivations]]
    diff = [i for i, (_, _, neg) in enumerate(spec.derivations)
            if neg is not None]
    out[diff] -= data[[row[spec.derivations[i][2]] for i in diff]]
    return out


def read_montage(path: str) -> MontageSpec:
    """Montage config CSV: output_label,positive_input[,negative_input]."""
    derivations = []
    with open(path, newline="") as f:
        for row in csv.reader(f):
            if not row or row[0].startswith("#"):
                continue
            if len(row) == 2:
                derivations.append((row[0].strip(), row[1].strip(), None))
            elif len(row) == 3:
                neg = row[2].strip() or None
                derivations.append((row[0].strip(), row[1].strip(), neg))
            else:
                raise DataError(f"malformed montage row: {row}")
    return MontageSpec(tuple(derivations))


# ---------------------------------------------------------------------------
# Annotation CSV: header "channel,start_s,stop_s,label"; channel is an
# integer index or "*" for all-channel events.

def write_annotations(ann: AnnotationSet, path: str) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["channel", "start_s", "stop_s", "label"])
        for ev in ann.events:
            ch = "*" if ev.channel == ALL_CHANNELS else str(ev.channel)
            w.writerow([ch, f"{ev.start_s:.4f}", f"{ev.stop_s:.4f}", ev.label.name])


def read_annotations(path: str) -> AnnotationSet:
    events = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != \
                ["channel", "start_s", "stop_s", "label"]:
            raise DataError(f"bad annotation header in {path}: {header}")
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != 4:
                    raise ValueError("expected 4 fields")
                ch = ALL_CHANNELS if row[0].strip() == "*" else int(row[0])
                events.append(Event(ch, float(row[1]), float(row[2]),
                                    parse_label(row[3])))
            except (ValueError, DataError) as exc:
                raise DataError(f"{path}: bad annotation row "
                                f"{reader.line_num} {row}: {exc}") from None
    return AnnotationSet(tuple(events))
