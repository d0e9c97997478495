"""Recording and annotation ingestion: raw-matrix and EDF-subset readers,
windowed-sinc resampling, montage derivation, annotation CSV round-trip.

EDF support is deliberately a strict read-only subset: plain header plus
16-bit little-endian signal records with a uniform record duration. Anything
outside that (annotation channels, variable rates across channels) raises
UnsupportedFeatureError rather than being guessed at.
"""
from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.signal import firwin, resample_poly

from .labels import EventLabel, parse_label

ALL_CHANNELS = -1  # channel index meaning "event applies to every channel"


class SignalIOError(Exception):
    pass


class UnsupportedFeatureError(SignalIOError):
    pass


@dataclass(frozen=True)
class ChannelSignal:
    label: str
    samples: np.ndarray  # 1-D float64, microvolts

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise SignalIOError(f"channel {self.label!r}: samples must be 1-D")
        if not np.all(np.isfinite(samples)):
            raise SignalIOError(f"channel {self.label!r}: non-finite samples rejected")
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class Recording:
    channels: tuple[ChannelSignal, ...]
    sample_rate_hz: float
    id: str = ""

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise SignalIOError("sample_rate_hz must be positive")
        if not self.channels:
            raise SignalIOError("recording must have at least one channel")
        lengths = {len(c.samples) for c in self.channels}
        if len(lengths) != 1:
            raise SignalIOError(f"inconsistent channel lengths: {sorted(lengths)}")
        object.__setattr__(self, "channels", tuple(self.channels))

    @property
    def num_samples(self) -> int:
        return len(self.channels[0].samples)

    @property
    def duration_s(self) -> float:
        return self.num_samples / self.sample_rate_hz

    @property
    def labels(self) -> list[str]:
        return [c.label for c in self.channels]

    def as_array(self) -> np.ndarray:
        """Channels x samples matrix view of the recording."""
        return np.stack([c.samples for c in self.channels])


@dataclass(frozen=True)
class MontageSpec:
    """List of output derivations (output_label, positive_input, negative_input
    or None for a plain copy)."""
    derivations: tuple[tuple[str, str, str | None], ...]

    def __post_init__(self):
        outs = [d[0] for d in self.derivations]
        if len(set(outs)) != len(outs):
            raise SignalIOError("montage output labels must be unique")
        object.__setattr__(self, "derivations", tuple(self.derivations))


@dataclass(frozen=True)
class Event:
    channel: int  # channel index, or ALL_CHANNELS
    start_s: float
    stop_s: float
    label: EventLabel

    def __post_init__(self):
        if not (0 <= self.start_s < self.stop_s):
            raise SignalIOError(
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
                    raise SignalIOError(
                        f"conflicting overlap on channel {ch}: "
                        f"{a.label.name} [{a.start_s},{a.stop_s}) vs "
                        f"{b.label.name} [{b.start_s},{b.stop_s})")


# ---------------------------------------------------------------------------
# raw_matrix format: text header line "channels=<n> rate_hz=<r> samples=<m>"
# followed by little-endian float32, channel-major.

def read_recording(path: str, format: str = "raw_matrix") -> Recording:
    if format == "raw_matrix":
        return _read_raw_matrix(path)
    if format == "edf_subset":
        return read_edf(path)
    raise SignalIOError(f"unknown recording format: {format!r}")


def _read_raw_matrix(path: str) -> Recording:
    with open(path, "rb") as f:
        header = f.readline().decode("ascii", errors="replace").strip()
        fields = {}
        for tok in header.split():
            if "=" not in tok:
                raise SignalIOError(f"malformed raw_matrix header: {header!r}")
            k, v = tok.split("=", 1)
            fields[k] = v
        try:
            n = int(fields["channels"])
            rate = float(fields["rate_hz"])
            m = int(fields["samples"])
        except (KeyError, ValueError):
            raise SignalIOError(f"malformed raw_matrix header: {header!r}") from None
        data = np.frombuffer(f.read(), dtype="<f4")
    if data.size != n * m:
        raise SignalIOError(
            f"raw_matrix payload has {data.size} samples, expected {n * m}")
    mat = data.reshape(n, m).astype(np.float64)
    channels = [ChannelSignal(f"CH{i}", mat[i]) for i in range(n)]
    return Recording(tuple(channels), rate, id=os.path.basename(path))


def write_recording(rec: Recording, path: str) -> None:
    header = (f"channels={len(rec.channels)} rate_hz={rec.sample_rate_hz:g} "
              f"samples={rec.num_samples}\n")
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(rec.as_array().astype("<f4").tobytes())


# ---------------------------------------------------------------------------
# EDF subset reader

_EDF_HEADER = 256


def read_edf(path: str) -> Recording:
    """Read a plain EDF file: 16-bit little-endian integer records scaled to
    physical units by the per-signal calibration in the header."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _EDF_HEADER:
        raise SignalIOError("EDF file shorter than fixed header")
    head = raw[:_EDF_HEADER]

    def _field(buf, off, n):
        return buf[off:off + n].decode("ascii", errors="replace").strip()

    version = _field(head, 0, 8)
    if version != "0":
        raise SignalIOError(f"unsupported EDF version field: {version!r}")
    try:
        header_bytes = int(_field(head, 184, 8))
        num_records = int(_field(head, 236, 8))
        record_dur = float(_field(head, 244, 8))
        ns = int(_field(head, 252, 4))
    except ValueError:
        raise SignalIOError("malformed EDF fixed header") from None
    if ns <= 0 or num_records < 0 or record_dur <= 0:
        raise SignalIOError("malformed EDF fixed header")
    if header_bytes != _EDF_HEADER + 256 * ns:
        raise SignalIOError("EDF header size inconsistent with signal count")
    if len(raw) < header_bytes:
        raise SignalIOError("EDF file truncated in signal headers")

    sig = raw[_EDF_HEADER:header_bytes]

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

    labels = _column(0)
    try:
        phys_min = [float(v) for v in _column(3)]
        phys_max = [float(v) for v in _column(4)]
        dig_min = [int(v) for v in _column(5)]
        dig_max = [int(v) for v in _column(6)]
        spr = [int(v) for v in _column(8)]
    except ValueError:
        raise SignalIOError("malformed EDF signal header") from None

    for lab in labels:
        if "EDF Annotations" in lab:
            raise UnsupportedFeatureError(
                "annotations-in-signal EDF channels are not supported")
    if len(set(spr)) != 1:
        raise UnsupportedFeatureError(
            "per-channel sample rates differ; uniform rates required")
    if any(n <= 0 for n in spr):
        raise SignalIOError("non-positive samples-per-record")

    rate = spr[0] / record_dur
    rec_len = sum(spr)
    payload = np.frombuffer(raw, dtype="<i2", offset=header_bytes)
    if payload.size != num_records * rec_len:
        raise SignalIOError(
            f"EDF payload has {payload.size} values, expected {num_records * rec_len}")
    records = payload.reshape(num_records, rec_len)

    channels = []
    start = 0
    for i in range(ns):
        dig = records[:, start:start + spr[i]].reshape(-1).astype(np.float64)
        start += spr[i]
        dscale = dig_max[i] - dig_min[i]
        if dscale == 0:
            raise SignalIOError(f"signal {labels[i]!r}: digital min == max")
        gain = (phys_max[i] - phys_min[i]) / dscale
        phys = (dig - dig_min[i]) * gain + phys_min[i]
        channels.append(ChannelSignal(labels[i], phys))
    return Recording(tuple(channels), rate, id=os.path.basename(path))


# ---------------------------------------------------------------------------
# Resampling: windowed-sinc (Kaiser beta=8, 64 taps per polyphase branch).

_KAISER_BETA = 8.0
_TAPS_PER_PHASE = 64


def _resample_channel(x: np.ndarray, up: int, down: int) -> np.ndarray:
    max_rate = max(up, down)
    # 64 taps per polyphase branch; cutoff at the tighter of the two Nyquists.
    numtaps = _TAPS_PER_PHASE * max_rate + 1
    h = firwin(numtaps, 1.0 / max_rate, window=("kaiser", _KAISER_BETA))
    # resample_poly scales a user-supplied filter by `up` itself.
    return resample_poly(x, up, down, window=h)


def resample(rec: Recording, target_hz: float) -> Recording:
    if target_hz <= 0:
        raise SignalIOError("target_hz must be positive")
    if target_hz == rec.sample_rate_hz:
        return rec
    ratio = Fraction(target_hz / rec.sample_rate_hz).limit_denominator(1000)
    up, down = ratio.numerator, ratio.denominator
    new_len = int(round(rec.num_samples * target_hz / rec.sample_rate_hz))
    channels = []
    for ch in rec.channels:
        y = _resample_channel(ch.samples, up, down)
        if len(y) < new_len:
            y = np.pad(y, (0, new_len - len(y)))
        channels.append(ChannelSignal(ch.label, y[:new_len]))
    return Recording(tuple(channels), float(target_hz), id=rec.id)


# ---------------------------------------------------------------------------
# Montage

def apply_montage(rec: Recording, spec: MontageSpec) -> Recording:
    by_label = {c.label: c.samples for c in rec.channels}
    channels = []
    for out, pos, neg in spec.derivations:
        if pos not in by_label:
            raise SignalIOError(f"montage input {pos!r} not found in recording")
        if neg is None:
            samples = by_label[pos].copy()
        else:
            if neg not in by_label:
                raise SignalIOError(f"montage input {neg!r} not found in recording")
            samples = by_label[pos] - by_label[neg]
        channels.append(ChannelSignal(out, samples))
    return Recording(tuple(channels), rec.sample_rate_hz, id=rec.id)


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
                raise SignalIOError(f"malformed montage row: {row}")
    return MontageSpec(tuple(derivations))


def default_montage() -> MontageSpec:
    """The conventional 22-channel TCP montage. This is a configuration
    convention shipped with the package, not a normative list."""
    path = os.path.join(os.path.dirname(__file__), "data", "tcp_montage.csv")
    return read_montage(path)


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
            raise SignalIOError(f"bad annotation header in {path}: {header}")
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != 4:
                    raise ValueError("expected 4 fields")
                ch = ALL_CHANNELS if row[0].strip() == "*" else int(row[0])
                events.append(Event(ch, float(row[1]), float(row[2]),
                                    parse_label(row[3])))
            except (ValueError, SignalIOError) as exc:
                raise SignalIOError(f"{path}: bad annotation row "
                                    f"{reader.line_num} {row}: {exc}") from None
    return AnnotationSet(tuple(events))
