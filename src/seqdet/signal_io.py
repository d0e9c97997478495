"""Recording and annotation ingestion: raw-matrix and EDF-subset readers,
windowed-sinc resampling, montage derivation, annotation CSV round-trip.

EDF support is deliberately a strict read-only subset: plain header plus
16-bit little-endian signal records with a uniform record duration. Anything
outside that (annotation channels, variable rates across channels) raises
DataError rather than being guessed at.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DataError
from .labels import EventLabel, parse_label

ALL_CHANNELS = -1  # channel index meaning "event applies to every channel"


@dataclass(frozen=True)
class Recording:
    """A multichannel recording: one (channels, samples) float64 matrix in
    microvolts, with one label per row."""
    data: np.ndarray
    labels: tuple[str, ...]
    sample_rate_hz: float
    id: str = ""

    def __post_init__(self):
        if not 0 < self.sample_rate_hz < math.inf:
            raise DataError(f"sample_rate_hz must be positive and finite, "
                            f"got {self.sample_rate_hz}")
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise DataError(
                f"recording data must be a (channels, samples) matrix, "
                f"got {data.ndim}-D")
        if not len(data):
            raise DataError("recording must have at least one channel")
        if len(self.labels) != len(data):
            raise DataError(
                f"{len(self.labels)} channel labels for {len(data)} channels")
        finite = np.isfinite(data).all(axis=1)
        if not finite.all():
            raise DataError(f"channel {self.labels[np.argmin(finite)]!r}: "
                            f"non-finite samples rejected")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def num_samples(self) -> int:
        return self.data.shape[1]

    @property
    def duration_s(self) -> float:
        return self.num_samples / self.sample_rate_hz


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

    def __post_init__(self):
        if not (0 <= self.start_s < self.stop_s):
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
# raw_matrix format: text header line "channels=<n> rate_hz=<r> samples=<m>"
# followed by little-endian float32, channel-major.

_READ_BLOCK = 1 << 16  # float32 samples staged per read: 256 KB


def read_recording(path: str) -> Recording:
    """An EDF file if the name ends in .edf, a raw matrix otherwise."""
    if path.lower().endswith(".edf"):
        return read_edf(path)
    return _read_raw_matrix(path)


def _read_raw_matrix(path: str) -> Recording:
    """The header is checked against the file's size before anything is
    allocated; the float32 payload then goes through one small staging
    buffer straight into the float64 matrix."""
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
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size != expected:
            raise DataError(f"raw_matrix payload has {size} bytes, "
                            f"expected {expected}")
        data = np.empty((n, m))
        flat = data.reshape(-1)
        buf = np.empty(min(_READ_BLOCK, flat.size), dtype="<f4")
        for lo in range(0, flat.size, len(buf)):
            block = buf[:flat.size - lo]
            got = f.readinto(block)
            if got != block.nbytes:
                raise DataError(f"raw_matrix payload has {4 * lo + got} bytes, "
                                f"expected {expected}")
            flat[lo:lo + len(block)] = block
    return Recording(data, tuple(f"CH{i}" for i in range(n)),
                     rate, id=os.path.basename(path))


def write_recording(rec: Recording, path: str) -> None:
    header = (f"channels={len(rec.data)} rate_hz={rec.sample_rate_hz:g} "
              f"samples={rec.num_samples}\n")
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(rec.data.astype("<f4").tobytes())


# ---------------------------------------------------------------------------
# EDF subset reader

_EDF_HEADER = 256


def read_edf(path: str) -> Recording:
    """Read a plain EDF file: 16-bit little-endian integer records scaled to
    physical units by the per-signal calibration in the header."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _EDF_HEADER:
        raise DataError("EDF file shorter than fixed header")
    head = raw[:_EDF_HEADER]

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
    if len(raw) < header_bytes:
        raise DataError("EDF file truncated in signal headers")

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
    if len(raw) - header_bytes != 2 * num_records * ns * spr[0]:
        raise DataError(f"EDF payload has {len(raw) - header_bytes} bytes, "
                        f"expected {2 * num_records * ns * spr[0]}")
    payload = np.frombuffer(raw, dtype="<i2", offset=header_bytes)
    dscale = dig_max - dig_min
    if not dscale.all():
        flat = np.flatnonzero(dscale == 0)[0]
        raise DataError(f"signal {labels[flat]!r}: digital min == max")
    gain = (phys_max - phys_min) / dscale
    # Each record holds spr samples of every signal in turn. The integer
    # difference is exact in float64, so the matrix is built in place.
    dig = payload.reshape(num_records, ns, spr[0]).transpose(1, 0, 2)
    phys = np.empty((ns, num_records * spr[0]))
    np.subtract(dig, dig_min[..., None], out=phys.reshape(dig.shape))
    phys *= gain
    phys += phys_min
    return Recording(phys, tuple(labels), rate, id=os.path.basename(path))


# ---------------------------------------------------------------------------
# Resampling: windowed-sinc (Kaiser beta=8, 64 taps per polyphase branch).

_KAISER_BETA = 8.0
_TAPS_PER_PHASE = 64


def resample(rec: Recording, target_hz: float) -> Recording:
    if target_hz <= 0:
        raise DataError("target_hz must be positive")
    if target_hz == rec.sample_rate_hz:
        return rec
    ratio = Fraction(target_hz / rec.sample_rate_hz).limit_denominator(1000)
    up, down = ratio.numerator, ratio.denominator
    new_len = int(round(rec.num_samples * target_hz / rec.sample_rate_hz))
    max_rate = max(up, down)
    # imported here: it is slow to import, and 250 Hz input never resamples
    from scipy.signal import firwin, resample_poly
    # 64 taps per polyphase branch; cutoff at the tighter of the two Nyquists.
    numtaps = _TAPS_PER_PHASE * max_rate + 1
    h = firwin(numtaps, 1.0 / max_rate, window=("kaiser", _KAISER_BETA))
    # resample_poly scales a user-supplied filter by `up` itself.
    y = resample_poly(rec.data, up, down, axis=-1, window=h)
    if y.shape[1] < new_len:
        y = np.pad(y, ((0, 0), (0, new_len - y.shape[1])))
    return Recording(y[:, :new_len], rec.labels, float(target_hz), id=rec.id)


# ---------------------------------------------------------------------------
# Montage

def apply_montage(rec: Recording, spec: MontageSpec) -> Recording:
    row = {label: i for i, label in enumerate(rec.labels)}
    for _, *inputs in spec.derivations:
        for name in inputs:
            if name is not None and name not in row:
                raise DataError(f"montage input {name!r} not found in recording")
    data = rec.data[[row[pos] for _, pos, _ in spec.derivations]]
    diff = [i for i, (_, _, neg) in enumerate(spec.derivations)
            if neg is not None]
    data[diff] -= rec.data[[row[spec.derivations[i][2]] for i in diff]]
    return Recording(data, tuple(out for out, _, _ in spec.derivations),
                     rec.sample_rate_hz, id=rec.id)


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
