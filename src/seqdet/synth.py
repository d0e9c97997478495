"""Synthetic labeled recordings with known class-conditional signal models.

These generators exist to verify the pipeline end to end against exact ground
truth. The six classes are deliberately much easier to separate than clinical
EEG events; do not read detection scores on this material as clinical claims.
How far apart the classes lie depends on the generators' constants and the
seed, not on the script, so tests/test_synth.py checks it for the seeds that
the tests and perfbench generate with; generate does not check it.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .labels import EventLabel, parse_label
from .signal_io import (ALL_CHANNELS, CHANNELS, RATE_HZ, AnnotationSet, Event,
                        Recording)


@dataclass(frozen=True)
class ScriptEntry:
    label: EventLabel
    duration_s: float
    channels: tuple[int, ...] | None  # None = all channels

    def __post_init__(self):
        if not 0 < self.duration_s < math.inf or \
                abs(self.duration_s - round(self.duration_s)) > 1e-9:
            raise DataError(f"duration must be a positive whole number of "
                            f"seconds, got {self.duration_s}")
        if self.channels is not None:
            if not self.channels:
                raise DataError("empty channel subset")
            if any(c < 0 or c >= CHANNELS for c in self.channels):
                raise DataError(f"channel subset out of range: {self.channels}")


def _wavelet(width_s: float, carrier_hz: float, n: int, center: int) -> np.ndarray:
    """Gaussian-windowed oscillation: a sharp biphasic-looking transient whose
    energy is concentrated around the carrier frequency."""
    t = (np.arange(n) - center) / RATE_HZ
    return np.exp(-0.5 * (t / (width_s / 4.0)) ** 2) * np.sin(2 * np.pi * carrier_hz * t)


def _lowpass_noise(n: int, cutoff_hz: float, rng: np.random.Generator) -> np.ndarray:
    spec = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, d=1.0 / RATE_HZ)
    spec[freqs > cutoff_hz] = 0.0
    x = np.fft.irfft(spec, n=n)
    std = x.std()
    return x / std if std > 0 else x


def _background(n: int, rng: np.random.Generator) -> np.ndarray:
    return 10.0 * _lowpass_noise(n, 8.0, rng)


def _pulse_train(n: int, rate_hz: float, width_s: float, carrier_hz: float,
                 amplitude: float, rng: np.random.Generator) -> np.ndarray:
    out = np.zeros(n)
    period = int(RATE_HZ / rate_hz)
    phase = int(rng.integers(period))
    for center in range(phase, n, period):
        out += amplitude * _wavelet(width_s, carrier_hz, n, center)
    return out


def _class_signal(label: EventLabel, n: int, rng: np.random.Generator) -> np.ndarray:
    base = _background(n, rng)
    if label == EventLabel.BCKG:
        return base
    if label == EventLabel.SPSW:
        # Sparse biphasic transients, ~0.2 s each, high-frequency content.
        out = base.copy()
        for _ in range(max(1, int(n / RATE_HZ * 2))):
            center = int(rng.integers(n))
            out += 70.0 * _wavelet(0.2, 45.0, n, center)
        return out
    if label == EventLabel.PLED:
        # Periodic sharp transients ~1 Hz, long pulses, mid-band carrier.
        return base + _pulse_train(n, 1.0, 0.4, 12.0, 60.0, rng)
    if label == EventLabel.GPED:
        # Periodic short-interval discharges ~3 Hz, shorter pulses, higher band.
        return base + _pulse_train(n, 3.0, 0.2, 25.0, 60.0, rng)
    if label == EventLabel.EYEM:
        # Slow high-amplitude pulses (< 1 Hz).
        t = np.arange(n) / RATE_HZ
        return base + 150.0 * np.sin(2 * np.pi * 0.7 * t + rng.uniform(0, 2 * np.pi))
    if label == EventLabel.ARTF:
        # Broadband bursts.
        out = base.copy()
        burst = int(0.5 * RATE_HZ)
        for start in range(0, n - burst, int(1.0 * RATE_HZ)):
            out[start:start + burst] += 40.0 * rng.standard_normal(burst)
        return out
    raise DataError(f"no generator for {label}")


def generate(script: list[ScriptEntry],
             seed: int = 0) -> tuple[Recording, AnnotationSet]:
    """Deterministic synthesis of a 22-channel, 250 Hz recording whose
    annotations exactly match the generated segments. A seed names exactly
    one recording."""
    if not script:
        raise DataError("empty script")
    rng = np.random.default_rng(seed)
    total_s = sum(e.duration_s for e in script)
    try:
        data = np.zeros((CHANNELS, int(round(total_s * RATE_HZ))))
    except (OverflowError, ValueError, MemoryError) as exc:
        raise DataError(f"cannot hold a recording of {total_s:.4g} s: "
                        f"{exc}") from None
    events = []
    t0 = 0.0
    for entry in script:
        n = int(round(entry.duration_s * RATE_HZ))
        lo = int(round(t0 * RATE_HZ))
        subset = (tuple(range(CHANNELS)) if entry.channels is None
                  else entry.channels)
        for ch in range(CHANNELS):
            if ch in subset:
                data[ch, lo:lo + n] = _class_signal(entry.label, n, rng)
            else:
                data[ch, lo:lo + n] = _background(n, rng)
        if entry.channels is None:
            events.append(Event(ALL_CHANNELS, t0, t0 + entry.duration_s, entry.label))
        else:
            for ch in subset:
                events.append(Event(ch, t0, t0 + entry.duration_s, entry.label))
        t0 += entry.duration_s
    rec = Recording.of(data, tuple(f"CH{i:02d}" for i in range(CHANNELS)), RATE_HZ)
    return rec, AnnotationSet(tuple(events))


# ---------------------------------------------------------------------------
# Script files: CSV "label,duration_s,channels" with channels "*", "a-b",
# or semicolon-separated indices.

def _parse_channels(text: str) -> tuple[int, ...] | None:
    text = text.strip()
    if text in ("*", ""):
        return None
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        if not 0 <= lo <= hi < CHANNELS:
            raise DataError(f"channel range {text} outside 0-{CHANNELS - 1}")
        return tuple(range(lo, hi + 1))
    return tuple(int(v) for v in text.split(";"))


def read_script(path: str) -> list[ScriptEntry]:
    entries = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != \
                ["label", "duration_s", "channels"]:
            raise DataError(f"bad script header in {path}: {header}")
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != 3:
                    raise ValueError("expected 3 fields")
                entries.append(ScriptEntry(parse_label(row[0]), float(row[1]),
                                           _parse_channels(row[2])))
            except (ValueError, DataError) as exc:
                raise DataError(f"{path}: bad script row {reader.line_num} "
                                f"{row}: {exc}") from None
    return entries


# Channel spread used by the focal scenario: SPSW and EYEM are localized,
# PLEDs lateralized over one half, GPEDs generalized. Channel-majority voting
# on pass-1 output misses the localized classes by construction, which is
# exactly what the spatial postprocessing passes are supposed to recover.
FOCAL_PROFILE: dict[EventLabel, tuple[int, ...] | None] = {
    EventLabel.SPSW: tuple(range(6)),
    EventLabel.PLED: tuple(range(10)),
    EventLabel.GPED: None,
    EventLabel.EYEM: tuple(range(4)),
    EventLabel.ARTF: tuple(range(4, 12)),
    EventLabel.BCKG: None,
}


def balanced_script(seconds_per_segment: int, segments_per_class: int,
                    seed: int = 0,
                    channel_profile: dict[EventLabel, tuple[int, ...] | None]
                    | None = None) -> list[ScriptEntry]:
    """A shuffled script with equal time per class; events cover all channels
    unless a channel profile narrows them per class."""
    rng = np.random.default_rng(seed)
    profile = channel_profile or {}
    entries = [ScriptEntry(lab, float(seconds_per_segment), profile.get(lab))
               for lab in EventLabel for _ in range(segments_per_class)]
    order = rng.permutation(len(entries))
    return [entries[i] for i in order]
