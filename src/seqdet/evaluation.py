"""Scoring: 6/4/2-way confusion matrices, sensitivity / false-alarm summary,
detection-error-tradeoff curves, and the reference labels they score
against, by one rule for epochs and for (epoch, channel) cells.

Terminology note: this codebase reports the rate P(hyp = TARG | ref = BCKG)
as `false_alarm` and the complementary P(hyp = BCKG | ref = BCKG) as
`specificity`. Some sources print the false-alarm rate under the name
"specificity"; both numbers are emitted under unambiguous names here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .labels import (EPOCH_PRIORITY, MODE_LABELS, NUM_CLASSES, TARG, EventLabel,
                     collapse)
from .signal_io import ALL_CHANNELS


# How far outside [0, 1] a DET score may lie: posteriors summed after the
# 10-significant-digit CSV round trip can exceed 1 by a few 1e-11.
SCORE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray     # (K', K') ref x hyp
    labels: tuple[str, ...]
    mode: str
    basis: str             # per_channel_event | per_epoch

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.float64)
        if np.any(c < 0):
            raise DataError("confusion counts must be non-negative")
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def total(self) -> float:
        return float(self.counts.sum())

    def percentages(self) -> np.ndarray:
        """Row-normalized percentages; rows with no reference items are NaN."""
        sums = self.counts.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            return 100.0 * self.counts / sums

    def format_text(self) -> str:
        pct = self.percentages()
        width = max(len(s) for s in self.labels) + 2
        lines = ["".join([f"{'':{width}}"] + [f"{s:>{width}}" for s in self.labels])]
        for i, name in enumerate(self.labels):
            cells = ["  n/a".rjust(width) if np.isnan(v) else f"{v:>{width}.2f}"
                     for v in pct[i]]
            lines.append(f"{name:{width}}" + "".join(cells))
        return "\n".join(lines)


def confusion(ref, hyp, mode: str = "six_way",
              basis: str = "per_epoch") -> ConfusionMatrix:
    """Count (ref, hyp) label pairs after collapsing to the scoring mode."""
    ref = np.asarray(ref, dtype=np.intp)
    hyp = np.asarray(hyp, dtype=np.intp)
    if len(ref) != len(hyp):
        raise DataError(f"length mismatch: {len(ref)} refs vs {len(hyp)} hyps")
    if not np.all((ref >= 0) & (ref < NUM_CLASSES) & (hyp >= 0) & (hyp < NUM_CLASSES)):
        raise DataError(f"labels outside [0, {NUM_CLASSES})")
    labels = MODE_LABELS[mode]
    # Six-class code -> index of its collapsed label in this mode.
    index = np.array([labels.index(collapse(lab, mode)) for lab in EventLabel])
    k = len(labels)
    counts = np.bincount(index[ref] * k + index[hyp], minlength=k * k)
    return ConfusionMatrix(counts.reshape(k, k), tuple(labels), mode, basis)


@dataclass(frozen=True)
class TwoWaySummary:
    sensitivity: float | None   # % of ref TARG called TARG
    false_alarm: float | None   # % of ref BCKG called TARG
    specificity: float | None   # % of ref BCKG called BCKG (1 - false alarm)

    def format_text(self) -> str:
        """The summary line of a score report; an empty class is "missing"."""
        def fmt(v):
            return "missing" if v is None else f"{v:.2f}"
        return (f"sensitivity={fmt(self.sensitivity)} "
                f"false_alarm={fmt(self.false_alarm)} "
                f"specificity={fmt(self.specificity)}")


def sens_spec(matrix: ConfusionMatrix) -> TwoWaySummary:
    """Sensitivity and false-alarm percentages from a two-way matrix. Empty
    reference classes report None rather than 0."""
    if matrix.mode != "two_way":
        raise DataError("sens_spec requires a two_way confusion matrix")
    it, ib = matrix.labels.index(TARG), matrix.labels.index("BCKG")
    targ_total = matrix.counts[it].sum()
    bckg_total = matrix.counts[ib].sum()
    sens = 100.0 * matrix.counts[it, it] / targ_total if targ_total > 0 else None
    fa = 100.0 * matrix.counts[ib, it] / bckg_total if bckg_total > 0 else None
    spec = 100.0 - fa if fa is not None else None
    return TwoWaySummary(sens, fa, spec)


@dataclass(frozen=True)
class DetCurve:
    points: tuple[tuple[float, float, float], ...]  # (offset, false_alarm, miss)

    def zero_penalty_point(self) -> tuple[float, float]:
        for off, fa, miss in self.points:
            if off == 0.0:
                return fa, miss
        raise DataError("curve is missing the zero-offset operating point")


def det_curve(scores, refs, offsets) -> DetCurve:
    """Sweep a score offset ("penalty") over per-item TARG posteriors:
    at each offset an item is called TARG iff score + offset > 0.5.
    Rates are fractions in [0, 1]; the zero offset is always included."""
    scores = np.asarray(scores, dtype=np.float64)
    refs = np.asarray([collapse(EventLabel(int(r)), "two_way") == TARG
                       for r in refs])
    # Scores within the tolerance are used as they are, not clipped.
    if not np.all((scores >= -SCORE_TOLERANCE) & (scores <= 1 + SCORE_TOLERANCE)):
        raise DataError("scores must lie in [0, 1]")
    offs = sorted(set(float(o) for o in offsets) | {0.0})
    n_targ = int(refs.sum())
    n_bckg = len(refs) - n_targ
    points = []
    for off in offs:
        hyp_targ = scores + off > 0.5
        miss = float(np.sum(refs & ~hyp_targ)) / n_targ if n_targ else 0.0
        fa = float(np.sum(~refs & hyp_targ)) / n_bckg if n_bckg else 0.0
        points.append((off, fa, miss))
    return DetCurve(tuple(points))


# ---------------------------------------------------------------------------
# Reference labels from annotations

def _reference_labels(ann, shape: tuple[int, ...]) -> np.ndarray:
    """(epochs,) or (epochs, channels) reference labels. An event covers
    epochs floor(start_s) .. ceil(stop_s) - 1, on a grid its channel's cells
    (every channel's for ALL_CHANNELS). Events are written from the last
    class of EPOCH_PRIORITY to the first, so where they overlap the first
    class wins, whatever their order in `ann`; uncovered cells are BCKG. An
    epoch count whose labels cannot be allocated is a DataError."""
    rank = {lab: i for i, lab in enumerate(EPOCH_PRIORITY)}
    try:
        out = np.full(shape, int(EventLabel.BCKG), dtype=np.intp)
    except (ValueError, MemoryError) as exc:
        raise DataError(f"cannot hold the labels of {shape[0]:.4g} epochs: "
                        f"{exc}") from None
    for ev in sorted(ann.events, key=lambda ev: -rank[ev.label]):
        cells = out[max(0, int(np.floor(ev.start_s))):
                    min(shape[0], int(np.ceil(ev.stop_s)))]
        if out.ndim == 2 and ev.channel != ALL_CHANNELS:
            if not 0 <= ev.channel < shape[1]:
                raise DataError(f"event channel {ev.channel} out of range")
            cells = cells[:, ev.channel]
        cells[...] = int(ev.label)
    return out


def epoch_reference_labels(ann, num_epochs: int) -> np.ndarray:
    """Per-epoch composite reference label: every event overlapping an epoch
    competes, whatever its channel, and the class first in EPOCH_PRIORITY
    wins (rare target classes first); uncovered epochs are BCKG."""
    return _reference_labels(ann, (num_epochs,))


def channel_epoch_reference_labels(ann, num_epochs: int,
                                   num_channels: int) -> np.ndarray:
    """(epochs, channels) reference labels by the same rule, cell by cell:
    all-channel events apply to every channel, and an event channel outside
    the grid is a DataError."""
    return _reference_labels(ann, (num_epochs, num_channels))
