"""Train / decode / score orchestration across the three passes, with an INI
config, versioned model bundles, and reproducible seeding.

Every recording is opened through load_recording, which runs every check
of the file and returns a signal_io.Recording at RATE_HZ with CHANNELS
channels. Training reads each recording whole; decode reads, featurizes and
scores it a frontend group of channels at a time, and splits the groups, then
pass 2's SdA blocks, across the CPUs of the process (`parallel`).

Everything downstream of the config is deterministic: the manifest records
the config hash, the seed, and checksums of the training data, and two runs
with identical inputs produce byte-identical bundles and hypothesis files.
"""
from __future__ import annotations

import configparser
import functools
import hashlib
import json
import os
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import evaluation, grammar, hmm, parallel, sda, signal_io
from .bundle import Bundle
from .errors import DataError
from .features import (FRAMES_PER_EPOCH, FeatureGrid, _group, extract_features,
                       num_frames)
from .labels import (EPOCH_PRIORITY, LABEL_NAMES, NUM_CLASSES, TARGET_CLASSES,
                     EventLabel)
from .signal_io import ALL_CHANNELS, CHANNELS, RATE_HZ, AnnotationSet, Event


@dataclass(frozen=True)
class PipelineConfig:
    hmm: hmm.HmmConfig = field(default_factory=hmm.HmmConfig,
                               metadata={"section": "hmm"})
    sda_spsw: sda.SdaConfig = field(default=sda.SPSW_SDA_CONFIG,
                                    metadata={"section": "sda.spsw"})
    sda_eyem: sda.SdaConfig = field(default=sda.EYEM_SDA_CONFIG,
                                    metadata={"section": "sda.eyem"})
    sda_sixway: sda.SdaConfig = field(default=sda.SIXWAY_SDA_CONFIG,
                                      metadata={"section": "sda.6way"})
    grammar: grammar.GrammarParams = field(default_factory=grammar.GrammarParams,
                                           metadata={"section": "grammar"})
    montage_path: str | None = None
    bigram_source: str = "table1"  # table1 | estimate
    seed: int = 0
    augment_cap: int = 2000
    pca_detector_dim: int = 13
    pca_sixway_dim: int = 20

    def __post_init__(self):  # facts that span sections, named by section
        if self.bigram_source not in ("table1", "estimate"):
            raise DataError(f"config [pipeline] bigram_source must be "
                            f"table1|estimate, got {self.bigram_source!r}")
        if self.seed < 0:
            raise DataError(f"config [pipeline] seed = {self.seed} must be at least 0")
        for key in ("pca_detector_dim", "pca_sixway_dim"):
            if not 1 <= getattr(self, key) <= sda.SUPERVECTOR_DIM:
                raise DataError(f"config [pipeline] {key} = {getattr(self, key)} "
                                f"outside [1, {sda.SUPERVECTOR_DIM}]")
        for key, want in (("sda_spsw", 2), ("sda_eyem", 2), ("sda_sixway", NUM_CLASSES)):
            if (got := getattr(self, key).outputs) != want:
                section = self.__dataclass_fields__[key].metadata["section"]
                raise DataError(f"config [{section}] outputs = {got}, expected {want}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data) -> "PipelineConfig":
        """The inverse of to_dict: every omitted key keeps its built-in
        default, and every value is cast to its field's declared type, so
        INI strings and JSON values are both accepted."""
        return _config_from(cls(), data, "pipeline")

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _config_from(base, data, section: str):
    """`base` with the fields named in `data` replaced."""
    if not isinstance(data, dict):
        raise DataError(f"config [{section}] must be a table, got {data!r}")
    known = {f.name: f for f in fields(base)}
    hints = _field_types(type(base))
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise DataError(f"unknown config key [{section}] {key}")
        if is_dataclass(hints[key]):
            kwargs[key] = _config_from(getattr(base, key), value,
                                       known[key].metadata["section"])
            continue
        try:
            kwargs[key] = _cast(hints[key], value)
        except (TypeError, ValueError):
            raise DataError(f"bad config value [{section}] {key} = {value!r}") from None
    try:
        return replace(base, **kwargs)
    except DataError as exc:
        if isinstance(base, PipelineConfig):  # its checks name their sections
            raise
        raise DataError(f"config [{section}] {exc}") from None


@functools.cache
def _field_types(cls) -> types.MappingProxyType:
    """The resolved field types of a config dataclass, read-only. One of the
    five config classes per entry; resolving them costs more than the rest
    of a parse."""
    return types.MappingProxyType(typing.get_type_hints(cls))


def _cast(tp, value):
    """An INI string or a JSON value as type `tp`; a tuple may also come
    from a comma-separated string, and "" is None for an optional field."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        items = value.split(",") if isinstance(value, str) else value
        if not isinstance(items, (list, tuple)):
            raise TypeError(tp)
        return tuple(_cast(args[0], v) for v in items)
    if type(None) in args:
        if value is None or value == "":
            return None
        (tp,) = [a for a in args if a is not type(None)]
    if isinstance(value, str):
        return tp(value)
    allowed = (int, float) if tp is float else tp
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise TypeError(tp)
    return tp(value)


def load_config(path: str) -> PipelineConfig:
    """INI config: [pipeline] holds PipelineConfig's own fields, and each
    nested config has the section named in its field metadata."""
    nested = {f.metadata["section"]: f.name
              for f in fields(PipelineConfig) if "section" in f.metadata}
    parser = configparser.ConfigParser()
    data = {}
    try:
        if not parser.read(path):
            raise DataError(f"cannot read config {path}")
        for section in parser.sections():
            values = dict(parser[section])
            if section == "pipeline":
                data.update(values)
            elif section in nested:
                data[nested[section]] = values
            else:
                raise DataError(f"unknown config section [{section}]")
    except configparser.Error as exc:
        raise DataError(" ".join(f"{path}: {exc}".split())) from None
    return PipelineConfig.from_dict(data)


# ---------------------------------------------------------------------------
# Ingestion

def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_recording(path: str,
                   montage: signal_io.MontageSpec | None) -> signal_io.Recording:
    """The recording at `path`, resampled to RATE_HZ and through `montage`.
    Every check of the file, the montage and the channel count runs here;
    each block of rows is then read, resampled and derived when it is asked
    for, from only the input channels that it needs."""
    source = signal_io.open_recording(path)
    rate, samples = source.sample_rate_hz, source.num_samples
    resampled = abs(rate - RATE_HZ) > 1e-9
    if resampled:
        ratio = signal_io.resample_ratio(rate, RATE_HZ)
        if not 0 < ratio <= signal_io.MAX_RATIO:
            raise DataError(f"{path}: cannot resample {rate:g} Hz to "
                            f"{RATE_HZ:g} Hz (ratio {ratio})")
        samples = signal_io.resampled_length(samples, rate, RATE_HZ)
    labels = source.labels
    if montage is not None:
        inputs = signal_io.montage_inputs(labels, montage)
        labels = tuple(out for out, _, _ in montage.derivations)
    if len(labels) != CHANNELS:
        raise DataError(f"{path}: expected {CHANNELS} channels after the "
                        f"montage, got {len(labels)}")

    def read(index: list[int]) -> np.ndarray:
        if montage is not None:
            derivations = signal_io.MontageSpec(
                tuple(montage.derivations[i] for i in index))
            index = sorted({inputs[name] for _, *names in derivations.derivations
                            for name in names if name is not None})
        data = source.read(index)
        if resampled:
            data = signal_io.resample(data, rate, RATE_HZ)
        if montage is not None:
            data = signal_io.apply_montage(
                data, tuple(source.labels[i] for i in index), derivations)
        return data

    return signal_io.Recording(labels, RATE_HZ if resampled else rate, samples, read)


def _manifest_montage(manifest: dict) -> signal_io.MontageSpec | None:
    """The montage train_pipeline embedded in the manifest."""
    derivations = manifest.get("montage")
    if derivations is None:
        return None
    try:
        return signal_io.MontageSpec(
            tuple((out, pos, neg) for out, pos, neg in derivations))
    except (TypeError, ValueError):
        raise DataError(f"bad montage in bundle manifest: {derivations!r}") from None


# ---------------------------------------------------------------------------
# Training

def train_pipeline(config: PipelineConfig,
                   pairs: list[tuple[str, str]]) -> Bundle:
    """Full training: pass-1 HMMs, pass-1 decode of the training data, PCA and
    SdA fitting on those outputs, and the bigram table."""
    montage = (signal_io.read_montage(config.montage_path)
               if config.montage_path else None)
    grids, anns = [], []
    for rec_path, ann_path in pairs:
        rec = load_recording(rec_path, montage)
        grids.append(extract_features(rec.rows(0, len(rec.labels)), rec.labels))
        anns.append(signal_io.read_annotations(ann_path))

    models = hmm.train(_pass1_corpus(grids, anns), config.hmm)

    pass1 = [hmm.decode_pass1(grid, models) for grid in grids]
    epoch_refs = [evaluation.epoch_reference_labels(ann, grid.num_epochs)
                  for ann, grid in zip(anns, grids)]

    second = _train_second_pass(config, pass1, epoch_refs)

    if config.bigram_source == "estimate":
        table = grammar.estimate_bigram(epoch_refs)
    else:
        table = grammar.TABLE1_BIGRAM

    manifest = {
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "data": {os.path.basename(p): _sha256(p)
                 for pair in pairs for p in pair},
        # Embedded so decoding does not need the montage file.
        "montage": ([list(d) for d in montage.derivations]
                    if montage else None),
        # Per-epoch reference labels use this tie-break priority.
        "epoch_label_priority": [lab.name for lab in EPOCH_PRIORITY],
    }
    return Bundle(models, second, table, manifest)


def _pass1_corpus(grids: list[FeatureGrid],
                  anns: list[AnnotationSet]) -> dict[EventLabel, np.ndarray]:
    """Per-(epoch, channel) observation blocks grouped by reference label. A
    class with no epochs gets an empty block, or none without any grids;
    hmm.train refuses either."""
    parts: dict[EventLabel, list[np.ndarray]] = {lab: [] for lab in EventLabel}
    for grid, ann in zip(grids, anns):
        refs = evaluation.channel_epoch_reference_labels(
            ann, grid.num_epochs, grid.num_channels)
        frames = grid.vectors.reshape(-1, grid.vectors.shape[-1])
        for lab in EventLabel:
            rows = grid.frame_rows(np.flatnonzero(refs == int(lab)))
            parts[lab].append(frames[rows.T])
    return {lab: np.concatenate(p) for lab, p in parts.items() if p}


def _detector_labels(refs: np.ndarray,
                     positive: tuple[EventLabel, ...]) -> np.ndarray:
    return np.where(np.isin(refs, [int(lab) for lab in positive]), 0, 1)


def _train_second_pass(config: PipelineConfig, pass1, epoch_refs):
    supervectors = [sda.supervector_sequence(p) for p in pass1]
    all_sv = np.concatenate(supervectors)
    # The larger dim first, so that a dim the data cannot hold fails before
    # the other fit can log a rank warning.
    keys = sorted(("pca_detector_dim", "pca_sixway_dim"),
                  key=lambda key: -getattr(config, key))
    pca = {key: sda.fit_pca(all_sv, getattr(config, key)) for key in keys}
    pca_det, pca_six = pca["pca_detector_dim"], pca["pca_sixway_dim"]

    det_seqs = [sda.reduce_sequence_for_detectors(pca_det.project(sv))
                for sv in supervectors]
    six_seqs = [pca_six.project(sv) for sv in supervectors]
    det_min, det_max = sda.fit_scaling(np.concatenate(det_seqs))
    six_min, six_max = sda.fit_scaling(np.concatenate(six_seqs))

    refs = np.concatenate(epoch_refs)

    def _train_one(cfg: sda.SdaConfig, seqs, smin, smax, y, seed_offset):
        rng = np.random.default_rng(config.seed + seed_offset)
        x = np.concatenate([sda.sda_input(s, smin, smax, cfg.window_length)
                            for s in seqs])
        if cfg.outputs == 2:
            x, y = sda.augment_binary(x, y, config.augment_cap, rng)
        stack = sda.init_stack(x.shape[1], cfg.hidden, rng)
        sda.pretrain(stack, x, cfg, rng)
        return sda.fine_tune(stack, x, y, cfg, rng, smin, smax)

    model_spsw = _train_one(config.sda_spsw, det_seqs, det_min, det_max,
                            _detector_labels(refs, TARGET_CLASSES), 101)
    model_eyem = _train_one(config.sda_eyem, det_seqs, det_min, det_max,
                            _detector_labels(refs, (EventLabel.EYEM,)), 102)
    model_six = _train_one(config.sda_sixway, six_seqs, six_min, six_max,
                           refs.copy(), 103)
    return sda.SecondPassModels(pca_det, pca_six, model_spsw, model_eyem,
                                model_six)


# ---------------------------------------------------------------------------
# Decoding

def _merge_runs(labels: np.ndarray, channel: int) -> list[Event]:
    events = []
    start = 0
    for e in range(1, len(labels) + 1):
        if e == len(labels) or labels[e] != labels[start]:
            events.append(Event(channel, float(start), float(e),
                                EventLabel(int(labels[start]))))
            start = e
    return events


def _decode_pass1(rec: signal_io.Recording,
                  models: dict[EventLabel, hmm.GmmHmmModel]) -> np.ndarray:
    """Pass-1 posteriors (epochs, channels, 6) of `rec`, a frontend group of
    channels at a time: a group's rows are read, its features extracted and
    scored into its columns, and all of them freed before that worker reads
    its next group. The posteriors do not depend on the worker count."""
    channels, frames = len(rec.labels), num_frames(rec.num_samples)
    group = _group(channels, frames)
    post = np.full((-(-frames // FRAMES_PER_EPOCH), channels, NUM_CLASSES), np.nan)

    def decode(i: int) -> None:
        c0, c1 = i * group, (i + 1) * group
        grid = extract_features(rec.rows(c0, c1), rec.labels[c0:c1])
        post[:, c0:c1] = hmm.decode_pass1(grid, models)

    parallel.run(decode, -(-channels // group))
    return post


def decode_recording(bundle: Bundle, rec_path: str, stop_after: int = 3):
    """Run the pipeline on one recording with the config and montage stored
    in the bundle. Returns (AnnotationSet hypothesis, dict of per-pass posterior
    arrays)."""
    if stop_after not in (1, 2, 3):
        raise DataError("stop_after must be 1, 2 or 3")
    cfg = PipelineConfig.from_dict(bundle.manifest.get("config"))
    # Only a group of the recording's rows per worker exists at a time.
    post1 = _decode_pass1(load_recording(rec_path, _manifest_montage(bundle.manifest)),
                          bundle.hmm_models)
    dumps = {"pass1": post1}
    if stop_after == 1:
        cell_labels = np.argmax(post1, axis=2)  # (E, C)
        events = []
        for c in range(cell_labels.shape[1]):
            events.extend(_merge_runs(cell_labels[:, c], c))
        return AnnotationSet(tuple(events)), dumps

    post2 = sda.decode_pass2(post1, bundle.second_pass)
    dumps["pass2"] = post2
    if stop_after == 2:
        labels = np.argmax(post2, axis=1)
        return AnnotationSet(tuple(_merge_runs(labels, ALL_CHANNELS))), dumps

    labels, post3 = grammar.decode_pass3(post2, bundle.bigram, cfg.grammar)
    dumps["pass3"] = post3
    return AnnotationSet(tuple(_merge_runs(labels, ALL_CHANNELS))), dumps


def write_posterior_csv(path: str, posteriors: np.ndarray) -> None:
    """Posterior dump: pass-1 grids get one row per (epoch, channel) cell,
    epoch sequences one row per epoch."""
    n_index = posteriors.ndim - 1
    header = ["epoch", "channel"][:n_index] + LABEL_NAMES
    index = np.indices(posteriors.shape[:-1]).reshape(n_index, -1)
    rows = np.column_stack([*index, posteriors.reshape(-1, posteriors.shape[-1])])
    row = ",".join(["%d"] * n_index + ["%.10g"] * posteriors.shape[-1])
    lines = [",".join(header)] + [row % tuple(r) for r in rows.tolist()]
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def read_posterior_csv(path: str) -> np.ndarray:
    """The array write_posterior_csv wrote; a malformed dump is a
    DataError."""
    with open(path) as f:
        n_index = 2 if f.readline().startswith("epoch,channel,") else 1
        lines = [line for line in f if line.strip()]
    if not lines:
        raise DataError(f"{path}: no posterior rows")
    try:
        table = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    # The writer's rows: every index once, in np.indices order, so a
    # pass-1 dump's epoch 0 has one row per channel.
    per_epoch = np.count_nonzero(table[:, 0] == 0) if n_index == 2 else 1
    shape = (len(table) // max(per_epoch, 1), per_epoch)[:n_index]
    if table.shape[1] != n_index + NUM_CLASSES or not np.array_equal(
            table[:, :n_index], np.indices(shape).reshape(n_index, -1).T):
        raise DataError(f"{path}: expected rows of {n_index} index "
                        f"column(s), numbered in order from 0, and "
                        f"{NUM_CLASSES} posteriors")
    return table[:, n_index:].reshape(*shape, NUM_CLASSES)


# ---------------------------------------------------------------------------
# Scoring

def score_files(ref_path: str, hyp_path: str, mode: str, basis: str,
                num_channels: int = CHANNELS):
    """Confusion matrix + two-way summary for one (reference, hypothesis)
    annotation pair. The hypothesis determines the epoch count since decode
    emits full-coverage label runs."""
    ref = signal_io.read_annotations(ref_path)
    hyp = signal_io.read_annotations(hyp_path)
    if not hyp.events:
        raise DataError(f"empty hypothesis file {hyp_path}")
    num_epochs = int(np.ceil(max(ev.stop_s for ev in hyp.events)))
    if basis == "per_channel_event":
        ref_labels = evaluation.channel_epoch_reference_labels(
            ref, num_epochs, num_channels).reshape(-1)
        hyp_labels = evaluation.channel_epoch_reference_labels(
            hyp, num_epochs, num_channels).reshape(-1)
    elif basis == "per_epoch":
        ref_labels = evaluation.epoch_reference_labels(ref, num_epochs)
        hyp_labels = evaluation.epoch_reference_labels(hyp, num_epochs)
    else:
        raise DataError(f"unknown basis {basis!r}")
    matrix = evaluation.confusion(ref_labels, hyp_labels, mode, basis)
    summary = (evaluation.sens_spec(matrix) if mode == "two_way"
               else evaluation.sens_spec(
                   evaluation.confusion(ref_labels, hyp_labels, "two_way", basis)))
    return matrix, summary


def write_score_report(matrix, summary, out_prefix: str) -> None:
    with open(out_prefix + ".txt", "w") as f:
        f.write(f"mode={matrix.mode} basis={matrix.basis} "
                f"items={int(matrix.total)}\n\n")
        f.write(matrix.format_text() + "\n\n")
        f.write(summary.format_text() + "\n")
    with open(out_prefix + ".csv", "w", newline="") as f:
        f.write("ref\\hyp," + ",".join(matrix.labels) + "\n")
        for i, name in enumerate(matrix.labels):
            f.write(name + "," + ",".join(f"{int(v)}" for v in matrix.counts[i])
                    + "\n")
