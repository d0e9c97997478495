"""Spans and counts for the traced run.

The tracer replaces public seqdet functions at the module attributes where
`pipeline` and `cli` look them up (for example `seqdet.hmm.decode_pass1`, or
`seqdet.pipeline.extract_features`, which `pipeline` imports by name). Each
wrapper records one span -- name, start, end, parent span, operation id --
and adds the layer's work counts at the same boundary. Spans stay in memory
and are written out when the run ends. No seqdet source file changes.
"""
from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

SDA_NAMES = ("spsw", "eyem", "6way")


def _path_bytes(args, kwargs, result, key="path", index=0):
    path = kwargs.get(key, args[index] if len(args) > index else None)
    return {"bytes": os.path.getsize(path)} if path and os.path.exists(path) else {}


def _frames(args, kwargs, result):
    return {"channel_frames": result.num_channels * result.num_frames}


def _corpus_frames(args, kwargs, result):
    corpus = args[0]
    return {"corpus_frames": sum(a.shape[0] * a.shape[1] for a in corpus.values())}


def _score_counts(args, kwargs, result):
    grid, models = args[0], args[1]
    cells = grid.num_epochs * grid.num_channels
    gaussians = sum(m.num_states * m.num_components for m in models.values())
    return {"cells": cells,
            "gauss_evals": cells * grid.frames_per_epoch * gaussians}


def _pretrain_counts(args, kwargs, result):
    layers, data, config = args[0], args[1], args[2]
    return {"sample_epochs": len(data) * config.pretrain_epochs * len(layers)}


def _finetune_counts(args, kwargs, result):
    x, config = args[1], args[3]
    return {"sample_epochs": len(x) * config.finetune_epochs}


def _sda_name(prefix, config_index):
    return lambda args, kwargs: f"{prefix}.{args[config_index].name}"


# (module, attribute, span name or name function, count function, span?)
# A class method is named "module:Class.method".
WRAP_POINTS = [
    ("seqdet.pipeline", "load_recording", "ingest.load", _path_bytes, True),
    ("seqdet.pipeline", "extract_features", "features.extract", _frames, True),
    ("seqdet.pipeline", "train_pipeline", "pipeline.train", None, True),
    ("seqdet.pipeline", "decode_recording", "pipeline.decode", None, True),
    ("seqdet.pipeline", "write_posterior_csv", "dump.write", _path_bytes, True),
    ("seqdet.pipeline", "read_posterior_csv", "dump.read", _path_bytes, True),
    ("seqdet.pipeline", "score_files", "eval.score", None, True),
    ("seqdet.signal_io", "read_annotations", "ingest.annotations", None, True),
    ("seqdet.signal_io", "write_annotations", "output.hypothesis", None, True),
    ("seqdet.hmm", "train", "hmm.train", _corpus_frames, True),
    ("seqdet.hmm", "decode_pass1", "hmm.score", _score_counts, True),
    ("seqdet.sda", "fit_pca", "sda.pca", None, True),
    ("seqdet.sda", "pretrain", _sda_name("sda.pretrain", 2), _pretrain_counts, True),
    ("seqdet.sda", "fine_tune", _sda_name("sda.finetune", 3), _finetune_counts, True),
    ("seqdet.sda", "decode_pass2", "sda.decode", None, True),
    ("seqdet.grammar", "decode_pass3", "grammar.decode", None, True),
    # Called once per smoothing iteration: counted, not spanned.
    ("seqdet.grammar", "grammar_update", "grammar.update", None, False),
    ("seqdet.evaluation", "det_curve", "eval.det", None, True),
    ("seqdet.bundle:Bundle.save", "save", "bundle.save",
     lambda a, k, r: _path_bytes(a, k, r, index=1), True),
    ("seqdet.bundle:Bundle.load", "load", "bundle.load",
     lambda a, k, r: _path_bytes(a, k, r, index=1), True),
]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.missing: list[str] = []

    # -- spans -----------------------------------------------------------
    def _wrap(self, fn, name, count_fn, span):
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            tracer.calls[label] += 1
            if not span:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            rec = {"name": label, "op": tracer.op,
                   "parent": tracer._stack[-1] if tracer._stack else None}
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                tracer._stack.pop()
            if count_fn is not None:
                for key, value in count_fn(args, kwargs, result).items():
                    tracer.counts[f"{label}.{key}"] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every point in WRAP_POINTS; a point that no longer exists is
        recorded by name in `missing`."""
        for target, attr, name, count_fn, span in WRAP_POINTS:
            module_name, _, cls_path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                if cls_path:
                    owner = getattr(owner, cls_path.split(".")[0])
                original = owner.__dict__[attr] if cls_path else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{target}.{attr}" if not cls_path else target)
                continue
            if isinstance(original, classmethod):
                inner = self._wrap(original.__func__, name, count_fn, span)
                setattr(owner, attr, classmethod(inner))
            else:
                setattr(owner, attr, self._wrap(original, name, count_fn, span))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def run_op(self, op_id, fn):
        """Run one operation with its spans tagged by `op_id`."""
        self.op = op_id
        try:
            return fn()
        finally:
            self.op = None

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "calls": dict(self.calls), "missing": self.missing}


# ---------------------------------------------------------------------------
# Per-layer metrics

def _busy(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _self_time(spans, name):
    """A span's duration minus the time its direct children cover (children
    of one span run one after another, so their durations add). `spans` is
    the whole list, since parents are indices into it."""
    total = 0.0
    for idx, s in enumerate(spans):
        if s["name"] != name or s["op"] is None:
            continue
        children = sum(c["end"] - c["start"] for c in spans if c["parent"] == idx)
        total += (s["end"] - s["start"]) - children
    return total


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(trace: dict, traced_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer busy time per traced operation, work counts and rates.

    `bundle.load_s` is per `Bundle.load` call, since the decode workloads
    load their bundle once before the first operation."""
    spans = [s for s in trace["spans"] if s["op"] is not None]
    counts, calls = trace["counts"], trace["calls"]
    n = max(traced_ops, 1)
    out: dict[str, tuple[float, str]] = {}

    def per_op(metric, span_name):
        out[metric] = (_busy(spans, span_name) / n, "s")

    per_op("hmm.score_s", "hmm.score")
    score_busy = _busy(spans, "hmm.score")
    out["hmm.score.cells_per_s"] = (
        _rate(counts.get("hmm.score.cells", 0), score_busy), "cells/s")
    out["hmm.score.gauss_evals_per_s"] = (
        _rate(counts.get("hmm.score.gauss_evals", 0), score_busy), "evals/s")
    per_op("hmm.train_s", "hmm.train")
    out["hmm.train.corpus_frames"] = (
        counts.get("hmm.train.corpus_frames", 0) / n, "frames")
    for name in SDA_NAMES:
        for phase in ("pretrain", "finetune"):
            span_name = f"sda.{phase}.{name}"
            busy = _busy(spans, span_name)
            out[f"sda.{phase}_s.{name}"] = (busy / n, "s")
            out[f"sda.{phase}.sample_epochs_per_s.{name}"] = (
                _rate(counts.get(f"{span_name}.sample_epochs", 0), busy),
                "samples/s")
    per_op("sda.pca_s", "sda.pca")
    per_op("sda.decode_s", "sda.decode")
    per_op("grammar.decode_s", "grammar.decode")
    out["grammar.iterations"] = (
        calls.get("grammar.update", 0) / calls["grammar.decode"]
        if calls.get("grammar.decode") else 0.0, "count")
    per_op("features.extract_s", "features.extract")
    out["features.channel_frames_per_s"] = (
        _rate(counts.get("features.extract.channel_frames", 0),
              _busy(spans, "features.extract")), "frames/s")
    per_op("ingest.load_s", "ingest.load")
    out["ingest.mb_per_s"] = (
        _rate(counts.get("ingest.load.bytes", 0) / 1e6,
              _busy(spans, "ingest.load")), "MB/s")
    per_op("dump.write_s", "dump.write")
    per_op("dump.read_s", "dump.read")
    out["dump.bytes"] = (counts.get("dump.write.bytes", 0) / n, "bytes")
    per_op("eval.score_s", "eval.score")
    per_op("eval.det_s", "eval.det")
    loads = [s for s in trace["spans"] if s["name"] == "bundle.load"]
    out["bundle.load_s"] = (
        sum(s["end"] - s["start"] for s in loads) / len(loads) if loads else 0.0,
        "s")
    per_op("bundle.save_s", "bundle.save")
    saved = counts.get("bundle.save.bytes", 0)
    out["bundle.bytes"] = (
        saved / n if saved else counts.get("bundle.load.bytes", 0)
        / max(len(loads), 1), "bytes")
    out["pipeline.train.self_s"] = (
        _self_time(trace["spans"], "pipeline.train") / n, "s")
    out["pipeline.decode.self_s"] = (
        _self_time(trace["spans"], "pipeline.decode") / n, "s")
    return out


# Shares of the ROADMAP Baseline table (seconds on a 2-core box, criterion-8
# corpus): training on 600 s, decoding the 300 s evaluation recording.
BASELINE_S = {
    "train": {"features": 1.4, "hmm.train": 38.8, "hmm.score": 7.9,
              "sda.train": 3.7 + 6.7 + 4.7 + 1.2 + 32.3 + 34.8},
    "decode": {"features": 0.39, "hmm.score": 3.7, "sda.decode": 0.03,
               "grammar.decode": 0.03},
}

_SHARE_SPANS = {
    "features": ("features.extract",),
    "hmm.train": ("hmm.train",),
    "hmm.score": ("hmm.score",),
    "sda.train": ("sda.pca",) + tuple(f"sda.{p}.{n}" for p in ("pretrain", "finetune")
                                      for n in SDA_NAMES),
    "sda.decode": ("sda.decode",),
    "grammar.decode": ("grammar.decode",),
}


def layer_shares(trace: dict, op_wall_s: float, baseline: str) -> dict:
    """Each layer's share of the traced operations' wall time, next to its
    share of the Baseline table row set `baseline`."""
    spans = [s for s in trace["spans"] if s["op"] is not None]
    base = BASELINE_S[baseline]
    base_total = sum(base.values())
    out = {}
    for layer, names in _SHARE_SPANS.items():
        busy = sum(_busy(spans, name) for name in names)
        out[layer] = {"share": busy / op_wall_s if op_wall_s > 0 else 0.0,
                      "baseline_share": base.get(layer, 0.0) / base_total}
    return out
