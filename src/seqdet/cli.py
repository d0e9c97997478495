"""Command-line entry points: train, decode, score, det, synth.

Exit codes: 0 success, 1 usage error, 2 data error (a DataError, or a file
that cannot be read or written), 3 numeric failure (a NumericError).
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import evaluation, pipeline, signal_io, synth
from .bundle import Bundle
from .errors import DataError, NumericError
from .labels import TARGET_CLASSES
from .signal_io import CHANNELS

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _at_least(least: int):
    """An argparse type: an integer of at least `least`."""
    def integer(text: str) -> int:
        value = int(text)  # a ValueError is argparse's "invalid integer value"
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return integer


def _build_parser() -> _Parser:
    parser = _Parser(prog="seqdet",
                     description="Three-pass multichannel event detection")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train all passes and write a bundle")
    p_train.add_argument("data", nargs="+",
                         help="recording files; each <name>.<ext> needs "
                              "annotations at <name>.csv")
    p_train.add_argument("--config", help="INI config file")
    p_train.add_argument("--seed", type=_at_least(0),
                         help="override the pipeline and HMM config seeds")
    p_train.add_argument("--bigram", choices=["table1", "estimate"],
                         help="bigram table source")
    p_train.add_argument("--out", required=True, help="bundle output path")

    p_dec = sub.add_parser("decode", help="decode recordings with a bundle")
    p_dec.add_argument("bundle")
    p_dec.add_argument("recordings", nargs="+")
    p_dec.add_argument("--stop-after", type=int, choices=[1, 2, 3], default=3)
    p_dec.add_argument("--out-dir", default=".")
    p_dec.add_argument("--dump-posteriors", action="store_true")

    p_score = sub.add_parser("score", help="score hypothesis vs reference")
    p_score.add_argument("ref")
    p_score.add_argument("hyp")
    p_score.add_argument("--mode", choices=["six_way", "four_way", "two_way"],
                         default="six_way")
    p_score.add_argument("--basis", choices=["per_epoch", "per_channel_event"],
                         default="per_epoch")
    p_score.add_argument("--channels", type=_at_least(1), default=CHANNELS)
    p_score.add_argument("--out", required=True,
                         help="report prefix (writes .txt and .csv)")

    p_det = sub.add_parser("det", help="DET curve from a posterior dump")
    p_det.add_argument("posteriors", help="per-epoch posterior CSV")
    p_det.add_argument("ref", help="reference annotation CSV")
    p_det.add_argument("--offsets", type=_at_least(0), default=50,
                       help="number of sweep offsets")
    p_det.add_argument("--out", required=True, help="DET CSV output path")

    p_synth = sub.add_parser("synth", help="generate a synthetic recording")
    p_synth.add_argument("script", help="CSV script: label,duration_s,channels")
    p_synth.add_argument("--seed", type=_at_least(0), default=0)
    p_synth.add_argument("--out", required=True,
                         help="output prefix (writes .rm and .csv)")

    return parser


def _annotation_path(rec_path: str) -> str:
    return os.path.splitext(rec_path)[0] + ".csv"


def _cmd_train(args) -> int:
    if args.config:
        cfg = pipeline.load_config(args.config)
    else:
        cfg = pipeline.PipelineConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed, hmm=replace(cfg.hmm, seed=args.seed))
    if args.bigram:
        cfg = replace(cfg, bigram_source=args.bigram)
    pairs = [(p, _annotation_path(p)) for p in args.data]
    for rec_path, ann_path in pairs:
        if not os.path.exists(ann_path):
            raise DataError(f"missing annotations: {ann_path}")
    bundle = pipeline.train_pipeline(cfg, pairs)
    bundle.save(args.out)
    print(f"bundle written: {args.out}")
    return 0


def _cmd_decode(args) -> int:
    bundle = Bundle.load(args.bundle)
    os.makedirs(args.out_dir, exist_ok=True)
    for rec_path in args.recordings:
        stem = os.path.splitext(os.path.basename(rec_path))[0]
        hyp, dumps = pipeline.decode_recording(bundle, rec_path,
                                               stop_after=args.stop_after)
        hyp_path = os.path.join(args.out_dir, f"{stem}.hyp.csv")
        signal_io.write_annotations(hyp, hyp_path)
        print(f"hypothesis written: {hyp_path}")
        if args.dump_posteriors:
            for name, arr in dumps.items():
                dump_path = os.path.join(args.out_dir, f"{stem}.{name}.csv")
                pipeline.write_posterior_csv(dump_path, arr)
                print(f"posteriors written: {dump_path}")
    return 0


def _cmd_score(args) -> int:
    matrix, summary = pipeline.score_files(args.ref, args.hyp, args.mode,
                                           args.basis, args.channels)
    pipeline.write_score_report(matrix, summary, args.out)
    print(matrix.format_text())
    print(summary.format_text())
    return 0


def _cmd_det(args) -> int:
    post = pipeline.read_posterior_csv(args.posteriors)
    if post.ndim != 2:
        raise DataError("DET needs a per-epoch posterior dump (pass 2 or 3)")
    ref = signal_io.read_annotations(args.ref)
    refs = evaluation.epoch_reference_labels(ref, post.shape[0])
    scores = post[:, [int(lab) for lab in TARGET_CLASSES]].sum(axis=1)
    offsets = np.linspace(-0.5, 0.5, args.offsets)
    curve = evaluation.det_curve(scores, refs, offsets)
    with open(args.out, "w", newline="") as f:
        f.write("offset,false_alarm,miss\n")
        for off, fa, miss in curve.points:
            f.write(f"{off:.10g},{fa:.10g},{miss:.10g}\n")
    print(f"DET curve written: {args.out}")
    return 0


def _cmd_synth(args) -> int:
    script = synth.read_script(args.script)
    rec, ann = synth.generate(script, seed=args.seed)
    signal_io.write_recording(rec, args.out + ".rm")
    signal_io.write_annotations(ann, args.out + ".csv")
    print(f"recording written: {args.out}.rm ({rec.duration_s:g} s, "
          f"{len(rec.labels)} channels)")
    return 0


_COMMANDS = {"train": _cmd_train, "decode": _cmd_decode, "score": _cmd_score,
             "det": _cmd_det, "synth": _cmd_synth}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, OSError, UnicodeDecodeError, MemoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
