"""Child process of the benchmark: builds the reference bundle, writes a
workload's inputs, probes set-up cost, or runs one workload.

Each mode runs in its own process, so the workload process holds only the
program's own memory (its peak RSS is the `peak_rss_mb` metric) and the
set-up probe pays the full `seqdet` import. Nothing here imports seqdet or
numpy at module level: the set-up probe times those imports.

    python3 perfbench/worker.py reference OUT [--tiny]
    python3 perfbench/worker.py inputs WORKLOAD SEED DIR [--tiny]
    python3 perfbench/worker.py setup BUNDLE
    python3 perfbench/worker.py run WORKLOAD SEED DIR BUNDLE SECONDS TRACE OUT [--tiny]
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import time
import traceback

WORKLOADS = ("train_focal", "decode_long", "eval_sweep")
CLIPS = 100

# The decode workloads' bundle: criterion 8's training corpus and config.
# run.py keys the cached bundle on this and on the seqdet sources.
REFERENCE = {"size": (10, 10), "script_seed": 10, "generate_seed": 11,
             "config": {"seed": 42, "bigram_source": "estimate"}}

# Criterion 8's evaluation pair (tests/test_acceptance.py), the data its
# thresholds are defined on. Decoded with the reference bundle, which is
# criterion 8's training, it is criterion 8 itself.
CRITERION8 = {"size": (10, 5), "script_seed": 20, "generate_seed": 21}

# Input sizes as (seconds_per_segment, segments_per_class) of
# synth.balanced_script: a script covers 6 classes, so 10 s x 10 is 600 s.
SIZES = {
    "full": {"reference": REFERENCE["size"], "train_focal": (10, 1),
             "decode_long": (10, 10), "criterion8": CRITERION8["size"],
             "clip": (5, 1), "clips": CLIPS},
    "tiny": {"reference": (5, 2), "train_focal": (5, 1),
             "decode_long": (5, 2), "criterion8": (5, 1),
             "clip": (5, 1), "clips": 6},
}

# Criterion-8 thresholds, checked on criterion 8's evaluation pair.
MIN_ACC6, MIN_SENS, MAX_FA = 0.90, 0.95, 0.05


def _quiet() -> None:
    import logging
    import warnings
    warnings.simplefilter("ignore")
    logging.disable(logging.WARNING)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _config(seed: int, tiny: bool):
    """The default PipelineConfig with the workload seed in both the
    pipeline and the HMM config (PipelineConfig.seed does not reach
    HmmConfig.seed). Tiny mode shrinks the model for the smoke test."""
    from seqdet.grammar import GrammarParams
    from seqdet.hmm import HmmConfig
    from seqdet.pipeline import PipelineConfig
    from seqdet.sda import SdaConfig
    if not tiny:
        return PipelineConfig(seed=seed, hmm=HmmConfig(seed=seed))
    small = dict(pretrain_epochs=5, pretrain_batch=64, finetune_epochs=20,
                 finetune_batch=32)
    return PipelineConfig(
        seed=seed, hmm=HmmConfig(num_components=2, max_iterations=3, seed=seed),
        sda_spsw=SdaConfig("spsw", 3, (16, 16), 2, **small),
        sda_eyem=SdaConfig("eyem", 3, (16, 16), 2, **small),
        sda_sixway=SdaConfig("6way", 5, (32, 16), 6, **small),
        grammar=GrammarParams(iterations=5))


def _write_pair(prefix: str, size, script_seed: int, gen_seed: int) -> dict:
    from seqdet import signal_io, synth
    script = synth.balanced_script(*size, seed=script_seed,
                                   channel_profile=synth.FOCAL_PROFILE)
    rec, ann = synth.generate(script, seed=gen_seed)
    signal_io.write_recording(rec, prefix + ".rm")
    signal_io.write_annotations(ann, prefix + ".csv")
    return {"recording": prefix + ".rm", "annotations": prefix + ".csv",
            "epochs": int(round(rec.duration_s))}


# ---------------------------------------------------------------------------
# reference / inputs / setup

def cmd_reference(args) -> None:
    """Train the decode workloads' bundle with criterion 8's config and
    training corpus (tiny config and corpus in tiny mode)."""
    _quiet()
    from seqdet import pipeline
    sizes = SIZES["tiny" if args.tiny else "full"]
    work = args.out + ".corpus"
    cfg = (_config(0, True) if args.tiny else
           pipeline.PipelineConfig(**REFERENCE["config"]))
    try:
        pair = _write_pair(work, sizes["reference"], REFERENCE["script_seed"],
                           REFERENCE["generate_seed"])
        bundle = pipeline.train_pipeline(
            cfg, [(pair["recording"], pair["annotations"])])
        bundle.save(args.out + ".tmp")
        os.replace(args.out + ".tmp", args.out)
    finally:
        for suffix in (".rm", ".csv"):
            if os.path.exists(work + suffix):
                os.remove(work + suffix)


def cmd_inputs(args) -> None:
    """Write the workload's inputs, derived from the seed alone, and list
    them with their SHA-256 in DIR/inputs.json."""
    _quiet()
    sizes = SIZES["tiny" if args.tiny else "full"]
    seed = args.seed
    os.makedirs(args.dir, exist_ok=True)
    prefix = os.path.join(args.dir, args.workload)
    if args.workload == "train_focal":
        items = [_write_pair(prefix, sizes["train_focal"], seed, seed + 500_000)]
    elif args.workload == "decode_long":
        items = [_write_pair(prefix, sizes["decode_long"], seed + 1_000_000,
                             seed + 1_500_000),
                 _write_pair(os.path.join(args.dir, "criterion8"),
                             sizes["criterion8"], CRITERION8["script_seed"],
                             CRITERION8["generate_seed"])]
    else:
        items = [_write_pair(f"{prefix}{i:03d}", sizes["clip"],
                             2_000_000 + 1000 * seed + i,
                             3_000_000 + 1000 * seed + i)
                 for i in range(sizes["clips"])]
    sha = {os.path.basename(p): _sha256(p)
           for item in items for p in (item["recording"], item["annotations"])}
    with open(os.path.join(args.dir, "inputs.json"), "w") as f:
        json.dump({"items": items, "sha256": sha}, f, indent=1)


def cmd_setup(args) -> None:
    """Print the seconds from before the seqdet import (what the CLI
    imports) to a loaded bundle."""
    t0 = time.perf_counter()
    from seqdet import cli  # noqa: F401
    from seqdet.bundle import Bundle
    Bundle.load(args.bundle)
    print(f"{time.perf_counter() - t0!r}")


# ---------------------------------------------------------------------------
# Workloads: each returns (operation, checks). An operation returns
# (latency_s, epochs); checks() returns a list of (name, ok, detail).

def _train_focal(args, item, work):
    from seqdet import pipeline
    from seqdet.bundle import Bundle
    cfg = _config(args.seed, args.tiny)
    pair = [(item["recording"], item["annotations"])]
    saved = []

    def op(i):
        out = os.path.join(work, f"bundle{i}.seqd")
        t0 = time.perf_counter()
        bundle = pipeline.train_pipeline(cfg, pair)
        bundle.save(out)
        latency = time.perf_counter() - t0
        saved.append(out)
        return latency, item["epochs"]

    def checks():
        if not saved:
            return [("trained", False, "no bundle was trained")]
        digests = {_sha256(p) for p in saved}
        manifest = Bundle.load(saved[0]).manifest
        seeds = (manifest["seed"], manifest["config"]["hmm"]["seed"])
        return [
            ("bundles_identical", len(digests) == 1,
             f"{len(saved)} bundles, {len(digests)} distinct"),
            ("seed_reaches_hmm", seeds == (args.seed, args.seed),
             f"pipeline/hmm seeds {seeds}"),
            ("bundle_sha256", True, digests.pop()),
        ]

    return op, checks


def _quality(dumps, ann_path):
    """acc6, sens and fa of the pass-3 posteriors, and the two-way accuracy
    of pass 3 and of the pass-1 channel-majority baseline, as criterion 8
    in tests/test_acceptance.py computes them."""
    import numpy as np
    from seqdet import evaluation, signal_io
    from seqdet.labels import TARG, TARGET_CLASSES, EventLabel, collapse
    p3 = dumps["pass3"]
    refs = evaluation.epoch_reference_labels(
        signal_io.read_annotations(ann_path), p3.shape[0])
    labels3 = np.argmax(p3, axis=1)
    scores = p3[:, [int(lab) for lab in TARGET_CLASSES]].sum(axis=1)
    fa, miss = evaluation.det_curve(
        scores, refs, np.linspace(-0.5, 0.5, 50)).zero_penalty_point()
    cell = np.argmax(dumps["pass1"], axis=2)
    majority = np.array([np.bincount(row, minlength=6).argmax() for row in cell])

    def two_way(labels):
        return np.array([collapse(EventLabel(int(v)), "two_way") == TARG
                         for v in labels])

    ref2 = two_way(refs)
    return {"acc6": float(np.mean(labels3 == refs)), "sens": 1.0 - miss,
            "fa": fa, "acc2_p3": float(np.mean(two_way(labels3) == ref2)),
            "acc2_majority": float(np.mean(two_way(majority) == ref2))}


def _posteriors_valid(dumps, epochs) -> bool:
    """Every pass's posteriors are finite, in [0, 1] and sum to 1 per
    row, one row per epoch."""
    import numpy as np
    return all(p.shape[0] == epochs and np.isfinite(p).all()
               and ((p >= 0) & (p <= 1 + 1e-9)).all()
               and np.allclose(p.sum(axis=-1), 1.0, atol=1e-6)
               for p in dumps.values())


def _decode_long(args, items, work, bundle, quality):
    """The seed's recording is timed. Criterion 8's evaluation pair is
    decoded first, untimed, as warm-up and as the criterion-8 check; the
    seed's recording gets its acc6, sens and fa reported in `quality`."""
    from seqdet import pipeline
    item, c8_item = items
    try:
        _, c8_dumps = pipeline.decode_recording(bundle, c8_item["recording"])
        criterion8 = _quality(c8_dumps, c8_item["annotations"])
    except Exception:
        criterion8 = {"error": traceback.format_exc()}
    first = {}

    def op(i):
        t0 = time.perf_counter()
        hyp, dumps = pipeline.decode_recording(bundle, item["recording"])
        latency = time.perf_counter() - t0
        if not first:
            first.update(hyp=hyp,
                         valid=_posteriors_valid(dumps, item["epochs"]))
            quality.update(_quality(dumps, item["annotations"]))
        else:
            first.setdefault("repeats_equal", True)
            first["repeats_equal"] &= hyp == first["hyp"]
        return latency, dumps["pass3"].shape[0]

    def checks():
        if "error" in criterion8:
            out = [("criterion8_decoded", False,
                    criterion8["error"].strip().splitlines()[-1])]
        else:
            c8, gate = criterion8, not args.tiny
            out = [
                ("criterion8_acc6", c8["acc6"] >= MIN_ACC6 or not gate,
                 f"{c8['acc6']!r} >= {MIN_ACC6}"),
                ("criterion8_sens", c8["sens"] >= MIN_SENS or not gate,
                 f"{c8['sens']!r} >= {MIN_SENS}"),
                ("criterion8_fa", c8["fa"] <= MAX_FA or not gate,
                 f"{c8['fa']!r} <= {MAX_FA}"),
                ("criterion8_2way_vs_majority",
                 c8["acc2_p3"] >= c8["acc2_majority"] or not gate,
                 f"{c8['acc2_p3']!r} >= {c8['acc2_majority']!r}"),
            ]
        if not first:
            return out + [("decoded", False, "no decode finished")]
        out.append(("posteriors_valid", first["valid"],
                    "finite, in [0, 1], rows sum to 1, one row per epoch"))
        if "repeats_equal" in first:
            out.append(("repeat_decodes_equal", first["repeats_equal"], ""))
        return out

    return op, checks


def _eval_sweep(args, items, work, bundle):
    import numpy as np
    from seqdet import evaluation, pipeline, signal_io
    from seqdet.labels import TARGET_CLASSES
    offsets = np.linspace(-0.5, 0.5, 50)
    state = {"dump_mismatch": 0, "scored": 0}

    def decode_clip(item, stem):
        hyp, dumps = pipeline.decode_recording(bundle, item["recording"])
        hyp_path = os.path.join(work, stem + ".hyp.csv")
        signal_io.write_annotations(hyp, hyp_path)
        for name, arr in dumps.items():
            pipeline.write_posterior_csv(
                os.path.join(work, f"{stem}.{name}.csv"), arr)
        return hyp_path, dumps

    def op(i):
        item = items[i]
        stem = f"clip{i:03d}"
        t0 = time.perf_counter()
        hyp_path, dumps = decode_clip(item, stem)
        latency = time.perf_counter() - t0
        pipeline.score_files(item["annotations"], hyp_path, "two_way", "per_epoch")
        post = pipeline.read_posterior_csv(os.path.join(work, stem + ".pass3.csv"))
        if not np.allclose(post, dumps["pass3"], rtol=1e-9, atol=1e-12):
            state["dump_mismatch"] += 1
        refs = evaluation.epoch_reference_labels(
            signal_io.read_annotations(item["annotations"]), post.shape[0])
        scores = post[:, [int(lab) for lab in TARGET_CLASSES]].sum(axis=1)
        evaluation.det_curve(scores, refs, offsets).zero_penalty_point()
        state["scored"] += 1
        return latency, post.shape[0]

    def checks():
        first = os.path.join(work, "clip000.hyp.csv")
        if not os.path.exists(first):
            return [("clip_decoded", False, "first clip has no hypothesis")]
        with open(first, "rb") as f:
            before = f.read()
        again, _ = decode_clip(items[0], "clip000-again")
        with open(again, "rb") as f:
            same = f.read() == before
        return [("redecode_byte_identical", same, "clip000.hyp.csv"),
                ("dumps_read_back", state["dump_mismatch"] == 0,
                 f"{state['dump_mismatch']} of {state['scored']} differ")]

    return op, checks


def _blas_threads():
    """Threads of numpy's OpenBLAS in effect, or None if it cannot be asked."""
    import ctypes
    import glob
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _environment() -> dict:
    import platform
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count()}


def cmd_run(args) -> None:
    _quiet()
    from tracing import Tracer, layer_metrics, layer_shares
    from seqdet.bundle import Bundle

    with open(os.path.join(args.dir, "inputs.json")) as f:
        items = json.load(f)["items"]
    work = os.path.join(args.dir, "out")
    os.makedirs(work, exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.uninstall()
        if tracer.missing:
            _write(args.out, {"missing_wraps": tracer.missing})
            return

    n_max = None
    quality = {}  # decode_long: acc6, sens, fa of the seed's recording
    if args.workload == "train_focal":
        op, checks = _train_focal(args, items[0], work)
    else:
        if tracer is not None:
            tracer.install()
        bundle = Bundle.load(args.bundle)
        if tracer is not None:
            tracer.uninstall()
        if args.workload == "decode_long":
            op, checks = _decode_long(args, items, work, bundle, quality)
        else:
            op, checks = _eval_sweep(args, items, work, bundle)
            n_max = len(items)
            # Warm-up, untimed: a sweep process decodes many clips, so its
            # steady state is what the clip latency measures.
            try:
                op(0)
            except Exception:  # the same clip fails again, counted, in the loop
                pass

    ops = _loop(op, tracer, args.seconds, n_max)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result = {"ops": ops, "checks": checks(), "quality": quality,
              "peak_rss_mb": peak_rss_mb, "env": _environment()}
    if tracer is not None:
        traced = [o for o in ops if o["traced"] and o["error"] is None]
        untraced = [o for o in ops if not o["traced"] and o["error"] is None]
        trace = tracer.dump()
        layers = layer_metrics(trace, len(traced))
        overhead = (statistics.median(o["latency"] for o in traced)
                    - statistics.median(o["latency"] for o in untraced)
                    if traced and untraced else 0.0)
        layers["trace.overhead_s"] = (overhead, "s")
        result["layers"] = layers
        result["shares"] = layer_shares(
            trace, sum(o["wall"] for o in traced),
            "train" if args.workload == "train_focal" else "decode")
        trace_path = os.path.splitext(args.out)[0] + ".trace.json"
        _write(trace_path, trace)
        result["trace_file"] = trace_path
    _write(args.out, result)


def _loop(op, tracer, seconds, n_max):
    """Closed loop, one operation in flight. Runs at least two operations,
    then until the next one would likely end past `seconds`. With a tracer,
    operations alternate untraced / traced."""
    ops = []
    start = time.perf_counter()
    i = 0
    while n_max is None or i < n_max:
        traced = tracer is not None and i % 2 == 1
        error = None
        latency, epochs = 0.0, 0
        w0 = time.perf_counter()
        try:
            if traced:
                tracer.install()
                try:
                    latency, epochs = tracer.run_op(i, lambda: op(i))
                finally:
                    tracer.uninstall()
            else:
                latency, epochs = op(i)
        except Exception:  # counted in failed_frac; the run goes on
            error = traceback.format_exc()
        ops.append({"latency": latency, "epochs": epochs, "traced": traced,
                    "wall": time.perf_counter() - w0, "error": error})
        i += 1
        elapsed = time.perf_counter() - start
        if i >= 2 and elapsed + 0.5 * elapsed / i >= seconds:
            break
    return ops


def _write(path: str, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("reference")
    p.add_argument("out")
    p.add_argument("--tiny", action="store_true")
    p = sub.add_parser("inputs")
    p.add_argument("workload", choices=WORKLOADS)
    p.add_argument("seed", type=int)
    p.add_argument("dir")
    p.add_argument("--tiny", action="store_true")
    p = sub.add_parser("setup")
    p.add_argument("bundle")
    p = sub.add_parser("run")
    p.add_argument("workload", choices=WORKLOADS)
    p.add_argument("seed", type=int)
    p.add_argument("dir")
    p.add_argument("bundle")
    p.add_argument("seconds", type=float)
    p.add_argument("trace", type=int, choices=[0, 1])
    p.add_argument("out")
    p.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    {"reference": cmd_reference, "inputs": cmd_inputs, "setup": cmd_setup,
     "run": cmd_run}[args.mode](args)


if __name__ == "__main__":
    main()
