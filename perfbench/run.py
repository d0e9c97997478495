"""seqdet benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload decode_long --seed 3 --seconds 20 --trace 0

Run from the root of a seqdet checkout. The run

1. builds, once per checkout and source tree, the reference bundle the
   decode workloads use (criterion 8's config and training corpus; not
   timed),
2. writes the workload's inputs from the seed (synth.balanced_script with
   FOCAL_PROFILE) and records their SHA-256,
3. times set-up (seqdet import + Bundle.load) in fresh processes,
4. runs the workload in its own process for about --seconds, traced or
   not, and checks its outputs,
5. prints each metric by name and unit, then one JSON line:
   {"correct", "attempted", "failed", "metrics"}.

Everything it writes goes under .bench_build/perfbench/. See README.md in
this directory for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

from worker import REFERENCE, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SOURCE = os.path.join("src", "seqdet")
CACHE = os.path.join(".bench_build", "perfbench")
SETUP_PROBES = 3
RUN_LIMIT_S = 150.0  # the workload process; a whole run stays under 180 s
BUILD_LIMIT_S = 850.0

ISSUE_METRICS = [  # (name, unit, workload it is measured on; None = every one)
    ("train_s", "s", "train_focal"),
    ("decode_epochs_per_s", "epochs/s", "decode_long"),
    ("clip_latency_p50_s", "s", "eval_sweep"),
    ("clip_latency_p90_s", "s", "eval_sweep"),
    ("setup_s", "s", None),
    ("peak_rss_mb", "MB", None),
    ("acc6", "fraction", "decode_long"),
    ("sens", "fraction", "decode_long"),
    ("fa", "fraction", "decode_long"),
    ("failed_frac", "fraction", None),
]


class BenchError(Exception):
    pass


def _child_env() -> dict:
    """Children see src/ first on the path and at most 2 BLAS threads
    (nproc on the reference box): one process, one operation in flight."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    threads = str(min(len(os.sched_getaffinity(0)), 2))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _worker(args: list[str], timeout: float) -> str:
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, env=_child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: "
                         + " | ".join(tail))
    return proc.stdout


def _source_digest() -> str:
    """SHA-256 over the seqdet sources."""
    h = hashlib.sha256()
    files = [os.path.join(d, f) for d, _, names in os.walk(SOURCE)
             if "__pycache__" not in d for f in names
             if f.endswith((".py", ".csv"))]
    for path in sorted(files):
        h.update(os.path.relpath(path).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _reference_bundle(digest: str, tiny: bool) -> str:
    """The cached reference bundle for these sources and this recipe; a
    changed program gets its own."""
    key = hashlib.sha256((digest + json.dumps(REFERENCE)).encode()).hexdigest()
    path = os.path.join(CACHE, f"reference-{key[:16]}{'-tiny' if tiny else ''}.seqd")
    if not os.path.exists(path):
        os.makedirs(CACHE, exist_ok=True)
        _worker(["reference", path] + (["--tiny"] if tiny else []), BUILD_LIMIT_S)
    return path


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _measure(args) -> dict:
    digest = _source_digest()
    bundle = _reference_bundle(digest, args.tiny)
    run_dir = os.path.join(CACHE, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    results = os.path.join(CACHE, "results")
    os.makedirs(results, exist_ok=True)
    tiny = ["--tiny"] if args.tiny else []
    try:
        _worker(["inputs", args.workload, str(args.seed), run_dir] + tiny, 120)
        with open(os.path.join(run_dir, "inputs.json")) as f:
            inputs = json.load(f)
        setup = [float(_worker(["setup", bundle], 60))
                 for _ in range(SETUP_PROBES)]
        out = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        _worker(["run", args.workload, str(args.seed), run_dir, bundle,
                 str(args.seconds), str(args.trace), out] + tiny,
                RUN_LIMIT_S)
        with open(out) as f:
            run = json.load(f)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if run.get("missing_wraps"):
        raise BenchError("wrap targets missing: " + ", ".join(run["missing_wraps"]))
    run.update(setup_samples=setup, source_sha256=digest, git_sha=_git_sha(),
               inputs_sha256=inputs["sha256"], reference_bundle=bundle, path=out)
    return run


def _report(args, run) -> dict:
    ops = run["ops"]
    good = [o for o in ops if o["error"] is None]
    timed = [o for o in good if not o["traced"]]
    lat = [o["latency"] for o in timed]
    checks = {name: (ok, detail) for name, ok, detail in run["checks"]}
    failed = len(ops) - len(good)
    # A failed operation is counted in `failed`, not here: `correct` is the
    # verdict on the outputs of the operations that finished.
    correct = bool(good) and all(ok for ok, _ in checks.values())

    median_lat = statistics.median(lat) if lat else 0.0
    e2e = {
        "latency_p50_s": (median_lat, "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(run["setup_samples"]), "s"),
    }
    issue = {  # name -> (value, how it was taken)
        "train_s": (median_lat, f"median of {len(lat)} operations"),
        "decode_epochs_per_s": (sum(o["epochs"] for o in timed) / sum(lat)
                                if lat else 0.0, f"over {len(lat)} decodes"),
        "clip_latency_p50_s": (median_lat, f"n={len(lat)} clips"),
        "clip_latency_p90_s": (_percentile(lat, 90) if lat else 0.0,
                               f"n={len(lat)} clips"),
        "setup_s": (e2e["setup_s"][0],
                    f"median of {len(run['setup_samples'])} fresh processes"),
        "peak_rss_mb": (run["peak_rss_mb"], "workload process"),
        "failed_frac": (failed / len(ops) if ops else 0.0,
                        f"{failed} of {len(ops)} operations"),
    }
    for name in ("acc6", "sens", "fa"):  # reported, not gated: see README.md
        if name in run["quality"]:
            issue[name] = (run["quality"][name], "first decode of the seed's "
                           "recording; criterion 8 is checked below")

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}"
          + (" tiny" if args.tiny else ""))
    print(f"operations: {len(ops)} attempted, {failed} failed, "
          f"{len(timed)} untraced, {len(good) - len(timed)} traced")
    print("waiting time: not applicable (closed loop, one operation in "
          "flight, no queues)")
    if not args.trace:
        for name, (value, unit) in e2e.items():
            print(f"  {name:<22} {value!r} {unit}")
        print("named end-to-end metrics:")
        for name, unit, where in ISSUE_METRICS:
            if where not in (None, args.workload):
                print(f"  {name:<22} n/a  {unit}  (measured on {where})")
            else:
                value, how = issue.get(name, (None, "no operation finished"))
                print(f"  {name:<22} {value!r} {unit}  ({how})")
    for o in ops:
        if o["error"]:
            print(f"failed operation: {o['error']}")
    for name, (ok, detail) in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'} {detail}")
    if args.trace:
        for name, (value, unit) in run["layers"].items():
            print(f"  {name:<40} {value!r} {unit}")
        for layer, s in run["shares"].items():
            print(f"share {layer:<15} {s['share']:7.1%} of traced wall "
                  f"(Baseline table: {s['baseline_share']:.1%})")
        print(f"trace file: {run['trace_file']}")
    env = dict(run["env"], git_sha=run["git_sha"], source_sha256=run["source_sha256"])
    print("env " + json.dumps(env, sort_keys=True))
    joined = hashlib.sha256("".join(
        f"{k}={v}\n" for k, v in sorted(run["inputs_sha256"].items())).encode())
    print(f"inputs: {len(run['inputs_sha256'])} files, sha256 of the list "
          f"{joined.hexdigest()}")

    metrics = run["layers"] if args.trace else e2e
    run.update(correct=correct, metrics=metrics, env=env,
               issue_metrics={k: v for k, (v, _) in issue.items()})
    with open(run["path"], "w") as f:
        json.dump(run, f)
    print(f"result file: {run['path']}")
    return {"correct": correct, "attempted": len(ops), "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny corpora and model, for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "__init__.py")):
        print(f"perfbench: no {SOURCE}/ here; run from the root of a seqdet "
              "checkout", file=sys.stderr)
        return 2
    try:
        result = _report(args, _measure(args))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
