"""Smoke test of the benchmark on tiny corpora and model (about two minutes).

    python3 perfbench/smoke.py

Run from the root of a seqdet checkout. It checks that

- every workload prints, untraced, each BENCHMARK.json end-to-end metric and
  each of the ten named end-to-end metrics with its unit, and, traced, each
  per-layer metric with its unit;
- every wrap point was found, and every one was called by some workload;
- a second seed gives other train_focal inputs and another bundle;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import ISSUE_METRICS  # noqa: E402
from tracing import SDA_NAMES, WRAP_POINTS  # noqa: E402
from worker import WORKLOADS  # noqa: E402

FAILURES = []


def check(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def bench(workload, seed, trace, cwd="."):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _last_word(lines, prefix):
    return next((ln.split()[-1] for ln in lines if ln.startswith(prefix)), None)


def main() -> int:
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    called = set()
    outputs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench(workload, 1, trace)
            tag = f"{workload} trace={trace}"
            check(proc.returncode == 0, f"{tag} exits 0 {proc.stderr[-300:]}")
            if proc.returncode != 0:
                continue
            lines = proc.stdout.strip().splitlines()
            outputs[(workload, trace)] = lines
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"], f"{tag} result keys and correct")
            want = spec["per_layer"] if trace else spec["end_to_end"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == {m["name"]: m["unit"] for m in want},
                  f"{tag} reports every {'per-layer' if trace else 'end-to-end'}"
                  " metric with its unit")
            if trace:
                for m in want:
                    check(any(ln.split()[:1] == [m["name"]] and ln.endswith(m["unit"])
                              for ln in lines), f"{tag} prints {m['name']}")
                path = _last_word(lines, "trace file: ")
                with open(path) as f:
                    trace_doc = json.load(f)
                check(trace_doc["missing"] == [], f"{tag} found every wrap point")
                check(all({"name", "start", "end", "parent"} <= set(s)
                          for s in trace_doc["spans"]), f"{tag} spans complete")
                called |= set(trace_doc["calls"])
            else:
                for name, unit, _ in ISSUE_METRICS:
                    check(any(ln.split()[:1] == [name] and f" {unit}" in ln
                              for ln in lines), f"{tag} prints {name} [{unit}]")

    expected = {name for _, _, name, _, _ in WRAP_POINTS if isinstance(name, str)}
    expected |= {f"sda.{phase}.{name}" for phase in ("pretrain", "finetune")
                 for name in SDA_NAMES}
    check(bool(called) and expected <= called,
          f"every wrap point is called by some workload "
          f"(never called: {sorted(expected - called)})")

    first = outputs.get(("train_focal", 0), [])
    second = bench("train_focal", 2, 0).stdout.strip().splitlines()
    for prefix in ("inputs: ", "check bundle_sha256: "):
        a, b = _last_word(first, prefix), _last_word(second, prefix)
        check(a is not None and b is not None and a != b,
              f"seed 2 gives another '{prefix.strip()}' than seed 1")

    bare = os.path.join(".bench_build", "perfbench-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("decode_long", 1, 0, cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the program: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"smoke: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
