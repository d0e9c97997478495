"""Planted faults that the test suite must catch.

Each fault names a file, a piece of its text, the text to put in its place
and the tests that must fail once it is in. For each fault the runner copies
src/, tests/ and pyproject.toml (pytest's settings) into a temporary
directory, plants the fault there and runs only the named tests, so the
checkout is never touched. A fault is

    caught  every named test fails (for a parametrized test, one case is
            enough);
    MISSED  a named test passes with the fault in;
    STALE   its old text is not in the file exactly once (the code moved), or
            pytest collects none of the named tests. A stale fault is
            reported, never skipped: fix the entry or delete it.

The runner exits 1 on any MISSED or STALE fault and prints its wall time. A
change that alters code under test should add its own faults here.

    python tools/faults.py
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Fault(NamedTuple):
    name: str
    path: str        # relative to the root of the checkout
    old: str
    new: str
    tests: tuple[str, ...]


HMM, SDA, PIPELINE = "src/seqdet/hmm.py", "src/seqdet/sda.py", "src/seqdet/pipeline.py"
TEST_SDA, TEST_CLI = "tests/test_sda.py", "tests/test_pipeline_cli.py"
WORKERS = "tests/test_hmm.py::TestWorkers"
BAD_ROW = f"{TEST_CLI}::TestCli::test_bad_posterior_row_exit_code"

FAULTS = [
    Fault("fused DAE step without its decoder term", SDA,
          "    np.matmul(lhs.T, rhs, out=out)\n",
          "    np.matmul(dpre.T, x_corrupt, out=out)\n",
          (f"{TEST_SDA}::TestGradients::test_dae_gradients",
           f"{TEST_SDA}::TestTraining::test_fused_gradients_match_reference_step_by_step")),
    Fault("fine-tune bias step scaled by 1.001", SDA,
          "        g_b.append(dpre.sum(axis=0))\n",
          "        g_b.append(dpre.sum(axis=0) * 1.001)\n",
          (f"{TEST_SDA}::TestGradients::test_finetune_gradients_deep",)),
    Fault("learning rate dropped from dz", SDA,
          "    dz *= lr / (n * d)\n",
          "    dz *= 1.0 / (n * d)\n",
          (f"{TEST_SDA}::TestTraining::test_fused_gradients_match_reference_step_by_step",)),
    Fault("sigmoid without errstate around exp", SDA,
          '    with np.errstate(over="ignore"):\n        np.exp(a, out=a)\n',
          "    np.exp(a, out=a)\n",
          (f"{TEST_SDA}::TestSigmoid::test_matches_expit",
           f"{TEST_SDA}::TestSigmoid::test_matches_expit_float32")),
    Fault("_logsumexp shift zeroed on every row", HMM,
          "    dead = None if finite.all() else ~finite\n",
          "    dead = np.ones_like(finite)\n",
          ("tests/test_hmm.py::TestLogsumexp::test_live_rows_equal_masked_reference",
           "tests/test_hmm.py::TestLogsumexp::test_matches_scipy_with_neg_inf_rows")),
    Fault("pass-1 posteriors not normalized", HMM,
          "    scores -= _logsumexp(scores, axis=1)[:, None]\n",
          "",
          ("tests/test_hmm.py::TestScoring::test_decode_pass1_equals_forward_backward_on_cells",
           "tests/test_hmm.py::TestScoring::test_posterior_normalized")),
    Fault("left grammar weights not reversed", "src/seqdet/grammar.py",
          "present[:n_epochs], weights[::-1],",
          "present[:n_epochs], weights,",
          ("tests/test_grammar.py::TestWholeSequence::test_matches_loop_reference",)),
    Fault("confusion matrix transposed", "src/seqdet/evaluation.py",
          "np.bincount(index[ref] * k + index[hyp], minlength=k * k)",
          "np.bincount(index[hyp] * k + index[ref], minlength=k * k)",
          ("tests/test_eval.py::TestConfusion::test_matches_loop",)),
    Fault("posterior dump at nine digits", PIPELINE,
          '["%.10g"] * posteriors.shape[-1]',
          '["%.9g"] * posteriors.shape[-1]',
          (f"{TEST_CLI}::TestPosteriorCsv::test_bytes_match_per_value_format",)),
    Fault("posterior reader drops repeated rows", PIPELINE,
          "    per_epoch = np.count_nonzero(",
          "    table = np.unique(table, axis=0)\n"
          "    per_epoch = np.count_nonzero(",
          (f"{BAD_ROW}[repeated]",)),
    Fault("posterior reader ignores the index columns", PIPELINE,
          "    if table.shape[1] != n_index + NUM_CLASSES or not np.array_equal(\n"
          "            table[:, :n_index], np.indices(shape).reshape(n_index, -1).T):\n",
          "    if table.shape[1] != n_index + NUM_CLASSES:\n",
          (f"{BAD_ROW}[missing]",)),
    Fault("posterior reader sorts rows", PIPELINE,
          "    per_epoch = np.count_nonzero(",
          '    table = table[np.argsort(table[:, 0], kind="stable")]\n'
          "    per_epoch = np.count_nonzero(",
          (f"{BAD_ROW}[out_of_order]",)),
    Fault("SdA training windows not scaled", PIPELINE,
          "sda.sda_input(s, smin, smax, cfg.window_length)",
          "sda.make_windows(s, cfg.window_length)",
          (f"{TEST_CLI}::TestTraining::test_sdas_train_on_the_windows_decode_builds",)),
    Fault("pass-1 worker stride skips chunks", HMM,
          "        for lo in range(k * step, cells, workers * step):\n",
          "        for lo in range(k * step, cells, workers * workers * step):\n",
          (f"{WORKERS}::test_decode_pass1_equal_for_any_worker_count",)),
    Fault("pass-1 split at one chunk per CPU", HMM,
          ">= 2 * cpus else 1",
          ">= cpus else 1",
          (f"{WORKERS}::test_clip_never_uses_the_helpers",)),
    Fault("per-worker pass-1 block left at the full _BLOCK", HMM,
          "step = _chunk(bank[0], t, _BLOCK // workers)",
          "step = _chunk(bank[0], t, _BLOCK)",
          ("tests/test_hmm.py::TestScoring::"
           "test_decode_pass1_allocates_under_half_the_features",)),
    Fault("BLAS thread count not restored", "src/seqdet/parallel.py",
          "        put(before)\n",
          "",
          ("tests/test_parallel.py::test_one_blas_thread_restores_the_count",)),
    Fault("helper pool kept across a fork", "src/seqdet/parallel.py",
          "    if _pool is None or _pool[0] != os.getpid():\n",
          "    if _pool is None:\n",
          ("tests/test_parallel.py::test_forked_child_makes_its_own_helpers",)),
    Fault("synthetic minority windows not clipped", SDA,
          "    extra = np.clip(np.stack(extra), 0.0, 1.0)\n",
          "    extra = np.stack(extra)\n",
          (f"{TEST_SDA}::TestTraining::test_augment_binary",
           f"{TEST_SDA}::TestTraining::test_augment_binary_matches_reference")),
]


def _copy_checkout(dst: str) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dst, name),
                        ignore=skip)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dst)


def _failed_ids(output: str) -> list[str]:
    """The node ids of pytest's `-rf` FAILED lines."""
    return re.findall(r"^FAILED (\S+)", output, flags=re.M)


def run(fault: Fault) -> tuple[str, str]:
    """The fault's verdict (caught, MISSED or STALE) and a detail line."""
    with open(os.path.join(ROOT, fault.path)) as f:
        text = f.read()
    if text.count(fault.old) != 1:
        return "STALE", f"old text found {text.count(fault.old)} times in {fault.path}"
    with tempfile.TemporaryDirectory(prefix="seqdet-fault-") as tmp:
        _copy_checkout(tmp)
        with open(os.path.join(tmp, fault.path), "w") as f:
            f.write(text.replace(fault.old, fault.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             *fault.tests], cwd=tmp, env=env, capture_output=True, text=True,
            timeout=900)
    if proc.returncode not in (0, 1):
        return "STALE", f"pytest exit {proc.returncode}: named tests not collected"
    failed = _failed_ids(proc.stdout)
    passed = [t for t in fault.tests
              if not any(f == t or f.startswith((t + "[", t + "::")) for f in failed)]
    if passed:
        return "MISSED", "passed with the fault in: " + ", ".join(passed)
    return "caught", f"{len(failed)} failed"


def main() -> int:
    start = time.perf_counter()
    bad = 0
    for fault in FAULTS:
        t0 = time.perf_counter()
        verdict, detail = run(fault)
        bad += verdict != "caught"
        print(f"{verdict:7} {fault.name} ({fault.path}; {detail}; "
              f"{time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"{len(FAULTS) - bad} of {len(FAULTS)} faults caught, {bad} missed "
          f"or stale, in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
