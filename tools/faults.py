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
FEATURES, SIGNAL_IO = "src/seqdet/features.py", "src/seqdet/signal_io.py"
BUNDLE, GRAMMAR = "src/seqdet/bundle.py", "src/seqdet/grammar.py"
TEST_SDA, TEST_CLI = "tests/test_sda.py", "tests/test_pipeline_cli.py"
STORED = f"{TEST_CLI}::TestTraining::test_bundle_stores_sda_arrays_as_f4"
KNOB = "tests/test_knobs.py::test_key_changes_its_stage_output"
PARALLEL = "src/seqdet/parallel.py"
WORKERS = "tests/test_hmm.py::TestWorkers"
CHUNKING = f"{WORKERS}::test_decode_pass1_equal_for_any_chunking"
BAD_ROW = f"{TEST_CLI}::TestCli::test_bad_posterior_row_exit_code"
DECODE = f"{TEST_CLI}::TestDecoding"
BLOCKS = f"{DECODE}::test_outputs_equal_for_any_block_size"
CPUS = f"{DECODE}::test_outputs_equal_for_any_cpu_count"
LOADED = f"{TEST_CLI}::TestLoadRecording::test_blocks_equal_the_whole_recording"
OPENED = "tests/test_signal_io.py::TestOpenRecording"
SDA_BLOCKS = f"{TEST_SDA}::TestInference::test_blocks_agree_with_the_whole_sequence"
SDA_PASS2 = f"{TEST_SDA}::TestDecodePass2"
SDA_MEMORY = f"{SDA_PASS2}::test_holds_one_block_of_each_sda"
BLAS_THREADS = f"{TEST_CLI}::TestBlasThreads"
LABELS = "tests/test_eval.py::TestReferenceLabels"
REFERENCE = "tests/test_features.py::TestAgainstReference"

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
    Fault("left grammar weights not reversed", GRAMMAR,
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
    Fault("pass-1 forward batch offset one chunk out", HMM,
          "    for b0 in range(0, cells, width):\n",
          "    for b0 in range(0, cells, width + step):\n",
          (CHUNKING,)),
    Fault("partial last forward batch scored over the previous batch's columns", HMM,
          "_forward_last(log_a, logb[..., :b1 - b0])",
          "_forward_last(log_a, logb[..., width - (b1 - b0):])",
          (CHUNKING,)),
    Fault("scoring budget back at 4 MB", HMM,
          "_BLOCK = 1 << 18\n",
          "_BLOCK = 1 << 19\n",
          ("tests/test_hmm.py::TestScoring::test_decode_pass1_of_a_clip_allocates_under_4_mib",)),
    Fault("Baum-Welch chunked by the scoring budget", HMM,
          "_chunk(bank[0], epochs.shape[1], _TRAIN_BLOCK)",
          "_chunk(bank[0], epochs.shape[1], _BLOCK)",
          ("tests/test_hmm.py::TestChunk::test_training_does_not_read_the_scoring_budget",)),
    Fault("decode split at one group per CPU", PARALLEL,
          "count >= 2 * cpus()",
          "count >= cpus()",
          (f"{WORKERS}::test_clip_never_uses_the_helpers",)),
    Fault("a worker's stride skips a group", PARALLEL,
          "            for i in range(k, count, workers):\n",
          "            for i in range(k, count, workers * workers):\n",
          (CPUS, "tests/test_parallel.py::test_run_strides_items_across_workers")),
    Fault("a group boundary one channel out", PIPELINE,
          "        c0, c1 = i * group, (i + 1) * group\n",
          "        c0, c1 = i * group + 1, (i + 1) * group + 1\n",
          (CPUS,)),
    Fault("a helper's exception dropped", PARALLEL,
          "            if error is not None:\n                raise error\n",
          "            pass\n",
          (f"{WORKERS}::test_helper_exception_reaches_the_caller",)),
    Fault("BLAS thread count not restored", PARALLEL,
          "        put(before)\n",
          "",
          ("tests/test_parallel.py::test_one_blas_thread_restores_the_count",)),
    Fault("helper pool kept across a fork", PARALLEL,
          "    if _pool is None or _pool[0] != os.getpid():\n",
          "    if _pool is None:\n",
          ("tests/test_parallel.py::test_forked_child_makes_its_own_helpers",)),
    Fault("synthetic minority windows not clipped", SDA,
          "    extra = np.clip(np.stack(extra), 0.0, 1.0)\n",
          "    extra = np.stack(extra)\n",
          (f"{TEST_SDA}::TestTraining::test_augment_binary",
           f"{TEST_SDA}::TestTraining::test_augment_binary_matches_reference")),
    Fault("second delta pass at the first width", FEATURES,
          "deltas(block[:, 9:17], DELTA_SECOND,",
          "deltas(block[:, 9:17], DELTA_FIRST,",
          (f"{REFERENCE}::test_random_signals",
           "tests/test_features.py::TestVectorLayout::test_block_structure")),
    Fault("second delta width set to 5", FEATURES,
          "DELTA_SECOND = 3\n",
          "DELTA_SECOND = 5\n",
          (f"{REFERENCE}::test_random_signals",
           f"{REFERENCE}::test_criterion8_recording")),
    Fault("HMM states not bounded by the frames of an epoch", HMM,
          "        if self.num_states > FRAMES_PER_EPOCH:",
          "        if False:",
          ("tests/test_hmm.py::TestEmissionKernel::test_states_fit_in_an_epoch",
           f"{TEST_CLI}::TestCli::test_config_out_of_range_exit_code[hmm-num_states-500]")),
    Fault("the two PCA fits in the old order", PIPELINE,
          '    keys = sorted(("pca_detector_dim", "pca_sixway_dim"),\n'
          "                  key=lambda key: -getattr(config, key))\n",
          '    keys = ("pca_detector_dim", "pca_sixway_dim")\n',
          (f"{TEST_CLI}::TestCli::test_pca_dim_past_the_data_exit_code",)),
    Fault("grammar iteration cap ignored", GRAMMAR,
          "    for it in range(1, params.iterations + 1):\n",
          "    for it in range(1, 21):\n",
          (f"{KNOB}[grammar-iterations]",)),
    Fault("augmentation cap ignored", PIPELINE,
          "sda.augment_binary(x, y, config.augment_cap, rng)",
          "sda.augment_binary(x, y, 2000, rng)",
          (f"{KNOB}[pipeline-augment_cap]",)),
    Fault("pass-1 GEMM width not padded to a multiple of 8", HMM,
          "comp = _components(*bank, x, work, gemm_width(index.size))",
          "comp = _components(*bank, x, work)",
          ("tests/test_hmm.py::TestScoring::test_decode_pass1_equal_in_channel_blocks",
           BLOCKS)),
    Fault("raw block read one row on", SIGNAL_IO,
          "f.seek(start + 4 * i * m)",
          "f.seek(start + 4 * (i + 1) * m)",
          (f"{OPENED}::test_raw_blocks_equal_the_file", LOADED)),
    Fault("staging buffer's tail dropped", SIGNAL_IO,
          "    for lo in range(0, count, len(buf)):\n",
          "    for lo in range(0, count - len(buf) + 1, len(buf)):\n",
          (f"{OPENED}::test_raw_blocks_equal_the_file",
           f"{OPENED}::test_raw_non_finite_rejected_at_open")),
    Fault("montage block subtracts the next block's negative input", PIPELINE,
          "tuple(montage.derivations[i] for i in index))",
          "tuple(montage.derivations[i][:2] + montage.derivations["
          "(i + len(index)) % len(montage.derivations)][2:] for i in index))",
          (LOADED, BLOCKS)),
    Fault("decode reads the whole recording at once", PIPELINE,
          "    group = _group(channels, frames)\n",
          "    whole = rec.rows(0, len(rec.labels))\n"
          "    rec = replace(rec, read=lambda index: whole[index])\n"
          "    group = _group(channels, frames)\n",
          (f"{DECODE}::test_decode_holds_one_block_of_the_recording",)),
    Fault("in-memory recording not checked for non-finite samples", SIGNAL_IO,
          "            if not np.isfinite(row).all():\n",
          "            if False:\n",
          ("tests/test_signal_io.py::TestAnnotations::test_nonfinite_samples_rejected",)),
    Fault("save stores every array as f8", BUNDLE,
          "        dtype = _stored_dtype(flat)\n",
          "        dtype = _DTYPES[8]\n",
          (STORED, "tests/test_bundle.py::TestPayload::"
                   "test_each_array_stored_in_the_narrowest_exact_dtype")),
    Fault("load keeps f4 arrays as float32", BUNDLE,
          "        return np.array(arrays[path], dtype=np.float64)\n",
          "        return np.array(arrays[path])\n",
          (STORED,)),
    Fault("fine_tune hands back float64 copies", SDA,
          "    return SdaModel(layers, out_w, out_b, config.window_length, scale_min,\n",
          "    layers = [SdaLayer(*(p.astype(np.float64) for p in _params(layer)))\n"
          "              for layer in layers]\n"
          "    out_w, out_b = out_w.astype(np.float64), out_b.astype(np.float64)\n"
          "    return SdaModel(layers, out_w, out_b, config.window_length, scale_min,\n",
          (f"{TEST_SDA}::TestTraining::test_trained_model_is_float32",
           f"{TEST_SDA}::TestTraining::test_training_holds_one_copy_of_the_stack",
           STORED)),
    Fault("Baum-Welch operand misses the ones column", HMM,
          "    op[:, 0] = 1.0\n",
          "    op[:, 0] = 0.0\n",
          ("tests/test_hmm.py::TestReestimate::"
           "test_accumulators_match_per_sequence_reference",)),
    Fault("overflowing spectrum not checked", FEATURES,
          "            if not finite.all():\n",
          "            if False:\n",
          ("tests/test_features.py::TestGrid::test_overflowing_spectrum_rejected",
           f"{TEST_CLI}::TestCli::test_overflowing_spectrum_exit_code")),
    Fault("pass 2 skips the last partial block", SDA,
          "                   for lo in range(0, len(out), step)]\n",
          "                   for lo in range(0, max(len(out) - step + 1, 1), step)]\n",
          (SDA_BLOCKS,)),
    Fault("a pass-2 block's windows start one epoch late", SDA,
          "padded, model.window_length, lo, hi)",
          "padded, model.window_length, lo + (hi < len(out)), hi + (hi < len(out)))",
          (SDA_BLOCKS,)),
    Fault("pass 2 builds the whole window matrix again", SDA,
          "_window_rows(\n            padded, model.window_length, lo, hi)",
          "_window_rows(\n            padded, model.window_length, 0, len(out))[lo:hi]",
          (SDA_MEMORY,)),
    Fault("pass 2 run outside the pin", SDA,
          "    parallel.run(predict, len(blocks))\n",
          "    for i in range(len(blocks)):\n        predict(i)\n",
          (f"{BLAS_THREADS}::test_decode_never_wakes_openblas_threads",)),
    Fault("a pass-2 block's rows written one block late", SDA,
          "        out[lo:hi] = _softmax(logits)\n",
          "        out[min(hi, len(out) - (hi - lo)):][:hi - lo] = _softmax(logits)\n",
          (SDA_BLOCKS, f"{SDA_PASS2}::test_equal_for_any_worker_count")),
    Fault("a later annotation overwrites a higher-priority one",
          "src/seqdet/evaluation.py",
          "    for ev in sorted(ann.events, key=lambda ev: -rank[ev.label]):\n",
          "    for ev in ann.events:\n",
          (f"{LABELS}::test_rule_does_not_depend_on_file_order",
           f"{LABELS}::test_all_channel_event_does_not_overwrite_a_spike")),
    Fault("resampling ratio not checked at open", PIPELINE,
          "        if not 0 < ratio <= signal_io.MAX_RATIO:\n",
          "        if False:\n",
          (f"{TEST_CLI}::TestCli::test_unreachable_rate_exit_code",)),
    Fault("MemoryError left unmapped", "src/seqdet/cli.py",
          "UnicodeDecodeError, MemoryError) as exc:",
          "UnicodeDecodeError) as exc:",
          (f"{TEST_CLI}::TestCli::test_unallocatable_config_exit_code",)),
    Fault("EYEM generated as background", "src/seqdet/synth.py",
          "return base + 150.0 * np.sin(",
          "return base + 0.0 * np.sin(",
          ("tests/test_synth.py::TestGenerate::test_classes_separated_on_every_used_seed",)),
    Fault("TABLE1 normalized along its columns", GRAMMAR,
          "BigramTable(TABLE1 / TABLE1.sum(axis=1, keepdims=True))",
          "BigramTable(TABLE1.T / TABLE1.sum(axis=0)[:, None])",
          ("tests/test_grammar.py::TestTable::"
           "test_table1_bigram_is_the_printed_table_over_its_row_sums",)),
    Fault("decay weights computed outside errstate", GRAMMAR,
          '    with np.errstate(over="ignore"):  # exp(-inf) is the intended 0\n'
          "        weights = np.exp(",
          "    weights = np.exp(",
          ("tests/test_grammar.py::TestDecode::test_huge_weights_decode_without_warnings",)),
    Fault("a helper's pass-2 exception dropped", PARALLEL,
          "errors = [f.exception() for f in futures]",
          "errors = [f.exception() and None for f in futures]",
          (f"{SDA_PASS2}::test_helper_exception_reaches_the_caller",)),
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
