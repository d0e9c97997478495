"""Acceptance suite: ten end-of-build checks, one reported line each.

Each test prints a single [PASS]/[FAIL] line through `capsys.disabled()` so
the verdict survives pytest's output capture.
"""
import time
from pathlib import Path

import numpy as np
import pytest

from seqdet import synth
from seqdet.evaluation import (ConfusionMatrix, det_curve,
                               epoch_reference_labels, sens_spec)
from seqdet.features import (FEATURE_DIM, deltas, differential_energy,
                             extract_features, filterbank_energies,
                             frequency_energy)
from seqdet.grammar import (TABLE1, BigramTable, GrammarParams, grammar_update)
from seqdet.hmm import forward_backward, init_model, _reestimate_one
from seqdet.labels import TARG, TARGET_CLASSES, EventLabel, collapse
from seqdet.pipeline import PipelineConfig, decode_recording, train_pipeline
from seqdet.sda import (EYEM_SDA_CONFIG, SIXWAY_SDA_CONFIG, SPSW_SDA_CONFIG,
                        corrupt, fit_pca, init_layer, init_stack)
from seqdet import signal_io
from tests.test_hmm import brute_force, loglikelihood, random_model
from tests.test_sda import (GRAD_BOUND, dae_probe_relerr,
                            finetune_probe_relerr)


def _report(capsys, num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print("\n" + line, flush=True)


def test_criterion_01_evaluation_arithmetic(capsys):
    """Published two-way percentage tables reproduce their summary numbers
    exactly when treated as counts."""
    cases = [
        (np.array([[90.10, 9.90], [4.89, 95.11]]), 90.10, 4.89),
        (np.array([[86.92, 13.08], [18.20, 81.80]]), 86.92, 18.20),
    ]
    ok = True
    for counts, want_sens, want_fa in cases:
        m = ConfusionMatrix(counts, (TARG, "BCKG"), "two_way", "per_epoch")
        s = sens_spec(m)
        ok &= s.sensitivity == want_sens and s.false_alarm == want_fa
    _report(capsys, 1, "evaluation arithmetic", ok)
    assert ok


def test_criterion_02_hmm_vs_brute_force(capsys):
    """The forward pass of Baum-Welch (forward_backward) and of pass-1
    scoring against a sum over every state path."""
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 4))
        comps = int(rng.integers(1, 3))
        t_len = int(rng.integers(2, 9))
        model = random_model(rng, n=n, comps=comps)
        obs = rng.normal(0, 2, size=(t_len, 2))
        want = np.log(brute_force(model, obs))
        _, _, ll = forward_backward(model, obs)
        worst = max(worst, abs(ll - want),
                    abs(loglikelihood(model, obs[None])[0] - want))
    ok = worst < 1e-8
    _report(capsys, 2, "forward passes vs brute force",
            ok, f"max abs log-prob error {worst:.2e}")
    assert ok


def test_criterion_03_em_monotonicity(capsys):
    rng = np.random.default_rng(99)
    n = int(40 * 250)
    classes = (EventLabel.BCKG, EventLabel.PLED, EventLabel.GPED)
    worst = np.inf
    ok = True
    for lab in classes:
        x = synth._class_signal(lab, n, rng)
        mat = extract_features(x[None]).vectors[0]
        n_ep = mat.shape[0] // 10
        epochs = mat[:n_ep * 10].reshape(n_ep, 10, FEATURE_DIM)
        model = init_model(lab, epochs, 3, 4, seed=int(lab))
        lls = []
        for _ in range(11):
            model, ll = _reestimate_one(model, epochs)
            lls.append(ll)
        diffs = np.diff(lls)  # 10 iteration-to-iteration gains
        worst = min(worst, diffs.min())
        ok &= bool((diffs >= -1e-8).all())
    _report(capsys, 3, "Baum-Welch monotonicity", ok, f"min gain {worst:.3g}")
    assert ok


def sda_gradient_relerr(seed: int) -> float:
    """Worst error of the gradients the trainer uses (dae_grad,
    finetune_grad) against their losses (dae_loss, finetune_loss) for the
    three SdA configs; config k draws from the fixed seed [seed, k]."""
    worst = 0.0
    configs = [(SPSW_SDA_CONFIG, 13), (EYEM_SDA_CONFIG, 13),
               (SIXWAY_SDA_CONFIG, 20)]
    for k, (cfg, reduced_dim) in enumerate(configs):
        rng = np.random.default_rng([seed, k])
        input_dim = cfg.window_length * reduced_dim
        layers = init_stack(input_dim, cfg.hidden, rng)
        # reconstruction loss gradients, layer by layer
        d_in = input_dim
        for layer in layers:
            clean = rng.random((8, d_in))
            noisy = corrupt(clean, cfg.corruption, rng, np.empty_like(clean))
            worst = max(worst, dae_probe_relerr(layer, clean, noisy, rng, 50))
            d_in = layer.w.shape[0]
        # classifier loss gradients through the whole stack
        out_w = init_layer(cfg.hidden[-1], cfg.outputs, rng).w
        out_b = np.zeros(cfg.outputs)
        x = rng.random((8, input_dim))
        y = rng.integers(0, cfg.outputs, size=8)
        worst = max(worst, finetune_probe_relerr(layers, out_w, out_b, x, y,
                                                 rng, 50))
    return worst


def test_criterion_04_sda_gradients(capsys):
    worst = sda_gradient_relerr(4)
    ok = worst < GRAD_BOUND
    _report(capsys, 4, "autoencoder gradient checks", ok, f"max rel err {worst:.2e}")
    assert ok


def test_criterion_05_pca_oracle(capsys):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((500, 132)) @ rng.standard_normal((132, 132)) * 0.1
    k = 20
    model = fit_pca(x, k)
    proj = model.project(x)
    recon = proj @ model.components + model.mean
    err = np.mean(np.sum((x - recon) ** 2, axis=1))
    centered = x - x.mean(axis=0)
    evals = np.sort(np.linalg.eigvalsh(centered.T @ centered / len(x)))[::-1]
    expect = evals[k:].sum()
    ok = abs(err - expect) < 1e-6
    _report(capsys, 5, "PCA reconstruction oracle", ok,
            f"|err - dropped eigensum| = {abs(err - expect):.2e}")
    assert ok


def test_criterion_06_grammar_invariants(capsys):
    rng = np.random.default_rng(8)
    uniform = BigramTable(np.full((6, 6), 1 / 6))
    params = GrammarParams()
    invariant = True
    for _ in range(100):
        p = rng.random((int(rng.integers(2, 20)), 6))
        p /= p.sum(axis=1, keepdims=True)
        out = grammar_update(p, uniform, params)
        invariant &= bool(np.array_equal(np.argmax(out, axis=1),
                                         np.argmax(p, axis=1)))

    # a certain PLED context must zero out SPSW through the forbidden
    # PLED -> SPSW transition; alpha=0 keeps the context uncontaminated
    table = BigramTable(TABLE1 / TABLE1.sum(axis=1, keepdims=True))
    p = np.zeros((3, 6))
    p[:, int(EventLabel.PLED)] = 1.0
    p[1] = np.full(6, 1 / 6)
    out = grammar_update(p, table, GrammarParams(alpha=0.0))
    zero_prop = out[1, int(EventLabel.SPSW)] < 1e-12

    raw = (TABLE1[int(EventLabel.PLED), int(EventLabel.PLED)] == 0.90
           and TABLE1[int(EventLabel.PLED), int(EventLabel.SPSW)] == 0.0)

    ok = invariant and zero_prop and raw
    _report(capsys, 6, "grammar invariants", ok,
            f"argmax invariant={invariant} zero-prop={zero_prop} table={raw}")
    assert ok


def test_criterion_07_feature_closed_forms(capsys):
    d = deltas(np.arange(80, dtype=float), 9)
    ramp_ok = bool(np.allclose(d[9:-9], 1.0, atol=1e-10))

    ed = differential_energy(np.full(50, 2.5), 9)
    const_ok = bool((ed == 0.0).all())

    rng = np.random.default_rng(9)
    x = rng.standard_normal(1000) * 40
    f1 = frequency_energy(filterbank_energies(x))
    f2 = frequency_energy(filterbank_energies(2 * x))
    shift_ok = bool(np.allclose(f2 - f1, np.log(4.0), atol=1e-6))

    dim_ok = extract_features(x[None]).vectors.shape[2] == 26

    ok = ramp_ok and const_ok and shift_ok and dim_ok
    _report(capsys, 7, "feature closed forms", ok,
            f"ramp={ramp_ok} const={const_ok} log4={shift_ok} dim26={dim_ok}")
    assert ok


# ---------------------------------------------------------------------------
# End-to-end fixture shared by criteria 8 and 9

@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    t0 = time.time()
    train_script = synth.balanced_script(10, 10, seed=10,
                                         channel_profile=synth.FOCAL_PROFILE)
    eval_script = synth.balanced_script(10, 5, seed=20,
                                        channel_profile=synth.FOCAL_PROFILE)
    train_rec, train_ann = synth.generate(train_script, seed=11)
    eval_rec, eval_ann = synth.generate(eval_script, seed=21)
    paths = {}
    for name, rec, ann in (("train", train_rec, train_ann),
                           ("eval", eval_rec, eval_ann)):
        rp, ap = str(root / f"{name}.rm"), str(root / f"{name}.csv")
        signal_io.write_recording(rec, rp)
        signal_io.write_annotations(ann, ap)
        paths[name] = (rp, ap)

    config = PipelineConfig(seed=42, bigram_source="estimate")
    bundle = train_pipeline(config, [paths["train"]])
    hyp, dumps = decode_recording(bundle, paths["eval"][0], stop_after=3)
    elapsed = time.time() - t0
    refs = epoch_reference_labels(eval_ann, dumps["pass3"].shape[0])
    return {"dumps": dumps, "refs": refs, "elapsed": elapsed, "hyp": hyp}


def _two_way(labels):
    return np.array([collapse(EventLabel(int(v)), "two_way") == TARG
                     for v in labels])


def test_criterion_08_end_to_end_recovery(e2e, capsys):
    refs = e2e["refs"]
    p3 = e2e["dumps"]["pass3"]
    labels3 = np.argmax(p3, axis=1)
    acc6 = float(np.mean(labels3 == refs))

    scores = p3[:, [int(lab) for lab in TARGET_CLASSES]].sum(axis=1)
    curve = det_curve(scores, refs, np.linspace(-0.5, 0.5, 50))
    fa, miss = curve.zero_penalty_point()
    sens = 1.0 - miss

    # pass-1 channel-majority baseline on the two-way task
    p1 = e2e["dumps"]["pass1"]
    cell = np.argmax(p1, axis=2)                       # (E, C)
    maj = np.array([np.bincount(row, minlength=6).argmax() for row in cell])
    maj2 = _two_way(maj)
    ref2 = _two_way(refs)
    hyp2 = _two_way(labels3)
    acc2_maj = float(np.mean(maj2 == ref2))
    acc2_p3 = float(np.mean(hyp2 == ref2))

    elapsed = e2e["elapsed"]
    ok = (acc6 >= 0.90 and sens >= 0.95 and fa <= 0.05
          and acc2_p3 >= acc2_maj and elapsed < 900.0)
    _report(capsys, 8, "end-to-end synthetic recovery", ok,
            f"acc6={acc6:.4f} sens={sens:.4f} fa={fa:.4f} "
            f"2way p3={acc2_p3:.4f} vs maj={acc2_maj:.4f} "
            f"runtime={elapsed:.0f}s")
    assert ok


def test_criterion_09_det_monotonicity(e2e, capsys):
    refs = e2e["refs"]
    p3 = e2e["dumps"]["pass3"]
    scores = p3[:, [int(lab) for lab in TARGET_CLASSES]].sum(axis=1)
    offsets = np.linspace(-0.5, 0.5, 50)
    curve = det_curve(scores, refs, offsets)
    _, fas, misses = np.array(curve.points).T
    mono = bool((np.diff(fas) >= 0).all() and (np.diff(misses) <= 0).all())
    on_curve = any(p[0] == 0.0 for p in curve.points)
    try:
        curve.zero_penalty_point()
    except Exception:
        on_curve = False
    ok = mono and on_curve
    _report(capsys, 9, "DET monotonicity", ok,
            f"monotone={mono} zero-point={on_curve} points={len(curve.points)}")
    assert ok


def test_criterion_10_determinism(tmp_path, capsys):
    # identical seed/config/data must give byte-identical bundles and
    # hypothesis files; a reduced corpus keeps the double run affordable
    from tests.test_pipeline_cli import FAST_CONFIG
    root = tmp_path
    rec, ann = synth.generate(synth.balanced_script(5, 2, seed=30), seed=31)
    rp, ap = str(root / "t.rm"), str(root / "t.csv")
    signal_io.write_recording(rec, rp)
    signal_io.write_annotations(ann, ap)

    artifacts = []
    for run in (1, 2):
        bundle = train_pipeline(FAST_CONFIG, [(rp, ap)])
        bpath = str(root / f"bundle{run}.seqd")
        bundle.save(bpath)
        hyp, _ = decode_recording(bundle, rp)
        hpath = str(root / f"hyp{run}.csv")
        signal_io.write_annotations(hyp, hpath)
        artifacts.append((Path(bpath).read_bytes(), Path(hpath).read_bytes()))

    bundles_equal = artifacts[0][0] == artifacts[1][0]
    hyps_equal = artifacts[0][1] == artifacts[1][1]
    ok = bundles_equal and hyps_equal
    _report(capsys, 10, "train+decode determinism", ok,
            f"bundle bytes equal={bundles_equal} hyp bytes equal={hyps_equal}")
    assert ok
