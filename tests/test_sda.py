import copy
import dataclasses
import logging
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from seqdet import parallel, sda
from seqdet.errors import DataError, NumericError
from seqdet.labels import TARGET_CLASSES, EventLabel
from seqdet.sda import (EYEM_SDA_CONFIG, SIXWAY_SDA_CONFIG, SPSW_SDA_CONFIG,
                        SUPERVECTOR_DIM, PcaModel, SdaConfig, SdaLayer,
                        SdaModel, _minibatches, _sigmoid, _softmax,
                        augment_binary, corrupt,
                        dae_buffers, dae_grad, dae_loss,
                        decode_pass2, encode, enhance,
                        fine_tune, finetune_grad, finetune_loss, fit_pca,
                        fit_scaling, init_layer, init_stack, make_windows,
                        predict_sequences, pretrain, sda_input,
                        reduce_sequence_for_detectors, scale_input,
                        supervector_sequence, SecondPassModels)


def random_grid(rng, epochs=5, channels=22):
    """Pass-1 posteriors, (epochs, channels, 6)."""
    p = rng.random((epochs, channels, 6))
    p /= p.sum(axis=2, keepdims=True)
    return p


def build_supervector(grid, epoch):
    """Reference for supervector_sequence: one epoch's (channels, 6) scores
    flattened channel-major."""
    return grid[epoch].reshape(-1).copy()


class TestSupervectors:
    def test_layout_channel_major(self):
        rng = np.random.default_rng(0)
        grid = random_grid(rng)
        sv = supervector_sequence(grid)[2]
        assert sv.shape == (132,)
        np.testing.assert_array_equal(sv[:6], grid[2, 0])
        np.testing.assert_array_equal(sv[6:12], grid[2, 1])

    def test_sequence_matches_single(self):
        rng = np.random.default_rng(1)
        grid = random_grid(rng, epochs=4)
        seq = supervector_sequence(grid)
        assert seq.shape == (4, 132)
        for e in range(4):
            np.testing.assert_array_equal(seq[e], build_supervector(grid, e))

    def test_channel_count_enforced(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DataError):
            supervector_sequence(random_grid(rng, channels=10))


class TestPca:
    def test_reconstruction_error_equals_dropped_eigenvalues(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((300, 20)) @ rng.standard_normal((20, 20))
        k = 8
        model = fit_pca(x, k)
        proj = model.project(x)
        recon = proj @ model.components + model.mean
        err = np.mean(np.sum((x - recon) ** 2, axis=1))
        centered = x - x.mean(axis=0)
        evals = np.sort(np.linalg.eigvalsh(centered.T @ centered / len(x)))[::-1]
        np.testing.assert_allclose(err, evals[k:].sum(), rtol=1e-8)

    def test_orthonormal_rows(self):
        rng = np.random.default_rng(4)
        model = fit_pca(rng.standard_normal((100, 15)), 6)
        np.testing.assert_allclose(model.components @ model.components.T,
                                   np.eye(6), atol=1e-10)

    def test_variance_ordering(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((500, 10)) * np.arange(1, 11)
        proj = fit_pca(x, 5).project(x)
        v = proj.var(axis=0)
        assert (np.diff(v) <= 1e-9).all()

    def test_repeated_eigenvalue_basis_is_canonical(self):
        # a threefold eigenvalue (dims 0-2, isotropic whatever their
        # rotation) has no preferred basis; fit_pca must not return eigh's,
        # which follows roundoff, but one fixed by the eigenspace alone
        base = np.zeros((12, 6))
        base[:3, :3], base[3:6, :3] = 2 * np.eye(3), -2 * np.eye(3)
        for j, b in enumerate((1.0, 0.7, 0.5)):
            base[6 + 2 * j, 3 + j], base[7 + 2 * j, 3 + j] = b, -b
        comps = []
        for seed in (1, 2):
            rot = np.eye(6)
            rot[:3, :3] = np.linalg.qr(
                np.random.default_rng(seed).standard_normal((3, 3)))[0]
            comps.append(fit_pca(base @ rot, 4).components)
        np.testing.assert_allclose(comps[0], comps[1], atol=1e-12)
        np.testing.assert_allclose(comps[0] @ comps[0].T, np.eye(4), atol=1e-12)

    def test_rank_deficiency_padded(self, caplog):
        rng = np.random.default_rng(6)
        base = rng.standard_normal((50, 3))
        x = base @ rng.standard_normal((3, 12))  # rank 3 in 12 dims
        with caplog.at_level(logging.WARNING, logger="seqdet.sda"):
            model = fit_pca(x, 6)
        assert "keeping 3 of 6 components" in caplog.text
        assert model.components.shape == (6, 12)
        np.testing.assert_array_equal(model.components[3:], 0.0)

    def test_detector_smoothing(self):
        seq = np.arange(15, dtype=float).reshape(5, 3)
        out = reduce_sequence_for_detectors(seq)
        np.testing.assert_allclose(out[2], seq[1:4].mean(axis=0))
        np.testing.assert_allclose(out[0], (2 * seq[0] + seq[1]) / 3.0)


class TestLayers:
    def test_init_bound(self):
        rng = np.random.default_rng(7)
        layer = init_layer(50, 30, rng)
        bound = 4.0 * np.sqrt(6.0 / 80)
        assert np.abs(layer.w).max() <= bound
        assert (layer.b == 0).all() and (layer.b_prime == 0).all()

    def test_stack_shapes(self):
        rng = np.random.default_rng(8)
        layers = init_stack(39, (100, 100, 100), rng)
        assert [l.w.shape for l in layers] == [(100, 39), (100, 100), (100, 100)]

    def test_corruption_rate(self):
        rng = np.random.default_rng(9)
        x = np.ones((200, 50))
        c = corrupt(x, 0.3, rng, np.empty_like(x))
        rate = 1.0 - c.mean()
        assert abs(rate - 0.3) < 0.02
        # level 0 copies and draws nothing, so the stream is unchanged
        state = rng.bit_generator.state
        out = np.zeros_like(x)
        assert corrupt(x, 0.0, rng, out) is out
        np.testing.assert_array_equal(out, x)
        assert rng.bit_generator.state == state

    def test_encode_range(self):
        rng = np.random.default_rng(10)
        layers = init_stack(10, (20, 5), rng)
        h = encode(layers, rng.random((7, 10)))
        assert h.shape == (7, 5)
        assert ((h > 0) & (h < 1)).all()


# Error model of a sigmoid computed as 1 / (1 + exp(-x)) in float64 or
# float32: the exp (numpy's SIMD exp here, the C library's behind scipy's
# expit) is within 4 ulp, the add and the reciprocal round once each, so the
# result is within 5 ulp of the true value wherever it is normal (TINY keeps
# a margin above the subnormals), and within 10 ulp <= 10 eps relative of
# expit, which is itself within 5 ulp in float64 (and far closer than a
# float32 ulp when it is given the float32 input in float64). exp(-x)
# overflows for x < -log(max), 709.78 in float64 and 88.72 in float32, where
# the true value is below 1 / max.
TINY = {np.float64: 1e-300, np.float32: 1e-36}


def assert_sigmoid_matches_expit(dtype):
    info = np.finfo(dtype)
    overflow_x = np.log(info.max)  # in float64
    bound = 10 * info.eps
    x = np.concatenate([
        np.linspace(-800.0, 800.0, 160_001),
        np.random.default_rng(30).uniform(-40.0, 40.0, 20_000),
        np.nextafter(dtype(-overflow_x), [dtype(-np.inf), dtype(np.inf)]),
        [0.0, -0.0, np.inf, -np.inf, np.nan]]).astype(dtype)
    want = expit(x.astype(np.float64))
    a = x.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _sigmoid(a)
    assert got is a and got.dtype == dtype
    normal = want >= TINY[dtype]
    np.testing.assert_array_less(
        np.abs(got[normal] - want[normal]), bound * want[normal])
    tiny = ~normal & (x >= -overflow_x)
    assert tiny.any()
    np.testing.assert_array_less(np.abs(got[tiny] - want[tiny]),
                                 bound * TINY[dtype])
    overflow = x < -overflow_x
    assert overflow.sum() > 1
    assert (got[overflow] == 0.0).all() and (want[overflow] < 1 / info.max).all()
    assert np.isnan(got[np.isnan(x)]).all()
    assert (got[x == np.inf] == 1.0).all() and (got[x == 0.0] == 0.5).all()


class TestSigmoid:
    def test_matches_expit(self):
        assert_sigmoid_matches_expit(np.float64)

    def test_matches_expit_float32(self):
        assert_sigmoid_matches_expit(np.float32)


# Central differences in float64. The difference quotient carries roundoff
# of about C * machine epsilon * |loss| / eps and truncation error O(eps^2),
# about 1e-7 relative at eps = 1e-4. A gradient entry below
# roundoff / GRAD_BOUND cannot be resolved to the bound, so there the check
# is absolute. On the SdA losses C measured at most 6 for gradients below
# 1e-6, where the floor acts; FD_ROUNDOFF = 32 leaves a margin of five.
FD_EPS = 1e-4
FD_ROUNDOFF = 32
GRAD_BOUND = 1e-4


def probe_relerr(loss_fn, param, grad, rng, probes=20, eps=FD_EPS):
    """Worst relative error of `grad` against central differences of
    `loss_fn` on random coordinates of `param`, perturbed in place."""
    flat = param.reshape(-1)
    gflat = grad.reshape(-1)
    idx = rng.choice(flat.size, size=min(probes, flat.size), replace=False)
    worst = 0.0
    for i in idx:
        orig = flat[i]
        flat[i] = orig + eps
        fp = loss_fn()
        flat[i] = orig - eps
        fm = loss_fn()
        flat[i] = orig
        num = (fp - fm) / (2 * eps)
        roundoff = FD_ROUNDOFF * np.finfo(np.float64).eps * max(abs(fp), abs(fm)) / eps
        denom = max(abs(num), abs(gflat[i]), roundoff / GRAD_BOUND)
        worst = max(worst, abs(num - gflat[i]) / denom)
    return worst


def float64_layer(layer):
    """A float64 copy of `layer`, whose parameters train in float32: the
    finite-difference checks and the float64 reference loops run on it."""
    return SdaLayer(*(p.astype(np.float64) for p in (layer.w, layer.b, layer.b_prime)))


def dae_probe_relerr(layer, clean, noisy, rng, probes=20):
    """Worst error of dae_grad against central differences of dae_loss over
    the layer's w, b and b_prime, in that order, in float64."""
    layer = float64_layer(layer)
    bufs = dae_buffers(layer, len(clean))
    bufs[1][:len(clean)] = noisy
    grads = dae_grad(layer, clean, bufs, 1.0)
    loss_fn = lambda: dae_loss(layer, clean, noisy)
    return max(probe_relerr(loss_fn, p, g, rng, probes)
               for p, g in zip((layer.w, layer.b, layer.b_prime), grads))


def finetune_probe_relerr(layers, out_w, out_b, x, y, rng, probes=20):
    """Worst error of finetune_grad against central differences of
    finetune_loss over each layer's (w, b) and then (out_w, out_b), in
    float64."""
    layers = [float64_layer(layer) for layer in layers]
    out_w, out_b = out_w.astype(np.float64), out_b.astype(np.float64)
    weights = [layer.w for layer in layers] + [out_w]
    biases = [layer.b for layer in layers] + [out_b]
    g_w, g_b = finetune_grad(layers, out_w, out_b, x, y,
                             [np.empty_like(w) for w in weights], 1.0)
    loss_fn = lambda: finetune_loss(layers, out_w, out_b, x, y)
    return max(probe_relerr(loss_fn, p, g, rng, probes)
               for pair in zip(zip(weights, g_w), zip(biases, g_b))
               for p, g in pair)


def dae_gradient_relerr(seed):
    rng = np.random.default_rng(seed)
    layer = init_layer(9, 7, rng)
    clean = rng.random((6, 9))
    noisy = corrupt(clean, 0.3, rng, np.empty_like(clean))
    return dae_probe_relerr(layer, clean, noisy, rng)


def finetune_gradient_relerr(seed):
    rng = np.random.default_rng(seed)
    layers = init_stack(8, (10, 6), rng)
    out_w = init_layer(6, 3, rng).w
    out_b = np.zeros(3)
    x = rng.random((5, 8))
    y = rng.integers(0, 3, size=5)
    return finetune_probe_relerr(layers, out_w, out_b, x, y, rng)


# The trainer's gradients as first written, one fresh array per term, kept
# as references for the fused in-place dae_grad and finetune_grad. They
# follow the dtype of their inputs, so the loops below run in float64 or in
# float32.

def dae_grad_reference(layer, x_clean, x_corrupt):
    x_clean = np.atleast_2d(x_clean)
    x_corrupt = np.atleast_2d(x_corrupt)
    n, d = x_clean.shape
    y = expit(x_corrupt @ layer.w.T + layer.b)
    z = expit(y @ layer.w + layer.b_prime)
    dz = (z - x_clean) / (n * d)
    g_bp = dz.sum(axis=0)
    g_w_dec = y.T @ dz
    dy = dz @ layer.w.T
    dpre = dy * y * (1.0 - y)
    g_w_enc = dpre.T @ x_corrupt
    g_b = dpre.sum(axis=0)
    return g_w_enc + g_w_dec, g_b, g_bp


def finetune_grad_reference(layers, out_w, out_b, x, y):
    x = np.atleast_2d(x)
    y = np.asarray(y, dtype=np.intp)
    n = x.shape[0]
    acts = [x]
    h = x
    for layer in layers:
        h = expit(h @ layer.w.T + layer.b)
        acts.append(h)
    probs = _softmax(h @ out_w.T + out_b)

    dlogits = probs.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    g_out_w = dlogits.T @ h
    g_out_b = dlogits.sum(axis=0)
    dh = dlogits @ out_w
    g_layers = []
    for layer, a_in, a_out in zip(reversed(layers), reversed(acts[:-1]),
                                  reversed(acts[1:])):
        dpre = dh * a_out * (1.0 - a_out)
        g_layers.append((dpre.T @ a_in, dpre.sum(axis=0)))
        dh = dpre @ layer.w
    g_layers.reverse()
    return g_layers, g_out_w, g_out_b


def pretrain_reference(layers, data, config, rng, on_step=None):
    """The pretraining loop over dae_grad_reference, in the dtype of `data`
    and `layers`. `on_step(layer, clean, noisy, grads)` sees each step's
    reference gradients before they are applied."""
    codes = data
    for layer in layers:
        for _ in range(config.pretrain_epochs):
            for idx in _minibatches(len(codes), config.pretrain_batch, rng):
                clean = codes[idx]
                noisy = corrupt(clean, config.corruption, rng, np.empty_like(clean))
                grads = dae_grad_reference(layer, clean, noisy)
                if on_step:
                    on_step(layer, clean, noisy, grads)
                gw, gb, gbp = grads
                layer.w -= config.pretrain_lr * gw
                layer.b -= config.pretrain_lr * gb
                layer.b_prime -= config.pretrain_lr * gbp
        codes = expit(codes @ layer.w.T + layer.b)
    return layers


def fine_tune_reference(layers, x, y, config, rng, on_step=None):
    """The fine-tuning loop over finetune_grad_reference, in the dtype of `x`
    and `layers`; the output layer is drawn in float64 and rounded to it.
    `on_step(layers, out_w, out_b, x, y, grads)` sees each step's reference
    gradients before they are applied."""
    out_w = init_layer(layers[-1].w.shape[0], config.outputs, rng).w
    out_w = out_w.astype(x.dtype)
    out_b = np.zeros(config.outputs, x.dtype)
    for _ in range(config.finetune_epochs):
        for idx in _minibatches(len(x), config.finetune_batch, rng):
            grads = finetune_grad_reference(layers, out_w, out_b, x[idx], y[idx])
            if on_step:
                on_step(layers, out_w, out_b, x[idx], y[idx], grads)
            g_layers, g_ow, g_ob = grads
            for layer, (gw, gb) in zip(layers, g_layers):
                layer.w -= config.finetune_lr * gw
                layer.b -= config.finetune_lr * gb
            out_w -= config.finetune_lr * g_ow
            out_b -= config.finetune_lr * g_ob
    return layers, out_w, out_b


class TestSelfChecks:
    @pytest.mark.parametrize("key, value", [
        ("corruption", 1.5), ("window_length", 0), ("pretrain_batch", 0),
        ("finetune_batch", 0), ("hidden", ()), ("hidden", (4, 0)),
        ("pretrain_lr", np.nan), ("finetune_lr", -1.0)])
    def test_config_rejected(self, key, value):
        fields = {"name": "x", "window_length": 3, "hidden": (4,), "outputs": 2}
        with pytest.raises(DataError, match=key):
            SdaConfig(**{**fields, key: value})

    def test_pca_mean_matches_components(self):
        with pytest.raises(DataError, match="components has shape"):
            PcaModel(np.zeros(5), np.zeros((2, 4)))

    @pytest.mark.parametrize("key", ["b", "b_prime"])
    def test_layer_biases_match_weights(self, key):
        layer = init_layer(4, 3, np.random.default_rng(21))
        fields = {"w": layer.w, "b": layer.b, "b_prime": layer.b_prime}
        fields[key] = fields[key][:-1]
        with pytest.raises(DataError, match=f"{key} has shape"):
            SdaLayer(**fields)

    @staticmethod
    def model_fields(**changes):
        """A working model, 3 windows of 4 scaled dims -> 5 -> 2 classes,
        with `changes` applied."""
        fields = {"layers": init_stack(12, (5,), np.random.default_rng(22)),
                  "out_w": np.zeros((2, 5)), "out_b": np.zeros(2),
                  "window_length": 3, "scale_min": np.zeros(4),
                  "scale_max": np.ones(4)}
        return {**fields, **changes}

    @pytest.mark.parametrize("key", ["scale_min", "scale_max", "out_b"])
    def test_short_vector_rejected(self, key):
        SdaModel(**self.model_fields())
        with pytest.raises(DataError, match=f"{key} has shape"):
            SdaModel(**self.model_fields(**{key: np.zeros(3 if "scale" in key else 1)}))

    @pytest.mark.parametrize("changes", [
        {"window_length": 0}, {"window_length": 5}, {"layers": []},
        {"out_w": np.zeros((2, 4))}])
    def test_chain_checked(self, changes):
        with pytest.raises(DataError):
            SdaModel(**self.model_fields(**changes))


class TestGradients:
    def test_dae_gradients(self):
        assert dae_gradient_relerr(11) < GRAD_BOUND

    def test_finetune_gradients_deep(self):
        assert finetune_gradient_relerr(12) < GRAD_BOUND


FAST = SdaConfig("fast", window_length=3, hidden=(16, 16), outputs=2,
                 pretrain_epochs=30, pretrain_batch=32,
                 finetune_epochs=120, finetune_batch=32)


class TestTraining:
    def test_pretraining_reduces_loss(self):
        rng = np.random.default_rng(13)
        data = rng.random((200, 12))
        layers = init_stack(12, (8,), rng)
        noisy = corrupt(data, 0.3, np.random.default_rng(99), np.empty_like(data))
        before = dae_loss(layers[0], data, noisy)
        pretrain(layers, data, FAST, rng)
        after = dae_loss(layers[0], data, noisy)
        assert after < before

    DIFF = SdaConfig("diff", window_length=1, hidden=(10, 6), outputs=3,
                     pretrain_epochs=5, pretrain_batch=30,
                     finetune_epochs=5, finetune_batch=30)

    @staticmethod
    def problem():
        """The data, labels and initial float32 stack every trainer test
        starts from."""
        data_rng = np.random.default_rng(26)
        x = data_rng.random((120, 12))
        y = data_rng.integers(0, 3, size=120)
        return x, y, init_stack(12, TestTraining.DIFF.hidden, data_rng)

    @staticmethod
    def params(layers, *out):
        return [p for l in layers for p in (l.w, l.b, l.b_prime)] + list(out)

    @staticmethod
    def fused_and_reference(cfg, ref_dtype):
        """Pretrain, then fine-tune, one initial stack with the trainer and
        with the reference loops run in `ref_dtype`, from equal RNGs. Returns
        the initial layer parameters, then for each side its final
        parameters (layers, then out_w and out_b) and its RNG's next draw."""
        x, y, init = TestTraining.problem()
        params = TestTraining.params
        ref_init = [SdaLayer(*(p.astype(ref_dtype) for p in params([l])))
                    for l in init]
        ref_x = x.astype(ref_dtype)
        ref_rng, rng = np.random.default_rng(27), np.random.default_rng(27)
        ref_layers = pretrain_reference(ref_init, ref_x, cfg, ref_rng)
        layers = pretrain(copy.deepcopy(init), x, cfg, rng)
        _, ref_out_w, ref_out_b = fine_tune_reference(ref_layers, ref_x, y, cfg,
                                                      ref_rng)
        model = fine_tune(layers, x, y, cfg, rng, np.zeros(12), np.ones(12))
        return (params(init), (params(model.layers, model.out_w, model.out_b),
                               rng.random()),
                (params(ref_layers, ref_out_w, ref_out_b), ref_rng.random()))

    def test_fused_gradients_match_reference_step_by_step(self):
        # float64: at every step of the reference loops' trajectory (20
        # pretraining steps on each of two layers, then 20 fine-tuning
        # steps), dae_grad and finetune_grad give lr times the reference
        # gradients; at corruption 0 the clean batch is the corrupted input
        x, y, init = self.problem()
        steps = []

        def check(got, want, lr):
            steps.append(len(got))
            for g, w in zip(got, want):
                assert g.dtype == np.float64
                np.testing.assert_allclose(g, lr * w, rtol=0, atol=1e-12)

        for corruption in (self.DIFF.corruption, 0.0):
            cfg = dataclasses.replace(self.DIFF, corruption=corruption)

            def on_dae(layer, clean, noisy, grads):
                bufs = dae_buffers(layer, len(clean))
                bufs[1][:len(clean)] = noisy
                check(dae_grad(layer, clean, bufs, cfg.pretrain_lr), grads,
                      cfg.pretrain_lr)

            def on_finetune(layers, out_w, out_b, xb, yb, grads):
                g_layers, g_ow, g_ob = grads
                weights = [l.w for l in layers] + [out_w]
                g_w, g_b = finetune_grad(layers, out_w, out_b, xb, yb,
                                         [np.empty_like(w) for w in weights],
                                         cfg.finetune_lr)
                check(g_w + g_b, [g for g, _ in g_layers] + [g_ow]
                      + [g for _, g in g_layers] + [g_ob], cfg.finetune_lr)

            rng = np.random.default_rng(27)
            layers = pretrain_reference([float64_layer(l) for l in init], x,
                                        cfg, rng, on_dae)
            fine_tune_reference(layers, x, y, cfg, rng, on_finetune)
        assert steps == 2 * (40 * [3] + 20 * [6])

    # The trainer (float32) against the reference loops run in float32. Both
    # start from the same rounded parameters and draw the same batches, so
    # they differ only in the order and placement of roundings. A step sets
    # p to fl(p - s): the subtraction rounds once, by at most half an ulp of
    # P = max |p|, eps * P / 2. Each side computes s = lr * gradient along at
    # most K = 70 roundings (a GEMM sum over 2n = 60 rows, then the sigmoid
    # and the elementwise steps), so the two sides' s differ by at most
    # K * eps * max |s|; here max |s| < 0.06 < P / 50, which makes that under
    # 1.4 eps * P. Each step thus adds under 2 eps * P to the difference, and
    # S steps under 2 S eps * P; a factor 2 covers the growth of earlier
    # differences through later steps (a step map 1 + lr * L with
    # (1 + lr * L)^S < 2). S = 40 for the layers (20 pretraining and 20
    # fine-tuning steps). Measured: 2.4e-7 against a bound of 5.8e-5.
    TRAIN_STEPS = 40

    def test_fused_steps_match_reference_loop(self):
        for corruption in (self.DIFF.corruption, 0.0):
            cfg = dataclasses.replace(self.DIFF, corruption=corruption)
            _, (got, draw), (want, ref_draw) = self.fused_and_reference(
                cfg, np.float32)
            assert draw == ref_draw  # same draws, same order
            bound = (4 * self.TRAIN_STEPS * np.finfo(np.float32).eps
                     * max(np.abs(w).max() for w in want))
            for g, w in zip(got, want):
                assert g.dtype == w.dtype == np.float32
                np.testing.assert_allclose(g, w, rtol=0, atol=bound)

    def test_zero_rates_leave_parameters_unchanged(self):
        # the rate scales the whole step: at 0 nothing moves from the
        # float32 start (the output layer's float64 draw rounded once), bit
        # for bit, and the RNG is drawn as the reference loops draw it
        cfg = dataclasses.replace(self.DIFF, pretrain_lr=0.0, finetune_lr=0.0)
        init, (got, draw), (want, ref_draw) = self.fused_and_reference(
            cfg, np.float64)
        assert draw == ref_draw
        for g, w in zip(got, init + want[len(init):]):
            rounded = w.astype(np.float32)
            assert g.shape == w.shape and g.tobytes() == rounded.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_pretrain_non_finite_weight_raises(self, value):
        # also at rate 0, where the step is 0 times the gradient: 0 * inf is
        # NaN, so the guard still sees it
        for lr in (FAST.pretrain_lr, 0.0):
            rng = np.random.default_rng(28)
            layers = init_stack(12, FAST.hidden, rng)
            layers[0].w[3, 5] = value
            with pytest.raises(NumericError,
                               match=r"^non-finite pretraining gradient "
                                     r"on layer with shape \(16, 12\)$"):
                pretrain(layers, rng.random((64, 12)),
                         dataclasses.replace(FAST, pretrain_lr=lr), rng)

    def test_fine_tune_non_finite_weight_raises(self):
        for lr in (FAST.finetune_lr, 0.0):
            rng = np.random.default_rng(29)
            layers = init_stack(12, FAST.hidden, rng)
            layers[1].w[2, 7] = np.nan
            with pytest.raises(NumericError,
                               match="^non-finite fine-tuning gradient$"):
                fine_tune(layers, rng.random((64, 12)), rng.integers(0, 2, 64),
                          dataclasses.replace(FAST, finetune_lr=lr), rng,
                          np.zeros(4), np.ones(4))

    def test_fine_tune_learns_separable_problem(self):
        rng = np.random.default_rng(14)
        n = 150
        x = np.concatenate([rng.random((n, 12)) * 0.4,
                            0.6 + rng.random((n, 12)) * 0.4])
        y = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
        layers = init_stack(12, FAST.hidden, rng)
        pretrain(layers, x, FAST, rng)
        model = fine_tune(layers, x, y, FAST, rng, np.zeros(4), np.ones(4))
        [probs] = predict_sequences([(
            SdaModel(model.layers, model.out_w, model.out_b, 1, np.zeros(12),
                     np.ones(12)), x)])
        acc = np.mean(np.argmax(probs, axis=1) == y)
        assert acc > 0.95

    def test_trained_model_is_float32(self):
        # the parameters are float32 from init_layer on, and training
        # updates the given arrays in place; inference runs in float64
        rng = np.random.default_rng(31)
        x = rng.random((64, 12))
        layers = init_stack(12, FAST.hidden, rng)
        arrays = [p for l in layers for p in (l.w, l.b, l.b_prime)]
        assert all(a.dtype == np.float32 for a in arrays)
        assert pretrain(layers, x, FAST, rng) is layers
        model = fine_tune(layers, x, rng.integers(0, 2, 64), FAST, rng,
                          np.zeros(4), np.ones(4))
        assert model.layers is layers
        assert all(p is a for p, a in zip(
            (p for l in model.layers for p in (l.w, l.b, l.b_prime)), arrays))
        assert model.out_w.dtype == model.out_b.dtype == np.float32
        assert model.scale_min.dtype == model.scale_max.dtype == np.float64
        assert encode(model.layers, x).dtype == np.float64
        assert encode(model.layers, x.astype(np.float32)).dtype == np.float64
        assert predict_sequences([(
            dataclasses.replace(model, window_length=1, scale_min=np.zeros(12),
                                scale_max=np.ones(12)), x)])[0].dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float64, np.float16])
    def test_stack_of_another_dtype_rejected(self, dtype):
        # training updates the layers in place, so another dtype is refused,
        # not copied
        rng = np.random.default_rng(33)
        layers = init_stack(12, FAST.hidden, rng)
        layers[1] = SdaLayer(layers[1].w, layers[1].b.astype(dtype),
                             layers[1].b_prime)
        x = rng.random((64, 12))
        with pytest.raises(DataError, match=rf"^layers/1/b is {np.dtype(dtype)}, "
                                            r"training needs float32$"):
            pretrain(layers, x, FAST, rng)
        with pytest.raises(DataError, match=r"^layers/1/b is "):
            fine_tune(layers, x, rng.integers(0, 2, 64), FAST, rng,
                      np.zeros(4), np.ones(4))

    def test_training_holds_one_copy_of_the_stack(self):
        # the 6-way shapes, 820 -> 800 -> 500 -> 300 -> 6, on 60 rows: drawn
        # in float32 and trained in place, the stack (4.8 MB) and
        # fine_tune's step buffers (4.8 MB) are all that training holds at
        # its peak, besides the rows' float32 copies and activations
        # (1.2 MB measured; 1.5 MB allowed): 10.9 MB measured against a
        # bound of 11.2 MB. A float64 stack with float32 working copies
        # holds another 9.7 MB (20.5 MB measured)
        cfg = dataclasses.replace(SIXWAY_SDA_CONFIG, pretrain_epochs=1,
                                  finetune_epochs=1)
        rng = np.random.default_rng(34)
        x = rng.random((60, 820))
        y = rng.integers(0, 6, 60)
        tracemalloc.start()
        try:
            layers = init_stack(820, cfg.hidden, rng)
            pretrain(layers, x, cfg, rng)
            fine_tune(layers, x, y, cfg, rng, np.zeros(20), np.ones(20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = sum(l.w.nbytes + l.b.nbytes + l.b_prime.nbytes for l in layers)
        assert stack == 4 * (820 * 800 + 800 * 500 + 500 * 300 + 800 + 500 + 300
                             + 820 + 800 + 500)
        assert peak < 2 * stack + 1.5e6

    def test_deterministic_given_seed(self):
        rng1 = np.random.default_rng(15)
        rng2 = np.random.default_rng(15)
        data = np.random.default_rng(0).random((80, 10))
        l1 = pretrain(init_stack(10, (6,), rng1), data, FAST, rng1)
        l2 = pretrain(init_stack(10, (6,), rng2), data, FAST, rng2)
        np.testing.assert_array_equal(l1[0].w, l2[0].w)

    def test_bad_labels_rejected(self):
        rng = np.random.default_rng(16)
        layers = init_stack(6, (4,), rng)
        with pytest.raises(DataError):
            fine_tune(layers, np.random.rand(10, 6), np.full(10, 5), FAST, rng,
                      np.zeros(2), np.ones(2))

    def test_augment_binary(self):
        rng = np.random.default_rng(17)
        x = (rng.random((45, 8)) > 0.5).astype(np.float64)  # on the range's ends
        y = np.r_[np.ones(40, dtype=np.intp), np.zeros(5, dtype=np.intp)]
        out, labels = augment_binary(x, y, 2000, rng)
        assert out.shape == (80, 8)
        np.testing.assert_array_equal(out[:45], x)
        np.testing.assert_array_equal(labels, np.r_[y, np.zeros(35, dtype=np.intp)])
        # synthetic windows stay in the scaled range
        assert out.min() >= 0.0 and out.max() <= 1.0
        same = augment_binary(x, y, 5, rng)
        assert same[0] is x and same[1] is y

    @pytest.mark.parametrize("minority, n_minority, cap", [
        (0, 6, 2000), (1, 6, 2000), (0, 6, 20), (1, 6, 20), (0, 1, 2000),
        (1, 0, 2000)], ids=["minority0", "minority1", "cap_below0", "cap_below1",
                            "one_minority", "no_minority"])
    def test_augment_binary_matches_reference(self, minority, n_minority, cap):
        # same windows, labels and generator state as the two-function
        # augmenter it replaced
        rng = np.random.default_rng(18)
        x = rng.uniform(-0.1, 1.1, size=(40 + n_minority, 5))
        y = np.full(len(x), 1 - minority, dtype=np.intp)
        y[rng.permutation(len(x))[:n_minority]] = minority
        got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = augment_binary(x, y, cap, got_rng)
        want = augment_binary_reference(x, y, cap, want_rng)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
            assert g.dtype == w.dtype
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def augment_rare_reference(samples, target, rng):
    """The per-class augmenter of augment_binary's two-function form."""
    samples = np.asarray(samples, dtype=np.float64)
    if len(samples) >= target:
        return samples
    if len(samples) < 2:
        raise DataError("augmentation needs at least 2 seed samples")
    sigma = 0.05 * samples.std(axis=0)
    extra = []
    for _ in range(target - len(samples)):
        i, j = rng.choice(len(samples), size=2, replace=False)
        t = rng.random()
        v = t * samples[i] + (1.0 - t) * samples[j]
        extra.append(v + rng.normal(0.0, 1.0, size=v.shape) * sigma)
    return np.concatenate([samples, np.stack(extra)])


def augment_binary_reference(x, y, cap, rng):
    """The two-function form of augment_binary: the reference for it."""
    counts = [int(np.sum(y == c)) for c in (0, 1)]
    minority = int(np.argmin(counts))
    target = min(max(counts), cap)
    members = x[y == minority]
    if len(members) >= target or len(members) < 2:
        return x, y
    grown = augment_rare_reference(members, target, rng)
    extra = np.clip(grown[len(members):], 0.0, 1.0)
    x_out = np.concatenate([x, extra])
    y_out = np.concatenate([y, np.full(len(extra), minority, dtype=y.dtype)])
    return x_out, y_out


class TestInference:
    def test_scaling(self):
        seq = np.array([[0.0, 10.0], [5.0, 10.0], [10.0, 10.0]])
        mn, mx = fit_scaling(seq)
        scaled = scale_input(seq, mn, mx)
        np.testing.assert_allclose(scaled[:, 0], [0.0, 0.5, 1.0])
        # constant dimension maps to 0.5
        np.testing.assert_allclose(scaled[:, 1], 0.5)
        # out-of-range values clip
        np.testing.assert_allclose(
            scale_input(np.array([[20.0, 0.0]]), mn, mx)[0, 0], 1.0)

    def test_windows(self):
        seq = np.arange(8, dtype=float).reshape(4, 2)
        w = make_windows(seq, 3)
        assert w.shape == (4, 6)
        np.testing.assert_array_equal(w[1], seq[0:3].reshape(-1))
        np.testing.assert_array_equal(w[0], np.concatenate([seq[0], seq[0], seq[1]]))
        np.testing.assert_array_equal(w[3], np.concatenate([seq[2], seq[3], seq[3]]))

    @pytest.mark.parametrize("length", [1, 4, 41])
    def test_windows_match_loop(self, length):
        seq = np.random.default_rng(22).random((30, 5))
        half = length // 2
        padded = np.pad(seq, ((half, half), (0, 0)), mode="edge")
        expected = np.stack([padded[t:t + length].reshape(-1)
                             for t in range(len(seq))])
        np.testing.assert_array_equal(make_windows(seq, length), expected)

    @settings(max_examples=60, deadline=None)
    @given(log_rows=st.integers(1, 5), slack=st.floats(0.0, 0.999),
           case=st.sampled_from(["1", "rows-1", "rows", "rows+1", "3rows+7"]),
           window=st.sampled_from([1, 3, 4, 41]), dim=st.integers(1, 4),
           hidden=st.lists(st.integers(1, 12), min_size=1, max_size=3),
           outputs=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_blocks_agree_with_the_whole_sequence(self, log_rows, slack, case,
                                                  window, dim, hidden, outputs,
                                                  seed):
        # a budget in [rows, 2 rows) times the widest array gives blocks of
        # `rows` epochs; up to one block the GEMMs are those of the whole
        # sequence, beyond it each row may sit elsewhere in its GEMM
        rng = np.random.default_rng(seed)
        model = float64_model(rng, dim, window, tuple(hidden), outputs)
        rows = 1 << log_rows
        widest = max(dim * window, *hidden, outputs)
        length = {"1": 1, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1,
                  "3rows+7": 3 * rows + 7}[case]
        seq = rng.uniform(-0.2, 1.2, (length, dim))
        want = _softmax(encode(model.layers, sda_input(
            seq, model.scale_min, model.scale_max, window)) @ model.out_w.T
                        + model.out_b)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sda, "_BLOCK", int(rows * widest * (1 + slack)))
            assert sda._block_rows(model) == rows
            [got] = predict_sequences([(model, seq)])
        assert got.shape == want.shape
        assert not np.isnan(got).any()
        np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        if length <= rows:
            np.testing.assert_array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= block_bound(model)


def float64_model(rng, dim, window, hidden, outputs):
    """A random SdA in float64, as Bundle.load gives one: init_stack's
    weights, with random biases and a scaling that clips some inputs."""
    layers = [SdaLayer(layer.w.astype(np.float64),
                       rng.normal(0, 1, len(layer.b)),
                       layer.b_prime.astype(np.float64))
              for layer in init_stack(dim * window, hidden, rng)]
    out_w = init_layer(hidden[-1], outputs, rng).w.astype(np.float64)
    return SdaModel(layers, out_w, rng.normal(0, 1, outputs), window,
                    np.zeros(dim), rng.uniform(0.5, 1.0, dim))


# How far predict_sequences' blocked rows may lie from the same rows computed
# in one GEMM per layer. Both see the same window rows, in [0, 1]. With u the
# unit roundoff (eps / 2) and gamma(k) = k u / (1 - k u), for each layer of
# weights w (k inputs) and biases b whose inputs, in [0, 1], differ by at
# most delta between the two:
# - a dot product summed in any order, with or without FMA, is within
#   gamma(k) sum |h w| <= gamma(k) |w|_1 of its exact value, and the exact
#   values differ by at most |w|_1 delta: the computed sums differ by at most
#   |w|_1 (delta + 2 gamma(k))
# - adding b rounds each sum once, by at most u A, where
#   A = |w|_1 (1 + gamma(k)) + |b| bounds the pre-activation
# - the sigmoid is 1/4-Lipschitz, and each computed value is within
#   5 ulp <= 5 eps of its true value (the error model of TestSigmoid)
# The output layer's logits then differ by at most dz, and the true softmaxes
# of the two by at most exp(2 dz) - 1, since each ratio p_i(z') / p_i(z)
# lies in [exp(-2 dz), exp(2 dz)]. Each computed softmax is within relative
# eta of its true value: the shift by the maximum rounds once, by
# u |z - max| <= 2 u Z; exp is within 4 ulp; the n-term sum is within
# gamma(n) and the division rounds once. Terms of second order in u are
# dropped.
def block_bound(model) -> float:
    eps = np.finfo(np.float64).eps
    u = eps / 2

    def gamma(k):
        return k * u / (1 - k * u)

    def sums(w, b, delta):
        """Bounds on how far two computed w h + b differ, and on |w h + b|."""
        norm, k = np.abs(w).sum(axis=1).max(), w.shape[1]
        big = norm * (1 + gamma(k)) + np.abs(b).max()
        return norm * (delta + 2 * gamma(k)) + 2 * u * big, big

    delta = 0.0
    for layer in model.layers:
        da, _ = sums(layer.w, layer.b, delta)
        delta = min(da / 4 + 2 * 5 * eps, 1.0)
    dz, z = sums(model.out_w, model.out_b, delta)
    eta = 2 * (2 * u * z + 4 * eps) + gamma(len(model.out_b)) + u
    return np.expm1(2 * dz) + 2 * eta


class TestEnhance:
    def test_passthrough_when_detectors_quiet(self):
        p6 = np.array([[0.1, 0.1, 0.1, 0.1, 0.1, 0.5]])
        out = enhance(p6, np.array([[0.4, 0.6]]), np.array([[0.3, 0.7]]))
        np.testing.assert_allclose(out, p6)

    def test_spike_detector_overrides_background(self):
        p6 = np.zeros((1, 6))
        p6[0, int(EventLabel.BCKG)] = 1.0
        out = enhance(p6, np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert int(np.argmax(out[0])) in (int(EventLabel.SPSW),
                                          int(EventLabel.GPED),
                                          int(EventLabel.PLED))
        np.testing.assert_allclose(out.sum(), 1.0)

    def test_no_double_bump_when_argmax_agrees(self):
        p6 = np.zeros((1, 6))
        p6[0, int(EventLabel.PLED)] = 0.9
        p6[0, int(EventLabel.BCKG)] = 0.1
        out = enhance(p6, np.array([[0.9, 0.1]]), np.array([[0.0, 1.0]]))
        np.testing.assert_allclose(out, p6)

    def test_eyem_detector(self):
        p6 = np.zeros((1, 6))
        p6[0, int(EventLabel.BCKG)] = 1.0
        out = enhance(p6, np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]))
        assert int(np.argmax(out[0])) == int(EventLabel.EYEM)

    def test_output_is_distribution(self):
        rng = np.random.default_rng(18)
        p6 = rng.random((50, 6))
        p6 /= p6.sum(axis=1, keepdims=True)
        det = rng.random((50, 2))
        det /= det.sum(axis=1, keepdims=True)
        eye = rng.random((50, 2))
        eye /= eye.sum(axis=1, keepdims=True)
        out = enhance(p6, det, eye)
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(axis=1), 1.0)

    def test_matches_per_epoch_rule(self):
        rng = np.random.default_rng(21)
        p6 = rng.dirichlet(np.ones(6) * 0.5, 400)
        det = rng.dirichlet(np.ones(2), 400)
        eye = rng.dirichlet(np.ones(2), 400)
        expected = np.stack([_enhance_one(p6[t], det[t], eye[t])
                             for t in range(400)])
        np.testing.assert_array_equal(enhance(p6, det, eye), expected)


def _enhance_one(p6, p_spsw, p_eyem):
    """The enhancer rule applied to one epoch: the reference for enhance."""
    q = np.array(p6, dtype=np.float64)
    for p_det, targets in ((p_spsw, TARGET_CLASSES), (p_eyem, (int(EventLabel.EYEM),))):
        if p_det[0] > 0.5 and int(np.argmax(q)) not in targets:
            bump = np.zeros(6)
            bump[list(targets)] = p_det[0]
            q = q + bump
            q /= q.sum()
    return q / q.sum()


class TestDecodePass2:
    def test_shapes_and_normalization(self):
        rng = np.random.default_rng(19)
        grid = random_grid(rng, epochs=6)
        sv = supervector_sequence(grid)
        pca_det = fit_pca(sv, 5)
        pca_six = fit_pca(sv, 5)

        def tiny_model(outputs, window, input_dim):
            r = np.random.default_rng(20)
            layers = init_stack(input_dim, (8,), r)
            return SdaModel(layers, init_layer(8, outputs, r).w,
                            np.zeros(outputs), window, np.zeros(5),
                            np.ones(5))

        models = SecondPassModels(pca_det, pca_six,
                                  tiny_model(2, 3, 15), tiny_model(2, 3, 15),
                                  tiny_model(6, 3, 15))
        out = decode_pass2(grid, models)
        assert out.shape == (6, 6)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        det = reduce_sequence_for_detectors(pca_det.project(sv))
        assert det.shape == (6, 5)

    @pytest.mark.parametrize("epochs", [600, 3600])
    def test_holds_one_block_of_each_sda(self, epochs):
        # random models with the default shapes, float64 as Bundle.load gives
        # them: 820 -> 800 -> 500 -> 300 -> 6 and 39 -> 100 -> 100 -> 100 -> 2.
        # One block of an SdA holds at most its window rows and every layer's
        # activations, and each of the `cpus` workers holds one block at a
        # time. The whole-sequence arrays pass 2 keeps by design are the
        # projection's centered copy of the (epochs, 132) supervectors, then
        # the reduced sequences, their scaled and edge-padded copies (at most
        # epochs + 40 rows) and the outputs, each at most 20 wide and fewer
        # than 132 columns together. Whole window rows would take 6 560 B an
        # epoch, 23.6 MB at 3 600 epochs
        rng = np.random.default_rng(37)
        models = default_shape_second_pass(rng)
        sdas = (models.sda_spsw, models.sda_eyem, models.sda_sixway)
        assert [m.layers[0].w.shape[1] for m in sdas] == [39, 39, 820]
        grid = random_grid(rng, epochs=epochs)
        block = max(8 * sda._block_rows(m) * (
            m.layers[0].w.shape[1] + sum(len(l.w) for l in m.layers)
            + len(m.out_w)) for m in sdas)
        whole = 8 * (epochs + 40) * 2 * SUPERVECTOR_DIM
        for cpus in (1, 2):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(parallel, "cpus", lambda: cpus)
                tracemalloc.start()
                try:
                    out = decode_pass2(grid, models)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert out.shape == (epochs, 6)
            assert peak < cpus * block + whole, cpus

    @settings(max_examples=30, deadline=None)
    @given(cpus=st.integers(1, 4), log_rows=st.integers(0, 4),
           epochs=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
    def test_equal_for_any_worker_count(self, cpus, log_rows, epochs, seed):
        # blocks of 1 to 16 epochs split the small models into up to 70
        # blocks each, which 1 to 4 workers share out; every block is the
        # same GEMMs at one BLAS thread whichever worker runs it
        rng = np.random.default_rng(seed)
        models = small_second_pass(rng)
        grid = random_grid(rng, epochs=epochs)
        widest = max(m.layers[0].w.shape[1] for m in (
            models.sda_spsw, models.sda_eyem, models.sda_sixway))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sda, "_BLOCK", widest << log_rows)
            patch.setattr(parallel, "cpus", lambda: 1)
            want = decode_pass2(grid, models)
            patch.setattr(parallel, "cpus", lambda: cpus)
            patch.setattr(parallel, "_pool", None)  # a pool of cpus - 1 helpers
            try:
                got = decode_pass2(grid, models)
            finally:
                if parallel._pool is not None:
                    parallel._pool[1].shutdown()
        assert not np.isnan(want).any()
        np.testing.assert_array_equal(got, want)

    @pytest.mark.skipif(not parallel._openblas(), reason="numpy's OpenBLAS not found")
    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        error = FloatingPointError("a helper's block")
        real_softmax = sda._softmax

        def softmax(logits):
            if threading.current_thread() is not threading.main_thread():
                raise error
            return real_softmax(logits)

        rng = np.random.default_rng(41)
        models = small_second_pass(rng)
        monkeypatch.setattr(sda, "_softmax", softmax)
        monkeypatch.setattr(sda, "_BLOCK", 15)  # one epoch a block
        monkeypatch.setattr(parallel, "cpus", lambda: 2)
        get_threads = parallel._openblas()[0]
        before = get_threads()
        with pytest.raises(FloatingPointError) as raised:
            decode_pass2(random_grid(rng, epochs=8), models)
        assert raised.value is error
        assert get_threads() == before


def default_shape_second_pass(rng) -> SecondPassModels:
    """Random float64 second-pass models of the default shapes."""
    def model(config, dim):
        return float64_model(rng, dim, config.window_length, config.hidden,
                             config.outputs)

    return SecondPassModels(
        PcaModel(rng.random(SUPERVECTOR_DIM), rng.standard_normal((13, 132))),
        PcaModel(rng.random(SUPERVECTOR_DIM), rng.standard_normal((20, 132))),
        model(SPSW_SDA_CONFIG, 13), model(EYEM_SDA_CONFIG, 13),
        model(SIXWAY_SDA_CONFIG, 20))


def small_second_pass(rng) -> SecondPassModels:
    """Random float64 second-pass models with 5-dimensional PCAs and
    one-layer SdAs of 15 inputs (three 5-dimensional epochs a window)."""
    sv = supervector_sequence(random_grid(rng, epochs=12))
    return SecondPassModels(
        fit_pca(sv, 5), fit_pca(sv, 5),
        *(float64_model(rng, 5, 3, (8,), outputs) for outputs in (2, 2, 6)))
