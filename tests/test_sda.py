import numpy as np
import pytest

from seqdet.errors import DataError
from seqdet.hmm import PosteriorGrid
from seqdet.labels import TARGET_CLASSES, EventLabel
from seqdet.sda import (EYEM_SDA_CONFIG, SIXWAY_SDA_CONFIG, SPSW_SDA_CONFIG,
                        PcaModel, SdaConfig, SdaLayer, SdaModel, augment_rare,
                        corrupt, dae_loss_and_grad, decode_pass2,
                        detector_sequence, encode, enhance,
                        fine_tune, finetune_loss_and_grad, fit_pca,
                        fit_scaling, init_layer, init_stack, make_windows,
                        predict_sequence, pretrain,
                        reduce_sequence_for_detectors, scale_input,
                        supervector_sequence, SecondPassModels)


def random_grid(rng, epochs=5, channels=22):
    p = rng.random((epochs, channels, 6))
    p /= p.sum(axis=2, keepdims=True)
    return PosteriorGrid(p)


def build_supervector(grid, epoch):
    """Reference for supervector_sequence: one epoch's (channels, 6) scores
    flattened channel-major."""
    return grid.posteriors[epoch].reshape(-1).copy()


class TestSupervectors:
    def test_layout_channel_major(self):
        rng = np.random.default_rng(0)
        grid = random_grid(rng)
        sv = supervector_sequence(grid)[2]
        assert sv.shape == (132,)
        np.testing.assert_array_equal(sv[:6], grid.posteriors[2, 0])
        np.testing.assert_array_equal(sv[6:12], grid.posteriors[2, 1])

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

    def test_rank_deficiency_padded(self):
        rng = np.random.default_rng(6)
        base = rng.standard_normal((50, 3))
        x = base @ rng.standard_normal((3, 12))  # rank 3 in 12 dims
        with pytest.warns(UserWarning):
            model = fit_pca(x, 6)
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
        c = corrupt(x, 0.3, rng)
        rate = 1.0 - c.mean()
        assert abs(rate - 0.3) < 0.02
        np.testing.assert_array_equal(corrupt(x, 0.0, rng), x)

    def test_encode_range(self):
        rng = np.random.default_rng(10)
        layers = init_stack(10, (20, 5), rng)
        h = encode(layers, rng.random((7, 10)))
        assert h.shape == (7, 5)
        assert ((h > 0) & (h < 1)).all()


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


def dae_gradient_relerr(seed):
    rng = np.random.default_rng(seed)
    layer = init_layer(9, 7, rng)
    clean = rng.random((6, 9))
    noisy = corrupt(clean, 0.3, rng)
    _, gw, gb, gbp = dae_loss_and_grad(layer, clean, noisy)
    loss_fn = lambda: dae_loss_and_grad(layer, clean, noisy)[0]
    return max(probe_relerr(loss_fn, layer.w, gw, rng),
               probe_relerr(loss_fn, layer.b, gb, rng),
               probe_relerr(loss_fn, layer.b_prime, gbp, rng))


def finetune_gradient_relerr(seed):
    rng = np.random.default_rng(seed)
    layers = init_stack(8, (10, 6), rng)
    out_w = init_layer(6, 3, rng).w
    out_b = np.zeros(3)
    x = rng.random((5, 8))
    y = rng.integers(0, 3, size=5)
    _, g_layers, g_ow, g_ob = finetune_loss_and_grad(layers, out_w, out_b, x, y)
    loss_fn = lambda: finetune_loss_and_grad(layers, out_w, out_b, x, y)[0]
    params = [p for layer in layers for p in (layer.w, layer.b)] + [out_w, out_b]
    grads = [g for pair in g_layers for g in pair] + [g_ow, g_ob]
    return max(probe_relerr(loss_fn, p, g, rng) for p, g in zip(params, grads))


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
                  "window_length": 3, "corruption": 0.3,
                  "scale_min": np.zeros(4), "scale_max": np.ones(4)}
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
        noisy = corrupt(data, 0.3, np.random.default_rng(99))
        before = dae_loss_and_grad(layers[0], data, noisy)[0]
        pretrain(layers, data, FAST, rng)
        after = dae_loss_and_grad(layers[0], data, noisy)[0]
        assert after < before

    def test_fine_tune_learns_separable_problem(self):
        rng = np.random.default_rng(14)
        n = 150
        x = np.concatenate([rng.random((n, 12)) * 0.4,
                            0.6 + rng.random((n, 12)) * 0.4])
        y = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
        layers = init_stack(12, FAST.hidden, rng)
        pretrain(layers, x, FAST, rng)
        model = fine_tune(layers, x, y, FAST, rng, np.zeros(4), np.ones(4))
        probs = predict_sequence(
            SdaModel(model.layers, model.out_w, model.out_b, 1, 0.3,
                     np.zeros(12), np.ones(12)), x)
        acc = np.mean(np.argmax(probs, axis=1) == y)
        assert acc > 0.95

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

    def test_augment_rare(self):
        rng = np.random.default_rng(17)
        x = rng.random((5, 8))
        out = augment_rare(x, 40, rng)
        assert out.shape == (40, 8)
        np.testing.assert_array_equal(out[:5], x)
        # synthetic samples stay near the seed hull
        assert out.min() > -0.5 and out.max() < 1.5
        np.testing.assert_array_equal(augment_rare(x, 3, rng), x)


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
                            np.zeros(outputs), window, 0.3,
                            np.zeros(5), np.ones(5))

        models = SecondPassModels(pca_det, pca_six,
                                  tiny_model(2, 3, 15), tiny_model(2, 3, 15),
                                  tiny_model(6, 3, 15))
        out = decode_pass2(grid, models)
        assert out.posteriors.shape == (6, 6)
        np.testing.assert_allclose(out.posteriors.sum(axis=1), 1.0, atol=1e-12)
        det = detector_sequence(models, sv)
        assert det.shape == (6, 5)
