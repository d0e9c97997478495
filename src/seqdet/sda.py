"""Pass 2: PCA-reduced epoch supervectors fed to three stacked denoising
autoencoders (two 2-class detectors and one 6-way classifier), combined by an
enhancer into a single per-epoch posterior.

All training is plain minibatch SGD with seeded shuffling, so results are
bit-deterministic given (seed, data, config). The reconstruction loss is
cross-entropy between the clean input and the sigmoid reconstruction,
averaged over both batch and input dimensions.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

from .hmm import PosteriorGrid
from .labels import NUM_CLASSES, TARGET_CLASSES, EventLabel

EXPECTED_CHANNELS = 22
SUPERVECTOR_DIM = EXPECTED_CHANNELS * NUM_CLASSES  # 132


class SdaError(Exception):
    pass


# ---------------------------------------------------------------------------
# Supervectors and PCA

def build_supervector(grid: PosteriorGrid, epoch: int) -> np.ndarray:
    """Channel-major concatenation of the six class scores for one epoch."""
    if grid.num_channels != EXPECTED_CHANNELS:
        raise SdaError(
            f"expected {EXPECTED_CHANNELS} channels, got {grid.num_channels}")
    return grid.posteriors[epoch].reshape(-1).copy()


def supervector_sequence(grid: PosteriorGrid) -> np.ndarray:
    """(epochs, 132) supervector matrix for a whole grid."""
    if grid.num_channels != EXPECTED_CHANNELS:
        raise SdaError(
            f"expected {EXPECTED_CHANNELS} channels, got {grid.num_channels}")
    return grid.posteriors.reshape(grid.num_epochs, -1).copy()


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray        # (d,)
    components: np.ndarray  # (out_dim, d), orthonormal rows (zero-padded if
                            # the data was rank deficient)

    @property
    def out_dim(self) -> int:
        return self.components.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) @ self.components.T


def fit_pca(x: np.ndarray, out_dim: int) -> PcaModel:
    """Top-out_dim eigenvectors of the sample covariance, eigenvalue-descending,
    each row's largest-magnitude entry made positive."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < out_dim:
        raise SdaError(f"need >= {out_dim} samples, got {x.shape[0]}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / x.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    rank = int(np.sum(evals > max(evals[0], 0.0) * 1e-12)) if evals[0] > 0 else 0
    keep = min(out_dim, rank)
    if keep < out_dim:
        warnings.warn(
            f"PCA rank deficiency: keeping {keep} of {out_dim} components, "
            "padding with zero rows")
    comps = np.zeros((out_dim, x.shape[1]))
    comps[:keep] = evecs[:, :keep].T
    # Fix signs so serialization is stable across eigensolvers.
    for row in comps[:keep]:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return PcaModel(mean, comps)


def reduce_sequence_for_detectors(seq: np.ndarray) -> np.ndarray:
    """Average three consecutive projected vectors (sliding, edge-replicated)."""
    seq = np.asarray(seq, dtype=np.float64)
    if seq.shape[0] < 1:
        raise SdaError("empty sequence")
    padded = np.pad(seq, ((1, 1), (0, 0)), mode="edge")
    return (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0


# ---------------------------------------------------------------------------
# SdA structure

@dataclass(frozen=True)
class SdaConfig:
    name: str
    window_length: int
    hidden: tuple[int, ...]
    outputs: int
    corruption: float = 0.3
    pretrain_lr: float = 0.5
    pretrain_epochs: int = 200
    pretrain_batch: int = 300
    finetune_lr: float = 0.2
    finetune_epochs: int = 800
    finetune_batch: int = 100


# The three configurations of the second pass.
SPSW_SDA_CONFIG = SdaConfig("spsw", window_length=3, hidden=(100, 100, 100),
                            outputs=2, finetune_epochs=800)
EYEM_SDA_CONFIG = SdaConfig("eyem", window_length=3, hidden=(100, 100, 100),
                            outputs=2, finetune_epochs=100)
SIXWAY_SDA_CONFIG = SdaConfig("6way", window_length=41, hidden=(800, 500, 300),
                              outputs=6, pretrain_epochs=150,
                              finetune_lr=0.1, finetune_epochs=300)


@dataclass
class SdaLayer:
    w: np.ndarray        # (d_out, d_in)
    b: np.ndarray        # (d_out,) encoder bias
    b_prime: np.ndarray  # (d_in,) decoder bias (tied weights: W' = W.T)


@dataclass
class SdaModel:
    layers: list[SdaLayer]
    out_w: np.ndarray     # (classes, top_dim) logistic regression layer
    out_b: np.ndarray     # (classes,)
    window_length: int
    corruption: float
    scale_min: np.ndarray  # per-dim min/max of the reduced per-epoch vectors
    scale_max: np.ndarray


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def init_layer(d_in: int, d_out: int, rng: np.random.Generator) -> SdaLayer:
    bound = 4.0 * np.sqrt(6.0 / (d_in + d_out))
    w = rng.uniform(-bound, bound, size=(d_out, d_in))
    return SdaLayer(w, np.zeros(d_out), np.zeros(d_in))


def init_stack(input_dim: int, hidden: tuple[int, ...],
               rng: np.random.Generator) -> list[SdaLayer]:
    dims = (input_dim, *hidden)
    return [init_layer(dims[i], dims[i + 1], rng) for i in range(len(hidden))]


def corrupt(x: np.ndarray, level: float, rng: np.random.Generator) -> np.ndarray:
    """Masking corruption: each coordinate independently zeroed with
    probability `level`."""
    if not 0.0 <= level <= 1.0:
        raise SdaError(f"corruption level {level} outside [0, 1]")
    if level == 0.0:
        return np.array(x, copy=True)
    keep = rng.random(np.shape(x)) >= level
    return np.asarray(x) * keep


def encode(layers: list[SdaLayer], x: np.ndarray) -> np.ndarray:
    h = np.asarray(x, dtype=np.float64)
    for layer in layers:
        h = expit(h @ layer.w.T + layer.b)
    return h


# ---------------------------------------------------------------------------
# Losses and gradients (shared by SGD and by the finite-difference checks)

def dae_loss_and_grad(layer: SdaLayer, x_clean: np.ndarray,
                      x_corrupt: np.ndarray):
    """Cross-entropy reconstruction loss of a tied-weight denoising
    autoencoder, with analytic gradients for (w, b, b_prime)."""
    x_clean = np.atleast_2d(x_clean)
    x_corrupt = np.atleast_2d(x_corrupt)
    n, d = x_clean.shape
    y = expit(x_corrupt @ layer.w.T + layer.b)
    z = expit(y @ layer.w + layer.b_prime)
    zc = np.clip(z, 1e-12, 1.0 - 1e-12)
    loss = -np.mean(x_clean * np.log(zc) + (1.0 - x_clean) * np.log(1.0 - zc))
    # Sigmoid + cross-entropy: gradient at the decoder pre-activation is z - x.
    dz = (z - x_clean) / (n * d)
    g_bp = dz.sum(axis=0)
    g_w_dec = y.T @ dz
    dy = dz @ layer.w.T
    dpre = dy * y * (1.0 - y)
    g_w_enc = dpre.T @ x_corrupt
    g_b = dpre.sum(axis=0)
    return loss, g_w_enc + g_w_dec, g_b, g_bp


def finetune_loss_and_grad(layers: list[SdaLayer], out_w: np.ndarray,
                           out_b: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Negative log-likelihood of the encoder + softmax composite, with
    analytic gradients for every encoder weight/bias and the output layer."""
    x = np.atleast_2d(x)
    y = np.asarray(y, dtype=np.intp)
    n = x.shape[0]
    acts = [x]
    h = x
    for layer in layers:
        h = expit(h @ layer.w.T + layer.b)
        acts.append(h)
    probs = _softmax(h @ out_w.T + out_b)
    loss = -np.mean(np.log(np.clip(probs[np.arange(n), y], 1e-300, None)))

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
    return loss, g_layers, g_out_w, g_out_b


# ---------------------------------------------------------------------------
# Training

def _minibatches(n: int, batch: int, rng: np.random.Generator):
    order = rng.permutation(n)
    batch = min(batch, n)
    for lo in range(0, n - batch + 1, batch):
        yield order[lo:lo + batch]


def pretrain(layers: list[SdaLayer], data: np.ndarray, config: SdaConfig,
             rng: np.random.Generator) -> list[SdaLayer]:
    """Greedy layer-wise denoising-autoencoder training on [0,1]-scaled data."""
    data = np.asarray(data, dtype=np.float64)
    codes = data
    for layer in layers:
        for _ in range(config.pretrain_epochs):
            for idx in _minibatches(len(codes), config.pretrain_batch, rng):
                clean = codes[idx]
                noisy = corrupt(clean, config.corruption, rng)
                loss, gw, gb, gbp = dae_loss_and_grad(layer, clean, noisy)
                if not np.isfinite(loss):
                    raise SdaError(
                        f"non-finite pretraining loss on layer with shape "
                        f"{layer.w.shape}")
                layer.w -= config.pretrain_lr * gw
                layer.b -= config.pretrain_lr * gb
                layer.b_prime -= config.pretrain_lr * gbp
        codes = encode([layer], codes)
    return layers


def fine_tune(layers: list[SdaLayer], x: np.ndarray, y: np.ndarray,
              config: SdaConfig, rng: np.random.Generator,
              scale_min: np.ndarray, scale_max: np.ndarray) -> SdaModel:
    """Supervised training of the encoder stack plus a fresh softmax layer."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    if y.min() < 0 or y.max() >= config.outputs:
        raise SdaError(
            f"labels outside [0, {config.outputs}): {sorted(set(y.tolist()))}")
    top_dim = layers[-1].w.shape[0]
    out_w = init_layer(top_dim, config.outputs, rng).w
    out_b = np.zeros(config.outputs)
    for _ in range(config.finetune_epochs):
        for idx in _minibatches(len(x), config.finetune_batch, rng):
            loss, g_layers, g_ow, g_ob = finetune_loss_and_grad(
                layers, out_w, out_b, x[idx], y[idx])
            if not np.isfinite(loss):
                raise SdaError("non-finite fine-tuning loss")
            for layer, (gw, gb) in zip(layers, g_layers):
                layer.w -= config.finetune_lr * gw
                layer.b -= config.finetune_lr * gb
            out_w -= config.finetune_lr * g_ow
            out_b -= config.finetune_lr * g_ob
    return SdaModel(layers, out_w, out_b, config.window_length,
                    config.corruption, scale_min, scale_max)


def augment_rare(samples: np.ndarray, target: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Grow a class to `target` samples with convex combinations of random
    same-class pairs plus small Gaussian jitter."""
    samples = np.asarray(samples, dtype=np.float64)
    if len(samples) >= target:
        return samples
    if len(samples) < 2:
        raise SdaError("augmentation needs at least 2 seed samples")
    sigma = 0.05 * samples.std(axis=0)
    extra = []
    for _ in range(target - len(samples)):
        i, j = rng.choice(len(samples), size=2, replace=False)
        t = rng.random()
        v = t * samples[i] + (1.0 - t) * samples[j]
        extra.append(v + rng.normal(0.0, 1.0, size=v.shape) * sigma)
    return np.concatenate([samples, np.stack(extra)])


# ---------------------------------------------------------------------------
# Inference

def scale_input(seq: np.ndarray, scale_min: np.ndarray,
                scale_max: np.ndarray) -> np.ndarray:
    """Map each dimension from [scale_min, scale_max] to [0, 1], clipped; a
    constant dimension maps to 0.5."""
    span = scale_max - scale_min
    safe = np.where(span > 0, span, 1.0)
    scaled = (np.asarray(seq, dtype=np.float64) - scale_min) / safe
    scaled = np.where(span > 0, scaled, 0.5)
    return np.clip(scaled, 0.0, 1.0)


def fit_scaling(seq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    seq = np.asarray(seq, dtype=np.float64)
    return seq.min(axis=0), seq.max(axis=0)


def make_windows(seq: np.ndarray, window_length: int) -> np.ndarray:
    """Concatenate window_length consecutive vectors centered on each index,
    edge-replicated at the boundaries: (T, d) -> (T, window_length * d)."""
    seq = np.asarray(seq, dtype=np.float64)
    half = window_length // 2
    padded = np.pad(seq, ((half, half), (0, 0)), mode="edge")
    windows = sliding_window_view(padded, window_length, axis=0)[:len(seq)]
    return np.ascontiguousarray(windows.transpose(0, 2, 1)).reshape(len(seq), -1)


def predict_windows(model: SdaModel, windows: np.ndarray) -> np.ndarray:
    h = encode(model.layers, np.atleast_2d(windows))
    return _softmax(h @ model.out_w.T + model.out_b)


def predict_sequence(model: SdaModel, reduced_seq: np.ndarray) -> np.ndarray:
    scaled = scale_input(reduced_seq, model.scale_min, model.scale_max)
    return predict_windows(model, make_windows(scaled, model.window_length))


# ---------------------------------------------------------------------------
# Enhancer

def enhance(p6: np.ndarray, p_spsw: np.ndarray, p_eyem: np.ndarray) -> np.ndarray:
    """Combine the (T, 6) 6-way output with the two (T, 2) detectors.

    Detector outputs are (positive, negative). Where a detector is confident
    (> 0.5) and the 6-way argmax disagrees with its target set, every class in
    the target set receives the detector confidence before renormalization.
    """
    q = np.array(p6, dtype=np.float64)
    for p_det, targets in ((p_spsw, [int(lab) for lab in TARGET_CLASSES]),
                           (p_eyem, [int(EventLabel.EYEM)])):
        bump = (p_det[:, 0] > 0.5) & ~np.isin(np.argmax(q, axis=1), targets)
        q[np.ix_(bump, targets)] += p_det[bump, :1]
        q[bump] /= q[bump].sum(axis=1, keepdims=True)
    return q / q.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Pass-2 decoding

@dataclass(frozen=True)
class EpochPosteriorSequence:
    posteriors: np.ndarray  # (epochs, 6)

    @property
    def num_epochs(self) -> int:
        return self.posteriors.shape[0]

    def argmax_labels(self) -> np.ndarray:
        return np.argmax(self.posteriors, axis=1)


@dataclass
class SecondPassModels:
    pca_detector: PcaModel   # 132 -> 13, shared by the two detectors
    pca_sixway: PcaModel     # 132 -> 20
    sda_spsw: SdaModel
    sda_eyem: SdaModel
    sda_sixway: SdaModel


def detector_sequence(models: SecondPassModels,
                      supervectors: np.ndarray) -> np.ndarray:
    return reduce_sequence_for_detectors(models.pca_detector.project(supervectors))


def decode_pass2(grid: PosteriorGrid,
                 models: SecondPassModels) -> EpochPosteriorSequence:
    sv = supervector_sequence(grid)
    det_seq = detector_sequence(models, sv)
    six_seq = models.pca_sixway.project(sv)
    p_spsw = predict_sequence(models.sda_spsw, det_seq)
    p_eyem = predict_sequence(models.sda_eyem, det_seq)
    p_six = predict_sequence(models.sda_sixway, six_seq)
    return EpochPosteriorSequence(enhance(p_six, p_spsw, p_eyem))
