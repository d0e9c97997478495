"""Pass 2: PCA-reduced epoch supervectors fed to three stacked denoising
autoencoders (two 2-class detectors and one 6-way classifier), combined by an
enhancer into a single per-epoch posterior.

All training is plain minibatch SGD with seeded shuffling, so results are
bit-deterministic given (seed, data, config). The reconstruction loss is
cross-entropy between the clean input and the sigmoid reconstruction,
averaged over both batch and input dimensions.

The parameters are single precision (_TRAIN_DTYPE) from `init_layer` on:
the 6-way first layer's GEMMs are bound by memory traffic over its weight
matrix, which float32 halves, and one copy of each weight is all that
training holds. `pretrain` and `fine_tune` cast the data on entry and update
the given layers in place; the bundle stores the trained arrays as f4. The
step functions follow the dtype of their inputs, and inference runs in
float64.

Inference runs in blocks of epochs. `predict_sequences` keeps each scaled,
edge-padded (epochs, <= 20) sequence whole; each block builds only its own
window rows, by `make_windows`'s rule over a row range, and its
activations, and writes its softmax rows into its model's (epochs, outputs)
array. A block is the largest power of two of epochs whose widest array
fits in _BLOCK doubles: 128 epochs for the 6-way SdA, 1 024 for the
detectors. `decode_pass2` runs both PCA projections inside
`parallel.one_blas_thread` and hands the blocks of all three SdAs to one
`parallel.run` (a 600-epoch decode has 5 six-way blocks and one for each
detector), so every GEMM of pass 2 runs at one BLAS thread, on the
decode's own workers, and its bits do not depend on the worker count or on
the OpenBLAS thread count. With random models of the default shapes,
`decode_pass2` peaks under tracemalloc at 2.61 MB at 600 epochs and 4.76 MB
at 3 600 on one worker, and at 4.4-4.8 and 6.9 MB on two, each holding one
block; it peaked at 12.8 and 76.6 MB with the whole (epochs, 820) window
matrix. What still grows with the length is the whole-sequence arrays,
mainly `PcaModel.project`'s (epochs, 132) centered copy. A GEMM row's bits
depend on where the row sits in the GEMM, so rows past the first block may
differ in the last bits from one whole-sequence GEMM; a sequence of at most
one block keeps them.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import parallel
from .errors import DataError, NumericError, check_shape
from .labels import NUM_CLASSES, TARGET_CLASSES, EventLabel
from .signal_io import CHANNELS

log = logging.getLogger(__name__)

SUPERVECTOR_DIM = CHANNELS * NUM_CLASSES  # 132
# The one dtype pretrain and fine_tune train in.
_TRAIN_DTYPE = np.float32
# Doubles that the widest array of one block of `predict_sequences` may hold.
_BLOCK = 1 << 17


# ---------------------------------------------------------------------------
# Supervectors and PCA

def supervector_sequence(pass1: np.ndarray) -> np.ndarray:
    """(epochs, 132) supervectors of the (epochs, channels, 6) pass-1
    posteriors: each epoch's scores, channel-major."""
    if pass1.shape[1] != CHANNELS:
        raise DataError(f"expected {CHANNELS} channels, got {pass1.shape[1]}")
    return pass1.reshape(len(pass1), -1)


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray        # (d,)
    components: np.ndarray  # (out_dim, d), orthonormal rows (zero-padded if
                            # the data was rank deficient)

    def __post_init__(self):
        if np.ndim(self.components) != 2 or \
                np.shape(self.mean) != np.shape(self.components)[1:]:
            raise DataError(f"components has shape {np.shape(self.components)} "
                            f"but mean has shape {np.shape(self.mean)}")

    @property
    def out_dim(self) -> int:
        return self.components.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) @ self.components.T


# Consecutive eigenvalues closer than this fraction of the largest count as
# one repeated eigenvalue: far above the covariance's roundoff (about 1e-15),
# far below any spectral gap that carries information.
_REPEATED = 1e-9


def fit_pca(x: np.ndarray, out_dim: int) -> PcaModel:
    """Top-out_dim eigenvectors of the sample covariance, eigenvalue-descending.

    A simple eigenvalue's row has its largest-magnitude entry made positive.
    A repeated eigenvalue has no preferred basis of its eigenspace, and the
    one eigh returns follows the summation order (so the BLAS thread count);
    its rows are a canonical basis instead: a fixed Gaussian matrix
    projected onto the eigenspace, orthonormalized, with positive R
    diagonal."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < out_dim:
        raise DataError(f"need >= {out_dim} samples, got {x.shape[0]}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / x.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    rank = int(np.sum(evals > max(evals[0], 0.0) * 1e-12)) if evals[0] > 0 else 0
    keep = min(out_dim, rank)
    if keep < out_dim:
        log.warning("PCA rank deficiency: keeping %d of %d components, "
                    "padding with zero rows", keep, out_dim)
    comps = np.zeros((out_dim, x.shape[1]))
    comps[:keep] = evecs[:, :keep].T
    start = 0
    while start < keep:
        end = start + 1
        while end < rank and evals[end - 1] - evals[end] <= _REPEATED * evals[0]:
            end += 1
        if end - start == 1:
            # Fix signs so serialization is stable across eigensolvers.
            row = comps[start]
            if row[np.argmax(np.abs(row))] < 0:
                row *= -1.0
        else:
            space = evecs[:, start:end]
            fixed = np.random.default_rng(0).standard_normal(
                (x.shape[1], min(end, keep) - start))
            q, r = np.linalg.qr(space @ (space.T @ fixed))
            comps[start:min(end, keep)] = (q * np.sign(np.diag(r))).T
        start = end
    return PcaModel(mean, comps)


def reduce_sequence_for_detectors(seq: np.ndarray) -> np.ndarray:
    """Average three consecutive projected vectors (sliding, edge-replicated)."""
    seq = np.asarray(seq, dtype=np.float64)
    if seq.shape[0] < 1:
        raise DataError("empty sequence")
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

    def __post_init__(self):
        if not 0.0 <= self.corruption <= 1.0:
            raise DataError(f"corruption = {self.corruption} outside [0, 1]")
        for key in ("pretrain_lr", "finetune_lr"):
            if not 0.0 <= getattr(self, key) < np.inf:
                raise DataError(f"{key} = {getattr(self, key)} must be finite, >= 0")
        for key in ("window_length", "pretrain_batch", "finetune_batch"):
            if getattr(self, key) < 1:
                raise DataError(f"{key} = {getattr(self, key)} must be at least 1")
        if not self.hidden or min(self.hidden) < 1:
            raise DataError(f"hidden = {self.hidden} needs one or more widths, "
                            "each at least 1")


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

    def __post_init__(self):
        if np.ndim(self.w) != 2:
            raise DataError(f"w must be (d_out, d_in), got shape {np.shape(self.w)}")
        check_shape("b", self.b, self.w.shape[:1])
        check_shape("b_prime", self.b_prime, self.w.shape[1:])


@dataclass
class SdaModel:
    layers: list[SdaLayer]
    out_w: np.ndarray     # (classes, top_dim) logistic regression layer
    out_b: np.ndarray     # (classes,)
    window_length: int
    scale_min: np.ndarray  # per-dim min/max of the reduced per-epoch vectors
    scale_max: np.ndarray

    def __post_init__(self):  # the scaled window feeds layers/0, ..., out_w
        if self.window_length < 1:
            raise DataError(f"window_length = {self.window_length} must be at least 1")
        if not self.layers:
            raise DataError("layers must hold at least one layer")
        width = self.layers[0].w.shape[1]
        n_in, rest = divmod(width, self.window_length)
        if rest:
            raise DataError(f"layers/0/w takes {width} inputs, not a multiple "
                            f"of window_length = {self.window_length}")
        check_shape("scale_min", self.scale_min, (n_in,))
        check_shape("scale_max", self.scale_max, (n_in,))
        for key, w in [*((f"layers/{i}/w", layer.w) for i, layer in
                         enumerate(self.layers)), ("out_w", self.out_w)]:
            check_shape(key, w, (len(w), width))
            width = len(w)
        check_shape("out_b", self.out_b, (width,))


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def init_layer(d_in: int, d_out: int, rng: np.random.Generator) -> SdaLayer:
    """A _TRAIN_DTYPE layer: weights drawn uniformly in float64 and rounded
    once, zero biases."""
    bound = 4.0 * np.sqrt(6.0 / (d_in + d_out))
    w = rng.uniform(-bound, bound, size=(d_out, d_in)).astype(_TRAIN_DTYPE)
    return SdaLayer(w, np.zeros(d_out, _TRAIN_DTYPE), np.zeros(d_in, _TRAIN_DTYPE))


def init_stack(input_dim: int, hidden: tuple[int, ...],
               rng: np.random.Generator) -> list[SdaLayer]:
    dims = (input_dim, *hidden)
    return [init_layer(dims[i], dims[i + 1], rng) for i in range(len(hidden))]


def corrupt(x: np.ndarray, level: float, rng: np.random.Generator,
            out: np.ndarray | None = None) -> np.ndarray:
    """Masking corruption: each coordinate independently zeroed with
    probability `level` (SdaConfig keeps it in [0, 1]). Without `out`, level
    0 returns `x` itself; with it, the result is always written to `out`."""
    if level == 0.0:
        if out is None:
            return x
        np.copyto(out, x)
        return out
    keep = rng.random(np.shape(x)) >= level
    return np.multiply(x, keep, out=out)


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """Logistic sigmoid of a float32 or float64 array, in place; returns `a`.
    Where exp(-a) overflows (a < -88.72 in float32, a < -709.78 in float64)
    the result is exactly 0."""
    np.negative(a, out=a)
    with np.errstate(over="ignore"):
        np.exp(a, out=a)
    a += 1.0
    return np.reciprocal(a, out=a)


def encode(layers: list[SdaLayer], x: np.ndarray) -> np.ndarray:
    """The top layer's float64 codes of the rows of x. Each layer holds one
    array: its GEMM's, with the bias added and the sigmoid taken in place."""
    h = np.asarray(x, dtype=np.float64)
    for layer in layers:
        h = np.matmul(h, layer.w.T)
        h += layer.b
        _sigmoid(h)
    return h


# ---------------------------------------------------------------------------
# Losses and SGD steps. Training calls only the step functions, which return
# the learning rate times the gradient; the losses are their objectives for
# the finite-difference checks, which call the step functions at rate 1.

def dae_loss(layer: SdaLayer, x_clean: np.ndarray,
             x_corrupt: np.ndarray) -> float:
    """Cross-entropy reconstruction loss of a tied-weight denoising
    autoencoder."""
    z = _sigmoid(encode([layer], x_corrupt) @ layer.w + layer.b_prime)
    zc = np.clip(z, 1e-12, 1.0 - 1e-12)
    return -np.mean(x_clean * np.log(zc) + (1.0 - x_clean) * np.log(1.0 - zc))


def dae_buffers(layer: SdaLayer, n: int):
    """The buffers `dae_grad` works in for batches of n rows: the stacked
    GEMM operands [dpre ; y] (2n, d_out) and [x_corrupt ; dz] (2n, d_in),
    then the (d_out, d_in) weight step."""
    d_out, d_in = layer.w.shape
    dtype = layer.w.dtype
    return (np.empty((2 * n, d_out), dtype), np.empty((2 * n, d_in), dtype),
            np.empty_like(layer.w))


def dae_grad(layer: SdaLayer, x_clean: np.ndarray, bufs, lr: float):
    """SGD step at rate `lr` on `dae_loss` for (w, b, b_prime), lr times the
    gradient. `bufs` come from `dae_buffers(layer, n)` with the corrupted
    input already in the first n rows of the second; y, dz and dpre are
    written into the stacked operands, and the weight step, the encoder and
    decoder terms summed by one GEMM, into the third buffer."""
    lhs, rhs, out = bufs
    n, d = x_clean.shape
    dpre, y = lhs[:n], lhs[n:]
    x_corrupt, dz = rhs[:n], rhs[n:]
    np.matmul(x_corrupt, layer.w.T, out=y)
    y += layer.b
    _sigmoid(y)
    # Sigmoid + cross-entropy: gradient at the decoder pre-activation is z - x.
    np.matmul(y, layer.w, out=dz)
    dz += layer.b_prime
    _sigmoid(dz)
    dz -= x_clean
    dz *= lr / (n * d)
    np.matmul(dz, layer.w.T, out=dpre)
    dpre *= y
    dpre *= 1.0 - y
    np.matmul(lhs.T, rhs, out=out)
    return out, dpre.sum(axis=0), dz.sum(axis=0)


def finetune_loss(layers: list[SdaLayer], out_w: np.ndarray, out_b: np.ndarray,
                  x: np.ndarray, y: np.ndarray) -> float:
    """Negative log-likelihood of the encoder + softmax composite."""
    probs = _softmax(encode(layers, x) @ out_w.T + out_b)
    return -np.mean(np.log(np.clip(probs[np.arange(len(y)), y], 1e-300, None)))


def finetune_grad(layers: list[SdaLayer], out_w: np.ndarray, out_b: np.ndarray,
                  x: np.ndarray, y: np.ndarray, bufs: list[np.ndarray],
                  lr: float):
    """SGD step at rate `lr` on `finetune_loss`, lr times the gradient: the
    weight steps of the layers and then of the output layer are written to
    `bufs`, one buffer each, and returned with the matching list of bias
    steps."""
    n = len(x)
    acts = [x]
    for layer in layers:
        acts.append(_sigmoid(acts[-1] @ layer.w.T + layer.b))
    # Softmax + negative log-likelihood: gradient at the logits is p - onehot.
    dpre = _softmax(acts[-1] @ out_w.T + out_b)
    dpre[np.arange(n), y] -= 1.0
    dpre *= lr / n
    g_b = [dpre.sum(axis=0)]
    np.matmul(dpre.T, acts[-1], out=bufs[-1])
    w = out_w
    for i in reversed(range(len(layers))):
        a_out = acts[i + 1]
        dpre = dpre @ w
        dpre *= a_out
        dpre *= 1.0 - a_out
        np.matmul(dpre.T, acts[i], out=bufs[i])
        g_b.append(dpre.sum(axis=0))
        w = layers[i].w
    g_b.reverse()
    return bufs, g_b


# ---------------------------------------------------------------------------
# Training

def _minibatches(n: int, batch: int, rng: np.random.Generator):
    """Shuffled index batches of min(batch, n) rows; a partial last batch is
    dropped, so every batch has the same size."""
    order = rng.permutation(n)
    batch = min(batch, n)
    for lo in range(0, n - batch + 1, batch):
        yield order[lo:lo + batch]


def _sgd_step(params, steps) -> None:
    """Subtract each step from its parameter in place."""
    for p, step in zip(params, steps):
        p -= step


def _params(layer: SdaLayer) -> tuple[np.ndarray, ...]:
    return layer.w, layer.b, layer.b_prime


def _check_train_dtype(layers: list[SdaLayer]) -> None:
    """Training updates the layers in place, so they must hold _TRAIN_DTYPE
    arrays already: another dtype is refused, not copied."""
    for i, layer in enumerate(layers):
        for name, p in zip(("w", "b", "b_prime"), _params(layer)):
            if p.dtype != _TRAIN_DTYPE:
                raise DataError(f"layers/{i}/{name} is {p.dtype}, training "
                                f"needs {np.dtype(_TRAIN_DTYPE)}")


def pretrain(layers: list[SdaLayer], data: np.ndarray, config: SdaConfig,
             rng: np.random.Generator) -> list[SdaLayer]:
    """Greedy layer-wise denoising-autoencoder training on [0,1]-scaled data,
    in _TRAIN_DTYPE; each layer of `layers` is updated in place."""
    _check_train_dtype(layers)
    codes = np.asarray(data, dtype=_TRAIN_DTYPE)
    n = min(config.pretrain_batch, len(codes))
    for layer in layers:
        bufs = dae_buffers(layer, n)
        for _ in range(config.pretrain_epochs):
            for idx in _minibatches(len(codes), config.pretrain_batch, rng):
                clean = codes[idx]
                corrupt(clean, config.corruption, rng, out=bufs[1][:n])
                # An inf or NaN anywhere in the layer or its input reaches the
                # bias-step sums, at rate 0 too (0 * inf is NaN); that guard
                # is the check, not numpy's warnings on the way there.
                with np.errstate(over="ignore", invalid="ignore"):
                    s_w, s_b, s_bp = dae_grad(layer, clean, bufs,
                                              config.pretrain_lr)
                    if not np.isfinite(s_b.sum() + s_bp.sum()):
                        raise NumericError(
                            f"non-finite pretraining gradient on layer with shape "
                            f"{layer.w.shape}")
                    _sgd_step(_params(layer), (s_w, s_b, s_bp))
        del bufs  # before the next layer's are made
        codes = _sigmoid(codes @ layer.w.T + layer.b)  # float32; encode upcasts
    return layers


def fine_tune(layers: list[SdaLayer], x: np.ndarray, y: np.ndarray,
              config: SdaConfig, rng: np.random.Generator,
              scale_min: np.ndarray, scale_max: np.ndarray) -> SdaModel:
    """Supervised training of the encoder stack plus a fresh softmax layer,
    in _TRAIN_DTYPE; each layer of `layers` is updated in place."""
    _check_train_dtype(layers)
    x = np.asarray(x, dtype=_TRAIN_DTYPE)
    y = np.asarray(y, dtype=np.intp)
    if y.min() < 0 or y.max() >= config.outputs:
        raise DataError(
            f"labels outside [0, {config.outputs}): {sorted(set(y.tolist()))}")
    top_dim = layers[-1].w.shape[0]
    out_w = init_layer(top_dim, config.outputs, rng).w
    out_b = np.zeros(config.outputs, _TRAIN_DTYPE)
    weights = [layer.w for layer in layers] + [out_w]
    biases = [layer.b for layer in layers] + [out_b]
    bufs = [np.empty_like(w) for w in weights]
    for _ in range(config.finetune_epochs):
        for idx in _minibatches(len(x), config.finetune_batch, rng):
            with np.errstate(over="ignore", invalid="ignore"):  # guarded here
                s_w, s_b = finetune_grad(layers, out_w, out_b, x[idx], y[idx],
                                         bufs, config.finetune_lr)
                if not np.isfinite(sum(s.sum() for s in s_b)):
                    raise NumericError("non-finite fine-tuning gradient")
                _sgd_step(weights, s_w)
                _sgd_step(biases, s_b)
    return SdaModel(layers, out_w, out_b, config.window_length, scale_min,
                    scale_max)


def augment_binary(x: np.ndarray, y: np.ndarray, cap: int,
                   rng: np.random.Generator):
    """Grow the minority class of (x, y), labels 0 and 1, towards the
    majority count, at most `cap`: each synthetic window is a convex
    combination of a random pair of minority windows plus Gaussian jitter of
    5 % of their spread, clipped back to [0, 1]. A class already large
    enough, or with fewer than 2 windows to combine, is left as it is."""
    counts = [int(np.sum(y == c)) for c in (0, 1)]
    minority = int(np.argmin(counts))
    target = min(max(counts), cap)
    members = x[y == minority]
    if len(members) >= target or len(members) < 2:
        return x, y
    sigma = 0.05 * members.std(axis=0)
    extra = []
    for _ in range(target - len(members)):
        i, j = rng.choice(len(members), size=2, replace=False)
        t = rng.random()
        v = t * members[i] + (1.0 - t) * members[j]
        extra.append(v + rng.normal(0.0, 1.0, size=v.shape) * sigma)
    extra = np.clip(np.stack(extra), 0.0, 1.0)
    return (np.concatenate([x, extra]),
            np.concatenate([y, np.full(len(extra), minority, dtype=y.dtype)]))


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


def _pad_edges(seq: np.ndarray, window_length: int) -> np.ndarray:
    """The (T, d) sequence with window_length // 2 copies of its first and of
    its last vector added at either end."""
    half = window_length // 2
    return np.pad(np.asarray(seq, dtype=np.float64), ((half, half), (0, 0)),
                  mode="edge")


def _window_rows(padded: np.ndarray, window_length: int, lo: int,
                 hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the windows of a sequence that `_pad_edges` padded:
    row t concatenates the padded vectors t .. t + window_length - 1."""
    windows = sliding_window_view(padded[lo:hi + window_length - 1],
                                  window_length, axis=0)
    return np.ascontiguousarray(windows.transpose(0, 2, 1)).reshape(hi - lo, -1)


def make_windows(seq: np.ndarray, window_length: int) -> np.ndarray:
    """Concatenate window_length consecutive vectors centered on each index,
    edge-replicated at the boundaries: (T, d) -> (T, window_length * d)."""
    return _window_rows(_pad_edges(seq, window_length), window_length, 0,
                        len(seq))


def sda_input(seq: np.ndarray, scale_min: np.ndarray, scale_max: np.ndarray,
              window_length: int) -> np.ndarray:
    """An SdA's input rows for a (T, d) reduced sequence, in training and
    decoding alike: the sequence scaled to [0, 1], then windowed."""
    return make_windows(scale_input(seq, scale_min, scale_max), window_length)


def _block_rows(model: SdaModel) -> int:
    """Epochs per block of `predict_sequences`: the largest power of two whose
    widest array, the window rows or one layer's activations, fits in _BLOCK
    doubles; at least one."""
    widths = [model.layers[0].w.shape[1], *(len(layer.w) for layer in model.layers),
              len(model.out_w)]
    rows = max(_BLOCK // max(widths), 1)
    return 1 << (rows.bit_length() - 1)


def predict_sequences(pairs: list[tuple[SdaModel, np.ndarray]]) -> list[np.ndarray]:
    """The (T, outputs) softmax of each (SdaModel, (T, d) reduced sequence)
    pair on its `sda_input` rows, computed in blocks of `_block_rows(model)`
    epochs: each scaled, padded sequence is whole, and each block builds
    only its own window rows and activations and writes only its own rows
    of its model's output. The blocks of all pairs are the items of one
    `parallel.run`, so each runs inside its BLAS pin and its bits do not
    depend on the worker that runs it."""
    outs, blocks = [], []
    for model, seq in pairs:
        padded = _pad_edges(scale_input(seq, model.scale_min, model.scale_max),
                            model.window_length)
        out = np.full((len(seq), len(model.out_b)), np.nan)
        step = _block_rows(model)
        blocks += [(model, padded, out, lo, min(lo + step, len(out)))
                   for lo in range(0, len(out), step)]
        outs.append(out)

    def predict(i: int) -> None:
        model, padded, out, lo, hi = blocks[i]
        logits = np.matmul(encode(model.layers, _window_rows(
            padded, model.window_length, lo, hi)), model.out_w.T)
        logits += model.out_b
        out[lo:hi] = _softmax(logits)

    parallel.run(predict, len(blocks))
    return outs


def predict_sequence(model: SdaModel, reduced_seq: np.ndarray) -> np.ndarray:
    """`predict_sequences` of one (model, sequence) pair."""
    return predict_sequences([(model, reduced_seq)])[0]


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

@dataclass
class SecondPassModels:
    pca_detector: PcaModel   # 132 -> 13, shared by the two detectors
    pca_sixway: PcaModel     # 132 -> 20
    sda_spsw: SdaModel
    sda_eyem: SdaModel
    sda_sixway: SdaModel


def decode_pass2(pass1: np.ndarray, models: SecondPassModels) -> np.ndarray:
    """(epochs, 6) posteriors from the (epochs, channels, 6) pass-1
    posteriors, reduced and windowed as in training. Both projections run
    at one BLAS thread, and the blocks of the three SdAs, 6-way first, are
    one `predict_sequences` work split."""
    sv = supervector_sequence(pass1)
    with parallel.one_blas_thread():
        det_seq = reduce_sequence_for_detectors(models.pca_detector.project(sv))
        six_seq = models.pca_sixway.project(sv)
    p_six, p_spsw, p_eyem = predict_sequences([
        (models.sda_sixway, six_seq), (models.sda_spsw, det_seq),
        (models.sda_eyem, det_seq)])
    return enhance(p_six, p_spsw, p_eyem)
