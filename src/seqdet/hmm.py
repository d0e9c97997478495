"""Pass 1: one left-to-right GMM-HMM per event class, Baum-Welch training and
per-epoch posterior scoring.

Models start in state 0 and may only self-loop or advance one state; emission
densities are diagonal-covariance Gaussian mixtures attached to states. All
probability computations run in log space, batched over epochs. Emissions come
from one GEMM kernel over a bank of stacked models (all six when scoring, one in
Baum-Welch): const - x^2 (1/(2 sigma^2))^T + x (mu/sigma^2)^T, as in HTK and Kaldi.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, check_shape
from .features import FeatureGrid
from .labels import NUM_CLASSES, EventLabel

LOG_ZERO = -np.inf
# Shifted log terms are clamped here before np.exp: exp(-700) is about 1e-304,
# far under half an ulp of a sum that holds the maximum's exact 1, and numpy's
# exp takes a slow path on inputs below about -708 and on -inf.
_EXP_FLOOR = -700.0
# Emission-block budget in doubles (4 MB): it sets the cells per chunk.
_BLOCK = 1 << 19


@dataclass(frozen=True)
class GmmHmmModel:
    label: EventLabel
    trans: np.ndarray      # (N, N) row-stochastic, left-to-right zeros
    weights: np.ndarray    # (N, L) mixture weights, rows sum to 1
    means: np.ndarray      # (N, L, D)
    variances: np.ndarray  # (N, L, D), floored
    var_floor: np.ndarray  # (D,)

    def __post_init__(self):
        if np.ndim(self.means) != 3:
            raise DataError(f"means must be (N, L, D), got shape {np.shape(self.means)}")
        n, l, d = self.means.shape
        for name, want in (("trans", (n, n)), ("weights", (n, l)),
                           ("variances", (n, l, d)), ("var_floor", (d,))):
            check_shape(name, getattr(self, name), want)

    @property
    def num_states(self) -> int:
        return self.trans.shape[0]

    @property
    def num_components(self) -> int:
        return self.weights.shape[1]

    @property
    def dim(self) -> int:
        return self.means.shape[2]


@dataclass(frozen=True)
class PosteriorGrid:
    """Per-(epoch, channel) class posteriors from pass-1 scoring."""
    posteriors: np.ndarray  # (epochs, channels, 6)

    @property
    def num_epochs(self) -> int:
        return self.posteriors.shape[0]

    @property
    def num_channels(self) -> int:
        return self.posteriors.shape[1]

    def argmax_labels(self) -> np.ndarray:
        """(epochs, channels) array of winning class codes."""
        return np.argmax(self.posteriors, axis=2)


# ---------------------------------------------------------------------------
# Emission densities

def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(a))) along `axis`, shifted by the maximum. Shifted terms
    are clamped at _EXP_FLOOR, which leaves every sum bit-identical; a row
    whose maximum is not finite gives that maximum (-inf for a row that is
    all -inf, NaN or +inf), as the unclamped sum would."""
    m = np.max(a, axis=axis, keepdims=True)
    dead = ~np.isfinite(m)
    held = m[dead]
    m[dead] = 0.0
    e = a - m
    np.maximum(e, _EXP_FLOOR, out=e)
    np.exp(e, out=e)
    out = np.log(e.sum(axis=axis, keepdims=True))
    out += m
    out[dead] = held
    return out.squeeze(axis)


def _bank(models: list[GmmHmmModel]):
    """The Gaussians of same-shape models as GEMM terms: w (M, N, L, 2D) is
    -1/(2 sigma^2) | mu/sigma^2 and const (M, N, L) is log w - (sum log sigma^2
    + D log 2 pi + sum mu^2/sigma^2) / 2, -inf where w = 0."""
    var = np.stack([m.variances for m in models])
    means = np.stack([m.means for m in models])
    wmean = means / var
    with np.errstate(divide="ignore"):
        logw = np.log(np.stack([m.weights for m in models]))
    const = logw - 0.5 * (np.log(var).sum(axis=-1) + var.shape[-1] * np.log(2.0 * np.pi)
                          + (means * wmean).sum(axis=-1))
    return np.concatenate([-0.5 / var, wmean], axis=-1), const


def _chunk(w: np.ndarray, frames: int) -> int:
    """Cells per chunk for a bank w (..., 2D): the largest power of two whose
    emission block (Gaussians x frames x cells) fits in _BLOCK doubles. Power-
    of-two chunks keep every GEMM column at the same kernel position."""
    cells = max(_BLOCK // (w[..., 0].size * frames), 1)
    return 1 << (cells.bit_length() - 1)


def _emissions(w: np.ndarray, const: np.ndarray, frames: np.ndarray):
    """Component log-likelihoods (M, N, L, T, B), log w included, and per-state
    log emissions (M, N, T, B) of B sequences given frame-major, (T, B, D):
    one GEMM of the bank's terms against the frames [x^2 | x], plus the
    constants."""
    x = frames.reshape(-1, frames.shape[-1])
    comp = w.reshape(-1, w.shape[-1]) @ np.hstack([x * x, x]).T
    comp += const.reshape(-1, 1)
    comp = comp.reshape(*const.shape, *frames.shape[:2])
    return comp, _logsumexp(comp, axis=2)


def _batch_rows(batch: np.ndarray) -> np.ndarray:
    """The (T, B) rows of batch.reshape(-1, D) that hold each sequence of a
    (B, T, D) batch, frame-major as _emissions reads them."""
    b, t = batch.shape[:2]
    return np.arange(t)[:, None] + t * np.arange(b)


def log_emissions(model: GmmHmmModel, obs: np.ndarray) -> np.ndarray:
    """Per-frame log emission likelihood for each state: (..., T, N)."""
    obs = np.asarray(obs, dtype=np.float64)
    batch = obs.reshape(-1, *obs.shape[-2:])
    logb = _emissions(*_bank([model]), batch.transpose(1, 0, 2))[1][0]
    return logb.transpose(2, 1, 0).reshape(*obs.shape[:-1], -1)


def _log_trans(model: GmmHmmModel) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(model.trans)


# ---------------------------------------------------------------------------
# Forward / backward / Viterbi

def _forward_batch(log_a: np.ndarray, logb: np.ndarray) -> np.ndarray:
    """Log-alpha (..., N, T, B) of B same-length sequences from log emissions
    (..., N, T, B) and log transitions (..., N, N); every chain starts in
    state 0."""
    la = np.full(logb.shape, LOG_ZERO)
    la[..., 0, 0, :] = logb[..., 0, 0, :]
    for t in range(1, logb.shape[-2]):
        la[..., t, :] = (_logsumexp(la[..., :, None, t - 1, :] + log_a[..., None],
                                    axis=-3) + logb[..., t, :])
    return la


def _backward_batch(log_a: np.ndarray, logb: np.ndarray) -> np.ndarray:
    lb = np.zeros(logb.shape)
    for t in range(logb.shape[-2] - 2, -1, -1):
        lb[..., t, :] = _logsumexp(
            log_a[..., None] + (logb[..., t + 1, :] + lb[..., t + 1, :])[..., None, :, :],
            axis=-2)
    return lb


def forward_backward(model: GmmHmmModel, obs: np.ndarray):
    """Log alpha table (N, T), log beta table (N, T) and log P(O|M) for a
    single observation sequence (T, D)."""
    log_a = _log_trans(model)
    logb = log_emissions(model, obs).T[..., None]     # (N, T, 1)
    la = _forward_batch(log_a, logb)[..., 0]
    lb = _backward_batch(log_a, logb)[..., 0]
    return la, lb, float(_logsumexp(la[:, -1]))


def _loglik(models: list[GmmHmmModel], frames: np.ndarray,
            rows: np.ndarray) -> np.ndarray:
    """Log P(O|M) (B, M) of each of M stacked models for B sequences of T
    frames: column b of rows (T, B) indexes sequence b's frames among the
    rows of frames (n, D). Each chunk is gathered straight from frames."""
    bank, log_a = _bank(models), np.stack([_log_trans(m) for m in models])
    out = np.empty((rows.shape[1], len(models)))
    step = _chunk(bank[0], rows.shape[0])
    for lo in range(0, rows.shape[1], step):
        logb = _emissions(*bank, frames[rows[:, lo:lo + step]])[1]
        out[lo:lo + step] = _logsumexp(_forward_batch(log_a, logb)[..., -1, :], axis=1).T
    return out


def viterbi(model: GmmHmmModel, obs: np.ndarray):
    """Best state path and its log score (max-product forward pass)."""
    logb = log_emissions(model, obs)                  # (T, N)
    log_a = _log_trans(model)
    t_len, n = logb.shape
    delta = np.full((t_len, n), LOG_ZERO)
    back = np.zeros((t_len, n), dtype=np.intp)
    delta[0, 0] = logb[0, 0]
    for t in range(1, t_len):
        scores = delta[t - 1, :, None] + log_a
        back[t] = np.argmax(scores, axis=0)
        delta[t] = scores[back[t], np.arange(n)] + logb[t]
    path = np.zeros(t_len, dtype=np.intp)
    path[-1] = int(np.argmax(delta[-1]))
    for t in range(t_len - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path, float(np.max(delta[-1]))


# ---------------------------------------------------------------------------
# Initialization

def _nearest(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid (row of c) to each row of x: the argmin
    of |c|^2 - 2 x.c, one GEMM; |x|^2 is the same in every column."""
    return np.argmin((c * c).sum(axis=1) - 2.0 * (x @ c.T), axis=1)


def _kmeans(x: np.ndarray, k: int, rng: np.random.Generator,
            iters: int = 50) -> np.ndarray:
    """Plain seeded Lloyd iteration; empty clusters are reseeded to random
    points, in cluster order, so k centroids always come back."""
    if len(x) < k:
        raise DataError(f"k-means needs >= {k} points, got {len(x)}")
    centroids = x[rng.choice(len(x), size=k, replace=False)].copy()
    columns = np.ascontiguousarray(x.T)
    for _ in range(iters):
        assign = _nearest(x, centroids)
        counts = np.bincount(assign, minlength=k)
        # Member sums in row order, as a per-cluster mean adds them.
        sums = np.stack([np.bincount(assign, weights=col, minlength=k)
                         for col in columns], axis=1)
        empty = counts == 0
        new = sums / np.where(empty, 1, counts)[:, None]
        for j in np.flatnonzero(empty):
            new[j] = x[rng.integers(len(x))]
        if np.allclose(new, centroids):
            break
        centroids = new
    return centroids


def _left_right_trans(n: int) -> np.ndarray:
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i] = a[i, i + 1] = 0.5
    a[n - 1, n - 1] = 1.0
    return a


def init_model(label: EventLabel, epochs: np.ndarray, num_states: int = 3,
               num_components: int = 8, seed: int = 0) -> GmmHmmModel:
    """Flat-start initialization: uniform left-to-right transitions, states
    seeded by uniform temporal segmentation of each epoch, per-state mixtures
    by seeded k-means."""
    epochs = np.asarray(epochs, dtype=np.float64)
    if epochs.ndim != 3:
        raise DataError("epochs must be (num_epochs, T, D)")
    b, t_len, dim = epochs.shape
    if num_states > t_len:
        raise DataError(f"num_states {num_states} exceeds epoch length {t_len}")
    if b * t_len < num_components * num_states:
        raise DataError(
            f"class {label.name}: {b * t_len} vectors insufficient for "
            f"{num_states} states x {num_components} components")
    rng = np.random.default_rng(seed)

    allvec = epochs.reshape(-1, dim)
    global_var = allvec.var(axis=0)
    var_floor = np.maximum(1e-3 * global_var, 1e-8)

    state_slices = np.array_split(np.arange(t_len), num_states)
    weights = np.zeros((num_states, num_components))
    means = np.zeros((num_states, num_components, dim))
    variances = np.zeros((num_states, num_components, dim))
    for s, frame_idx in enumerate(state_slices):
        vecs = epochs[:, frame_idx, :].reshape(-1, dim)
        if len(vecs) >= num_components and num_components > 1:
            centroids = _kmeans(vecs, num_components, rng)
        else:
            centroids = np.repeat(vecs.mean(axis=0, keepdims=True),
                                  num_components, axis=0)
        assign = _nearest(vecs, centroids)
        counts = np.bincount(assign, minlength=num_components)
        for l in range(num_components):
            members = vecs[assign == l] if counts[l] else vecs
            means[s, l] = members.mean(axis=0)
            variances[s, l] = np.maximum(members.var(axis=0), var_floor)
        occupied = np.maximum(counts, 1)
        weights[s] = occupied / occupied.sum()

    return GmmHmmModel(label, _left_right_trans(num_states), weights, means,
                       variances, var_floor)


# ---------------------------------------------------------------------------
# Baum-Welch reestimation

def _reestimate_one(model: GmmHmmModel, epochs: np.ndarray):
    """One accumulation-and-update pass for one class; returns the updated
    model and the total corpus log-likelihood under the *input* model."""
    epochs = np.asarray(epochs, dtype=np.float64)
    n, comps, dim = model.num_states, model.num_components, model.dim
    bank, log_a = _bank([model]), _log_trans(model)

    trans_num = np.zeros((n, n))
    moments = np.zeros((n * comps, 1 + 2 * dim))  # sums of r | r x^2 | r x
    total_ll = 0.0

    step = _chunk(bank[0], epochs.shape[1])
    for lo in range(0, epochs.shape[0], step):
        chunk = np.ascontiguousarray(epochs[lo:lo + step].transpose(1, 0, 2))
        comp_ll, logb = [a[0] for a in _emissions(*bank, chunk)]
        la = _forward_batch(log_a, logb)                   # (N, T, B)
        lb = _backward_batch(log_a, logb)
        loglik = _logsumexp(la[:, -1], axis=0)             # (B,)
        total_ll += float(np.sum(loglik))

        lgamma = la + lb - loglik                          # (N, T, B)
        # Per-component occupancy: gamma split by within-state posterior.
        r = np.exp(lgamma[:, None] + comp_ll - logb[:, None]).reshape(n * comps, -1)
        x = chunk.reshape(-1, dim)                         # frames, as in r
        moments += r @ np.hstack([np.ones((len(x), 1)), x * x, x])

        xi = np.exp(la[:, None, :-1] + log_a[..., None, None]
                    + (logb + lb)[None, :, 1:] - loglik)  # (N, N, T - 1, B)
        trans_num += xi.sum(axis=(2, 3))

    occ, sq_acc, mean_acc = np.split(moments.reshape(n, comps, -1), [1, 1 + dim], axis=-1)

    # Transitions: occupancy-normalized; structural zeros stay zero.
    row = trans_num.sum(axis=1, keepdims=True)
    trans = np.where(row > 0, trans_num / np.where(row > 0, row, 1.0), model.trans)
    trans[-1] = model.trans[-1]  # final state has no outgoing arcs to count

    state_occ = occ[..., 0].sum(axis=1, keepdims=True)
    weights = np.where(state_occ > 0,
                       occ[..., 0] / np.where(state_occ > 0, state_occ, 1.0), model.weights)
    safe, occ_safe = occ > 1e-10, np.maximum(occ, 1e-300)
    means = np.where(safe, mean_acc / occ_safe, model.means)
    variances = np.maximum(np.where(safe, sq_acc / occ_safe - means ** 2,
                                    model.variances), model.var_floor)

    updated = replace(model, trans=trans, weights=weights, means=means,
                      variances=variances)
    return updated, total_ll


@dataclass(frozen=True)
class HmmConfig:
    num_states: int = 3
    num_components: int = 8
    max_iterations: int = 20
    tol_per_frame: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for key in ("num_states", "num_components"):
            if getattr(self, key) < 1:
                raise DataError(f"{key} = {getattr(self, key)} must be at least 1")


def train(corpus: dict[EventLabel, np.ndarray],
          config: HmmConfig = HmmConfig()) -> dict[EventLabel, GmmHmmModel]:
    """Train all six class models: flat start, then Baum-Welch until the
    per-frame log-likelihood gain drops below tolerance."""
    missing = [lab.name for lab in EventLabel
               if lab not in corpus or len(corpus[lab]) == 0]
    if missing:
        raise DataError(f"training corpus missing classes: {missing}")
    models = {}
    for lab in EventLabel:
        epochs = np.asarray(corpus[lab], dtype=np.float64)
        model = init_model(lab, epochs, config.num_states,
                           config.num_components, seed=config.seed + int(lab))
        n_frames = epochs.shape[0] * epochs.shape[1]
        prev_ll = None
        for _ in range(config.max_iterations):
            model, ll = _reestimate_one(model, epochs)
            if prev_ll is not None and (ll - prev_ll) / n_frames < config.tol_per_frame:
                break
            prev_ll = ll
        models[lab] = model
    return models


# ---------------------------------------------------------------------------
# Scoring

def _posteriors(models: dict[EventLabel, GmmHmmModel], frames: np.ndarray,
                rows: np.ndarray, priors: np.ndarray | None) -> np.ndarray:
    """(B, 6) class posteriors of the B sequences that rows (T, B) picks
    from frames (n, D), scored against the six models stacked into one
    bank."""
    if len(models) != NUM_CLASSES:
        raise DataError(f"need {NUM_CLASSES} models, got {len(models)}")
    with np.errstate(divide="ignore"):
        log_priors = np.log(np.ones(NUM_CLASSES) if priors is None
                            else np.asarray(priors, dtype=np.float64))
    scores = _loglik([models[lab] for lab in EventLabel], frames, rows) + log_priors
    scores -= _logsumexp(scores, axis=1)[:, None]
    return np.exp(scores)


def score_batch(models: dict[EventLabel, GmmHmmModel], obs_batch: np.ndarray,
                priors: np.ndarray | None = None) -> np.ndarray:
    """(B, 6) class posteriors of a (B, T, D) batch of observation
    sequences."""
    obs = np.asarray(obs_batch, dtype=np.float64)
    return _posteriors(models, obs.reshape(-1, obs.shape[-1]), _batch_rows(obs),
                       priors)


def decode_pass1(grid: FeatureGrid, models: dict[EventLabel, GmmHmmModel],
                 priors: np.ndarray | None = None) -> PosteriorGrid:
    """Score every (epoch, channel) cell independently, each chunk of cells
    gathered from the feature array as it is scored."""
    frames = grid.vectors.reshape(-1, grid.vectors.shape[-1])
    rows = grid.frame_rows(np.arange(grid.num_epochs * grid.num_channels))
    post = _posteriors(models, frames, rows, priors)
    return PosteriorGrid(post.reshape(grid.num_epochs, grid.num_channels, NUM_CLASSES))
