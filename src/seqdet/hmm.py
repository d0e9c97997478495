"""Pass 1: one left-to-right GMM-HMM per event class, Baum-Welch training and
per-epoch posterior scoring.

Models start in state 0 and may only self-loop or advance one state; emission
densities are diagonal-covariance Gaussian mixtures attached to states. All
probability computations run in log space; the E-step is batched over epochs
(every epoch has the same frame count) so training is a handful of vectorized
operations per iteration.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from .features import FeatureGrid
from .labels import NUM_CLASSES, EventLabel

LOG_ZERO = -np.inf
_BATCH = 2048


class HmmError(Exception):
    pass


@dataclass(frozen=True)
class GmmHmmModel:
    label: EventLabel
    trans: np.ndarray      # (N, N) row-stochastic, left-to-right zeros
    weights: np.ndarray    # (N, L) mixture weights, rows sum to 1
    means: np.ndarray      # (N, L, D)
    variances: np.ndarray  # (N, L, D), floored
    var_floor: np.ndarray  # (D,)

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

def _component_loglik(model: GmmHmmModel, obs: np.ndarray) -> np.ndarray:
    """Log N(o; mu, diag sigma^2) + log w for every (..., state, component)."""
    diff = obs[..., None, None, :] - model.means          # (..., N, L, D)
    quad = np.sum(diff * diff / model.variances, axis=-1)
    logdet = np.sum(np.log(model.variances), axis=-1)     # (N, L)
    d = model.dim
    logpdf = -0.5 * (quad + logdet + d * np.log(2.0 * np.pi))
    with np.errstate(divide="ignore"):
        logw = np.log(model.weights)
    return logw + logpdf


def log_emissions(model: GmmHmmModel, obs: np.ndarray) -> np.ndarray:
    """Per-frame log emission likelihood for each state: (..., T, N)."""
    return logsumexp(_component_loglik(model, obs), axis=-1)


def _log_trans(model: GmmHmmModel) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(model.trans)


# ---------------------------------------------------------------------------
# Forward / backward / Viterbi

def _forward_batch(log_a: np.ndarray, logb: np.ndarray) -> np.ndarray:
    """Log-alpha (B, T, N) for a batch of same-length sequences; the chain
    starts deterministically in state 0."""
    b, t_len, n = logb.shape
    la = np.full((b, t_len, n), LOG_ZERO)
    la[:, 0, 0] = logb[:, 0, 0]
    for t in range(1, t_len):
        la[:, t] = logsumexp(la[:, t - 1, :, None] + log_a[None], axis=1) + logb[:, t]
    return la


def _backward_batch(log_a: np.ndarray, logb: np.ndarray) -> np.ndarray:
    b, t_len, n = logb.shape
    lb = np.zeros((b, t_len, n))
    for t in range(t_len - 2, -1, -1):
        lb[:, t] = logsumexp(
            log_a[None] + (logb[:, t + 1] + lb[:, t + 1])[:, None, :], axis=2)
    return lb


def forward_backward(model: GmmHmmModel, obs: np.ndarray):
    """Log alpha table (N, T), log beta table (N, T) and log P(O|M) for a
    single observation sequence (T, D)."""
    obs = np.asarray(obs, dtype=np.float64)
    logb = log_emissions(model, obs[None])            # (1, T, N)
    log_a = _log_trans(model)
    la = _forward_batch(log_a, logb)[0]
    lb = _backward_batch(log_a, logb)[0]
    loglik = float(logsumexp(la[-1]))
    return la.T, lb.T, loglik


def loglikelihood(model: GmmHmmModel, obs_batch: np.ndarray) -> np.ndarray:
    """Log P(O|M) for a batch (B, T, D) of equal-length sequences."""
    obs_batch = np.asarray(obs_batch, dtype=np.float64)
    out = np.empty(obs_batch.shape[0])
    log_a = _log_trans(model)
    for lo in range(0, obs_batch.shape[0], _BATCH):
        chunk = obs_batch[lo:lo + _BATCH]
        logb = log_emissions(model, chunk)
        la = _forward_batch(log_a, logb)
        out[lo:lo + _BATCH] = logsumexp(la[:, -1], axis=1)
    return out


def viterbi(model: GmmHmmModel, obs: np.ndarray):
    """Best state path and its log score (max-product forward pass)."""
    obs = np.asarray(obs, dtype=np.float64)
    logb = log_emissions(model, obs[None])[0]         # (T, N)
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

def _kmeans(x: np.ndarray, k: int, rng: np.random.Generator,
            iters: int = 50) -> np.ndarray:
    """Plain seeded Lloyd iteration; empty clusters are reseeded to random
    points so k centroids always come back."""
    if len(x) < k:
        raise HmmError(f"k-means needs >= {k} points, got {len(x)}")
    centroids = x[rng.choice(len(x), size=k, replace=False)].copy()
    for _ in range(iters):
        d2 = np.sum((x[:, None, :] - centroids[None]) ** 2, axis=2)
        assign = np.argmin(d2, axis=1)
        new = centroids.copy()
        for j in range(k):
            members = x[assign == j]
            if len(members):
                new[j] = members.mean(axis=0)
            else:
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
        raise HmmError("epochs must be (num_epochs, T, D)")
    b, t_len, dim = epochs.shape
    if num_states > t_len:
        raise HmmError(f"num_states {num_states} exceeds epoch length {t_len}")
    if b * t_len < num_components * num_states:
        raise HmmError(
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
        d2 = np.sum((vecs[:, None, :] - centroids[None]) ** 2, axis=2)
        assign = np.argmin(d2, axis=1)
        for l in range(num_components):
            members = vecs[assign == l]
            if len(members) == 0:
                members = vecs
            weights[s, l] = max(len(vecs[assign == l]), 1)
            means[s, l] = members.mean(axis=0)
            variances[s, l] = np.maximum(members.var(axis=0), var_floor)
        weights[s] /= weights[s].sum()

    return GmmHmmModel(label, _left_right_trans(num_states), weights, means,
                       variances, var_floor)


# ---------------------------------------------------------------------------
# Baum-Welch reestimation

def _reestimate_one(model: GmmHmmModel, epochs: np.ndarray):
    """One accumulation-and-update pass for one class; returns the updated
    model and the total corpus log-likelihood under the *input* model."""
    epochs = np.asarray(epochs, dtype=np.float64)
    n, comps, dim = model.num_states, model.num_components, model.dim
    log_a = _log_trans(model)

    trans_num = np.zeros((n, n))
    occ = np.zeros((n, comps))
    mean_acc = np.zeros((n, comps, dim))
    sq_acc = np.zeros((n, comps, dim))
    total_ll = 0.0

    for lo in range(0, epochs.shape[0], _BATCH):
        chunk = epochs[lo:lo + _BATCH]
        comp_ll = _component_loglik(model, chunk)          # (B, T, N, L)
        logb = logsumexp(comp_ll, axis=-1)                 # (B, T, N)
        la = _forward_batch(log_a, logb)
        lb = _backward_batch(log_a, logb)
        loglik = logsumexp(la[:, -1], axis=1)              # (B,)
        total_ll += float(np.sum(loglik))

        lgamma = la + lb - loglik[:, None, None]           # (B, T, N)
        # Per-component occupancy: gamma split by within-state posterior.
        r = np.exp(lgamma[..., None] + comp_ll - logb[..., None])
        occ += r.sum(axis=(0, 1))
        mean_acc += np.einsum("btnl,btd->nld", r, chunk)
        sq_acc += np.einsum("btnl,btd->nld", r, chunk * chunk)

        t_len = chunk.shape[1]
        for t in range(1, t_len):
            xi = np.exp(la[:, t - 1, :, None] + log_a[None]
                        + (logb[:, t] + lb[:, t])[:, None, :]
                        - loglik[:, None, None])
            trans_num += xi.sum(axis=0)

    # Transitions: occupancy-normalized; structural zeros stay zero.
    row = trans_num.sum(axis=1, keepdims=True)
    trans = np.where(row > 0, trans_num / np.where(row > 0, row, 1.0), model.trans)
    trans[-1] = model.trans[-1]  # final state has no outgoing arcs to count

    state_occ = occ.sum(axis=1, keepdims=True)
    weights = np.where(state_occ > 0, occ / np.where(state_occ > 0, state_occ, 1.0),
                       model.weights)
    safe = occ > 1e-10
    means = np.where(safe[..., None], mean_acc / np.maximum(occ, 1e-300)[..., None],
                     model.means)
    variances = np.where(
        safe[..., None],
        sq_acc / np.maximum(occ, 1e-300)[..., None] - means ** 2,
        model.variances)
    variances = np.maximum(variances, model.var_floor)

    updated = replace(model, trans=trans, weights=weights, means=means,
                      variances=variances)
    return updated, total_ll


def reestimate(models: dict[EventLabel, GmmHmmModel],
               corpus: dict[EventLabel, np.ndarray]):
    """One Baum-Welch iteration over every class; returns (updated models,
    per-class input log-likelihoods)."""
    missing = [lab.name for lab in models if lab not in corpus or
               len(corpus[lab]) == 0]
    if missing:
        raise HmmError(f"empty corpus for classes: {missing}")
    updated, lls = {}, {}
    for lab, model in models.items():
        updated[lab], lls[lab] = _reestimate_one(model, corpus[lab])
    return updated, lls


@dataclass(frozen=True)
class HmmConfig:
    num_states: int = 3
    num_components: int = 8
    max_iterations: int = 20
    tol_per_frame: float = 1e-4
    seed: int = 0


def train(corpus: dict[EventLabel, np.ndarray],
          config: HmmConfig = HmmConfig()) -> dict[EventLabel, GmmHmmModel]:
    """Train all six class models: flat start, then Baum-Welch until the
    per-frame log-likelihood gain drops below tolerance."""
    missing = [lab.name for lab in EventLabel
               if lab not in corpus or len(corpus[lab]) == 0]
    if missing:
        raise HmmError(f"training corpus missing classes: {missing}")
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

def score_batch(models: dict[EventLabel, GmmHmmModel], obs_batch: np.ndarray,
                priors: np.ndarray | None = None) -> np.ndarray:
    """(B, 6) class posteriors of a (B, T, D) batch of observation
    sequences."""
    if len(models) != NUM_CLASSES:
        raise HmmError(f"need {NUM_CLASSES} models, got {len(models)}")
    if priors is None:
        log_priors = np.zeros(NUM_CLASSES)
    else:
        with np.errstate(divide="ignore"):
            log_priors = np.log(np.asarray(priors, dtype=np.float64))
    scores = np.stack([loglikelihood(models[lab], obs_batch) + log_priors[int(lab)]
                       for lab in EventLabel], axis=1)
    scores -= logsumexp(scores, axis=1, keepdims=True)
    return np.exp(scores)


def decode_pass1(grid: FeatureGrid, models: dict[EventLabel, GmmHmmModel],
                 priors: np.ndarray | None = None) -> PosteriorGrid:
    """Score every (epoch, channel) cell independently."""
    cells = grid.cells()
    n_ep, n_ch = cells.shape[:2]
    post = score_batch(models, cells.reshape(n_ep * n_ch, *cells.shape[2:]),
                       priors)
    return PosteriorGrid(post.reshape(n_ep, n_ch, NUM_CLASSES))
