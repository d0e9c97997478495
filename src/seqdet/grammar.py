"""Pass 3: iterative Bayesian smoothing of the epoch posterior sequence with a
bigram label model and exponentially decayed left/right context windows.
The published bigram table is a constant, normalized once at import: TABLE1
as printed, and TABLE1_BIGRAM with its rows divided by their sums."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, check_shape
from .labels import NUM_CLASSES


# The published transition table as printed (rows: from, cols: to, canonical
# label order SPSW PLED GPED EYEM ARTF BCKG). The ARTF and BCKG rows sum to
# 1.02 as printed.
TABLE1 = np.array([
    # SPSW  PLED  GPED  EYEM  ARTF  BCKG
    [0.40, 0.00, 0.00, 0.10, 0.20, 0.30],  # SPSW
    [0.00, 0.90, 0.00, 0.00, 0.05, 0.05],  # PLED
    [0.00, 0.00, 0.60, 0.00, 0.20, 0.20],  # GPED
    [0.10, 0.00, 0.00, 0.40, 0.10, 0.40],  # EYEM
    [0.23, 0.05, 0.05, 0.23, 0.23, 0.23],  # ARTF
    [0.33, 0.05, 0.05, 0.23, 0.13, 0.23],  # BCKG
])


@dataclass(frozen=True)
class BigramTable:
    probs: np.ndarray  # (6, 6), row-stochastic

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        check_shape("probs", p, (NUM_CLASSES, NUM_CLASSES))
        if not np.all(p >= 0):
            raise DataError("probs entries must be non-negative numbers")
        if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-6):
            raise DataError("probs rows must sum to 1")
        object.__setattr__(self, "probs", p)


# What the `table1` bigram source trains with: each row of TABLE1 divided by
# its sum, which moves only the ARTF and BCKG rows.
TABLE1_BIGRAM = BigramTable(TABLE1 / TABLE1.sum(axis=1, keepdims=True))
TABLE1_BIGRAM.probs.flags.writeable = False


@dataclass(frozen=True)
class GrammarParams:
    epsilon_prior: float = 0.1  # broadcast over the 6 classes
    decay: float = 0.2          # lambda
    alpha: float = 0.1
    gamma: float = 1.0
    iterations: int = 20
    window: int = 10

    def __post_init__(self):
        if self.window < 1:
            raise DataError("context window must be >= 1")
        if not all(0 <= v < np.inf for v in (self.epsilon_prior, self.decay,
                                             self.alpha, self.gamma)):
            raise DataError("grammar weights and decay must be finite and non-negative")


def estimate_bigram(sequences: list[np.ndarray], k: float = 0.1) -> BigramTable:
    """Add-k smoothed bigram estimate from integer label sequences."""
    counts = np.full((NUM_CLASSES, NUM_CLASSES), k, dtype=np.float64)
    transitions = 0
    for seq in sequences:
        seq = np.asarray(seq, dtype=np.intp)
        np.add.at(counts, (seq[:-1], seq[1:]), 1.0)
        transitions += max(len(seq) - 1, 0)
    if transitions == 0:
        raise DataError("no transitions observed in corpus")
    return BigramTable(counts / counts.sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# The smoothing iteration

def global_prior(posteriors: np.ndarray, params: GrammarParams) -> np.ndarray:
    """The posteriors summed over epochs plus epsilon_prior in each class,
    normalized. An epsilon_prior so large that the sum overflows gives the
    uniform prior, the limit as epsilon_prior grows."""
    p = np.asarray(posteriors, dtype=np.float64)
    if p.shape[0] < 1:
        raise DataError("need at least one epoch")
    num = p.sum(axis=0) + params.epsilon_prior
    with np.errstate(over="ignore"):
        total = num.sum()
    if total == np.inf:
        return np.full(NUM_CLASSES, 1.0 / NUM_CLASSES)
    return num / total


def _context(windows: np.ndarray, exists: np.ndarray, weights: np.ndarray,
             gprior: np.ndarray, alpha: float) -> np.ndarray:
    """Left or right context of every epoch from its (E, 6, W) posterior
    windows and (E, W) indicator of the neighbours that exist: the decayed
    window mean blended with alpha * global prior and normalized. Decay weights
    renormalize over the neighbours that exist near an edge; with none on that
    side, the window mean is the global prior, so the context is too."""
    acc = windows @ weights
    wsum = (exists @ weights)[:, None]
    mean = np.divide(acc, wsum, out=np.tile(gprior, (len(acc), 1)), where=wsum > 0.0)
    ctx = (mean + alpha * gprior) / (1.0 + alpha)
    return ctx / ctx.sum(axis=1, keepdims=True)


def grammar_update(posteriors: np.ndarray, table: BigramTable,
                   params: GrammarParams, iteration: int = 1) -> np.ndarray:
    """One smoothing iteration: every epoch's posterior is multiplied by the
    bigram-weighted left/right context term raised to gamma/iteration and
    renormalized. Both bigram indices run over all six classes. The context
    sums are correlations of the zero-padded sequence with the decay weights
    e^{-i lambda}, i = 1..window."""
    p = np.asarray(posteriors, dtype=np.float64)
    n_epochs, win = p.shape[0], params.window
    if n_epochs < 2:
        return p.copy()  # no context to draw on
    gprior = global_prior(p, params)
    with np.errstate(over="ignore"):  # exp(-inf) is the intended 0
        weights = np.exp(-np.arange(1, win + 1) * params.decay)
    # Window s of the padded sequence holds epochs s - win .. s - 1: epoch k's
    # left neighbours are window k, its right neighbours window k + win + 1.
    padded = np.zeros((n_epochs + 2 * win, NUM_CLASSES))
    padded[win:win + n_epochs] = p
    exists = np.zeros(n_epochs + 2 * win)
    exists[win:win + n_epochs] = 1.0
    windows = sliding_window_view(padded, win, axis=0)
    present = sliding_window_view(exists, win)
    lpp = _context(windows[:n_epochs], present[:n_epochs], weights[::-1],
                   gprior, params.alpha)
    rpp = _context(windows[win + 1:], present[win + 1:], weights, gprior,
                   params.alpha)
    # sum_i sum_j LPP(i) RPP(j) Prob(i, c) Prob(c, j) factorizes.
    prob = table.probs
    ctx = (lpp @ prob) * (rpp @ prob.T)
    updated = p * np.power(ctx, params.gamma / max(iteration, 1))
    total = updated.sum(axis=1, keepdims=True)
    return np.divide(updated, total, out=p.copy(), where=total > 0)


def decode_pass3(posteriors: np.ndarray, table: BigramTable,
                 params: GrammarParams = GrammarParams()):
    """Iterate the smoothing update until the per-epoch argmax labels stop
    changing (or the iteration budget runs out). Returns (labels, posteriors)."""
    current = np.asarray(posteriors, dtype=np.float64).copy()
    labels = np.argmax(current, axis=1)
    for it in range(1, params.iterations + 1):
        nxt = grammar_update(current, table, params, iteration=it)
        nxt_labels = np.argmax(nxt, axis=1)
        converged = np.array_equal(nxt_labels, labels)
        current, labels = nxt, nxt_labels
        if converged:
            break
    return labels, current
