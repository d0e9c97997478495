"""Pass 3: iterative Bayesian smoothing of the epoch posterior sequence with a
bigram label model and exponentially decayed left/right context windows."""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError, check_shape
from .labels import NUM_CLASSES

log = logging.getLogger(__name__)


# The published transition table (rows: from, cols: to, canonical label
# order SPSW PLED GPED EYEM ARTF BCKG). The ARTF and BCKG rows sum to 1.02
# as printed; they are renormalized at load with a logged warning.
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


@dataclass(frozen=True)
class GrammarParams:
    epsilon_prior: float = 0.1  # broadcast over the 6 classes
    m_weight: float = 1.0
    decay: float = 0.2          # lambda
    alpha: float = 0.1
    gamma: float = 1.0
    iterations: int = 20
    window: int = 10

    def __post_init__(self):
        if self.window < 1:
            raise DataError("context window must be >= 1")
        if not all(0 <= v < np.inf for v in (self.epsilon_prior, self.m_weight,
                                             self.decay, self.alpha, self.gamma)):
            raise DataError("grammar weights and decay must be finite and non-negative")


def _normalize_rows(counts: np.ndarray, context: str) -> np.ndarray:
    sums = counts.sum(axis=1, keepdims=True)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        log.warning("%s: rows sum to %s; renormalizing", context,
                    np.round(sums.ravel(), 4).tolist())
    return counts / sums


def default_bigram() -> BigramTable:
    """The published table, row-renormalized (two rows print as 1.02)."""
    return BigramTable(_normalize_rows(TABLE1.copy(), "default bigram table"))


def estimate_bigram(sequences: list[np.ndarray], k: float = 0.1) -> BigramTable:
    """Add-k smoothed bigram estimate from integer label sequences."""
    counts = np.full((NUM_CLASSES, NUM_CLASSES), k, dtype=np.float64)
    transitions = 0
    for seq in sequences:
        seq = np.asarray(seq, dtype=np.intp)
        for a, b in zip(seq[:-1], seq[1:]):
            counts[a, b] += 1.0
            transitions += 1
    if transitions == 0:
        raise DataError("no transitions observed in corpus")
    return BigramTable(counts / counts.sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# The smoothing iteration

def global_prior(posteriors: np.ndarray, params: GrammarParams) -> np.ndarray:
    """Mean posterior blended with the broadcast epsilon prior, renormalized."""
    p = np.asarray(posteriors, dtype=np.float64)
    if p.shape[0] < 1:
        raise DataError("need at least one epoch")
    num = p.sum(axis=0) + params.epsilon_prior * params.m_weight
    g = num / (p.shape[0] + params.m_weight)
    return g / g.sum()


def context_probs(posteriors: np.ndarray, k: int, side: str,
                  params: GrammarParams,
                  gprior: np.ndarray | None = None) -> np.ndarray:
    """Left or right context probability for epoch k: exponentially decayed
    window sum blended with alpha * global prior, normalized to sum to 1.
    Decay weights renormalize over the neighbors that exist near an edge; if
    no neighbor exists on that side the global prior is returned."""
    p = np.asarray(posteriors, dtype=np.float64)
    if gprior is None:
        gprior = global_prior(p, params)
    sign = {"left": -1, "right": +1}[side]
    acc = np.zeros(NUM_CLASSES)
    wsum = 0.0
    for i in range(1, params.window + 1):
        j = k + sign * i
        if 0 <= j < p.shape[0]:
            w = np.exp(-i * params.decay)
            acc += w * p[j]
            wsum += w
    if wsum == 0.0:
        return gprior.copy()
    ctx = (acc / wsum + params.alpha * gprior) / (1.0 + params.alpha)
    return ctx / ctx.sum()


def grammar_update(posteriors: np.ndarray, table: BigramTable,
                   params: GrammarParams, iteration: int = 1) -> np.ndarray:
    """One smoothing iteration: every epoch's posterior is multiplied by the
    bigram-weighted left/right context term raised to gamma/iteration and
    renormalized. Both bigram indices run over all six classes."""
    p = np.asarray(posteriors, dtype=np.float64)
    n_epochs = p.shape[0]
    if n_epochs < 2:
        return p.copy()  # no context to draw on
    gprior = global_prior(p, params)
    prob = table.probs
    exponent = params.gamma / max(iteration, 1)
    out = np.empty_like(p)
    for k in range(n_epochs):
        lpp = context_probs(p, k, "left", params, gprior)
        rpp = context_probs(p, k, "right", params, gprior)
        # sum_i sum_j LPP(i) RPP(j) Prob(i, c) Prob(c, j) factorizes.
        ctx = (lpp @ prob) * (prob @ rpp)
        updated = p[k] * np.power(ctx, exponent)
        total = updated.sum()
        out[k] = updated / total if total > 0 else p[k]
    return out


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
