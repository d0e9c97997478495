import warnings

import numpy as np
import pytest

from seqdet.errors import DataError
from seqdet.grammar import (TABLE1, TABLE1_BIGRAM, BigramTable, GrammarParams,
                            decode_pass3, estimate_bigram, global_prior,
                            grammar_update)
from seqdet.labels import NUM_CLASSES, EventLabel


def rand_post(rng, n):
    p = rng.random((n, 6))
    return p / p.sum(axis=1, keepdims=True)


def context_probs(posteriors, k, side, params, gprior=None):
    """Left or right context probability for epoch k, one epoch at a time:
    the loop reference for grammar_update's window correlation."""
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


def grammar_update_reference(posteriors, table, params, iteration=1):
    """grammar_update as a loop over epochs with two context_probs calls."""
    p = np.asarray(posteriors, dtype=np.float64)
    if p.shape[0] < 2:
        return p.copy()
    gprior = global_prior(p, params)
    prob = table.probs
    exponent = params.gamma / max(iteration, 1)
    out = np.empty_like(p)
    for k in range(p.shape[0]):
        lpp = context_probs(p, k, "left", params, gprior)
        rpp = context_probs(p, k, "right", params, gprior)
        ctx = (lpp @ prob) * (prob @ rpp)
        updated = p[k] * np.power(ctx, exponent)
        total = updated.sum()
        out[k] = updated / total if total > 0 else p[k]
    return out


def estimate_bigram_reference(sequences, k=0.1):
    """estimate_bigram's counts, one transition at a time."""
    counts = np.full((NUM_CLASSES, NUM_CLASSES), k, dtype=np.float64)
    for seq in sequences:
        for a, b in zip(seq[:-1], seq[1:]):
            counts[a, b] += 1.0
    return counts / counts.sum(axis=1, keepdims=True)


class TestTable:
    def test_published_values(self):
        assert TABLE1[int(EventLabel.PLED), int(EventLabel.PLED)] == 0.90
        assert TABLE1[int(EventLabel.PLED), int(EventLabel.SPSW)] == 0.00
        np.testing.assert_allclose(
            TABLE1[int(EventLabel.SPSW)], [0.40, 0.00, 0.00, 0.10, 0.20, 0.30])
        np.testing.assert_allclose(
            TABLE1[int(EventLabel.ARTF)], [0.23, 0.05, 0.05, 0.23, 0.23, 0.23])

    def test_printed_rows_off_one_are_artf_and_bckg(self):
        off = np.flatnonzero(np.abs(TABLE1.sum(axis=1) - 1.0) > 1e-9)
        np.testing.assert_array_equal(off, [int(EventLabel.ARTF),
                                            int(EventLabel.BCKG)])

    def test_table1_bigram_is_the_printed_table_over_its_row_sums(self):
        np.testing.assert_array_equal(
            TABLE1_BIGRAM.probs, TABLE1 / TABLE1.sum(axis=1, keepdims=True))
        # rows that print as summing to 1 keep their printed values exactly;
        # the overfull rows scale by 1/1.02
        np.testing.assert_array_equal(TABLE1_BIGRAM.probs[int(EventLabel.PLED)],
                                      TABLE1[int(EventLabel.PLED)])
        np.testing.assert_allclose(TABLE1_BIGRAM.probs[int(EventLabel.ARTF)],
                                   TABLE1[int(EventLabel.ARTF)] / 1.02)
        assert not TABLE1_BIGRAM.probs.flags.writeable

    def test_invalid_tables_rejected(self):
        with pytest.raises(DataError):
            BigramTable(np.full((6, 6), 0.5))
        with pytest.raises(DataError):
            BigramTable(np.eye(5))
        bad = np.eye(6)
        bad[0, 0], bad[0, 1] = -0.5, 1.5
        with pytest.raises(DataError):
            BigramTable(bad)
        bad[0, 0], bad[0, 1] = np.nan, 1.0
        with pytest.raises(DataError):
            BigramTable(bad)

    @pytest.mark.parametrize("key, value", [
        ("window", 0), ("alpha", -0.1), ("decay", np.nan), ("gamma", np.inf)])
    def test_invalid_params_rejected(self, key, value):
        with pytest.raises(DataError):
            GrammarParams(**{key: value})

    def test_estimate_bigram_counts(self):
        seqs = [np.array([5, 5, 1, 1, 1, 5])]
        table = estimate_bigram(seqs, k=0.0 + 1e-12)
        # transitions: 5->5, 5->1, 1->1, 1->1, 1->5
        assert table.probs[5, 5] == pytest.approx(0.5, abs=1e-9)
        assert table.probs[5, 1] == pytest.approx(0.5, abs=1e-9)
        assert table.probs[1, 1] == pytest.approx(2 / 3, abs=1e-9)

    def test_estimate_bigram_matches_loop(self):
        rng = np.random.default_rng(8)
        seqs = [rng.integers(0, 6, size=n) for n in (0, 1, 2, 17, 300)]
        np.testing.assert_array_equal(estimate_bigram(seqs, k=0.1).probs,
                                      estimate_bigram_reference(seqs, k=0.1))

    def test_estimate_bigram_smoothing(self):
        table = estimate_bigram([np.array([0, 0])], k=0.1)
        # unseen rows are uniform
        np.testing.assert_allclose(table.probs[3], 1 / 6)
        with pytest.raises(DataError):
            estimate_bigram([np.array([2])])


class TestPriors:
    def test_global_prior_formula(self):
        rng = np.random.default_rng(0)
        p = rand_post(rng, 12)
        params = GrammarParams()
        g = global_prior(p, params)
        expect = p.sum(axis=0) + 0.1
        expect /= expect.sum()
        np.testing.assert_allclose(g, expect)
        assert g.sum() == pytest.approx(1.0)

    def test_overflowing_prior_sum_gives_the_uniform_prior(self):
        p = rand_post(np.random.default_rng(0), 12)
        for eps in (1e308, 1.7e308):
            np.testing.assert_array_equal(
                global_prior(p, GrammarParams(epsilon_prior=eps)),
                np.full(NUM_CLASSES, 1 / NUM_CLASSES))

    def test_context_decay_weights(self):
        rng = np.random.default_rng(1)
        p = rand_post(rng, 30)
        params = GrammarParams(alpha=0.0)
        k = 15
        lpp = context_probs(p, k, "left", params)
        w = np.exp(-params.decay * np.arange(1, params.window + 1))
        expect = (w[:, None] * p[k - 1:k - 11:-1]).sum(axis=0) / w.sum()
        np.testing.assert_allclose(lpp, expect / expect.sum())

    def test_context_edge_fallback(self):
        rng = np.random.default_rng(2)
        p = rand_post(rng, 8)
        params = GrammarParams()
        g = global_prior(p, params)
        np.testing.assert_allclose(context_probs(p, 0, "left", params), g)
        np.testing.assert_allclose(context_probs(p, 7, "right", params), g)

    def test_context_truncated_window_renormalized(self):
        rng = np.random.default_rng(3)
        p = rand_post(rng, 5)
        params = GrammarParams(alpha=0.0)
        lpp = context_probs(p, 2, "left", params)  # only 2 left neighbors
        w = np.exp(-params.decay * np.array([1, 2]))
        expect = (w[0] * p[1] + w[1] * p[0]) / w.sum()
        np.testing.assert_allclose(lpp, expect / expect.sum())


class TestUpdate:
    def test_uniform_table_preserves_argmax(self):
        rng = np.random.default_rng(4)
        table = BigramTable(np.full((6, 6), 1 / 6))
        params = GrammarParams()
        for _ in range(100):
            p = rand_post(rng, int(rng.integers(2, 15)))
            out = grammar_update(p, table, params)
            np.testing.assert_array_equal(np.argmax(out, axis=1),
                                          np.argmax(p, axis=1))

    def test_zero_transition_propagates(self):
        # a certain PLED context with a table forbidding PLED -> SPSW drives
        # the SPSW posterior to zero (alpha=0 keeps the context pure)
        table = TABLE1_BIGRAM
        params = GrammarParams(alpha=0.0)
        p = np.zeros((3, 6))
        p[:, int(EventLabel.PLED)] = 1.0
        p[1] = np.full(6, 1 / 6)
        out = grammar_update(p, table, params)
        assert out[1, int(EventLabel.SPSW)] < 1e-12

    def test_rows_stay_normalized(self):
        rng = np.random.default_rng(5)
        out = grammar_update(rand_post(rng, 20), TABLE1_BIGRAM,
                             GrammarParams())
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert (out >= 0).all()

    def test_single_epoch_unchanged(self):
        p = np.array([[0.1, 0.2, 0.3, 0.1, 0.1, 0.2]])
        out = grammar_update(p, TABLE1_BIGRAM, GrammarParams())
        np.testing.assert_array_equal(out, p)
        labels, post = decode_pass3(p, TABLE1_BIGRAM)
        np.testing.assert_array_equal(post, p)
        assert labels[0] == 2

    def test_later_iterations_weaker(self):
        # gamma/iteration: the same input moves less at iteration 5
        rng = np.random.default_rng(6)
        p = rand_post(rng, 10)
        table = TABLE1_BIGRAM
        params = GrammarParams()
        d1 = np.abs(grammar_update(p, table, params, iteration=1) - p).sum()
        d5 = np.abs(grammar_update(p, table, params, iteration=5) - p).sum()
        assert d5 < d1


class TestWholeSequence:
    @pytest.mark.parametrize("params", [
        GrammarParams(), GrammarParams(window=60), GrammarParams(decay=0.0),
        GrammarParams(alpha=0.0), GrammarParams(window=3, decay=1.5, gamma=2.0)],
        ids=["default", "window_above_length", "decay_0", "alpha_0", "short"])
    def test_matches_loop_reference(self, params):
        rng = np.random.default_rng(9)
        table = TABLE1_BIGRAM
        for n in range(1, 51):
            p = rand_post(rng, n)
            p[rng.random(p.shape) < 0.1] = 0.0          # zero entries
            p /= p.sum(axis=1, keepdims=True)
            for iteration in (1, 3):
                got = grammar_update(p, table, params, iteration)
                want = grammar_update_reference(p, table, params, iteration)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
                np.testing.assert_array_equal(np.argmax(got, axis=1),
                                              np.argmax(want, axis=1))

    def test_zero_row_total_keeps_input(self):
        # alpha = 0 and a table that forbids every move out of a certain
        # PLED context zero the middle epoch's SPSW-only posterior
        p = np.zeros((3, 6))
        p[:, int(EventLabel.PLED)] = 1.0
        p[1] = 0.0
        p[1, int(EventLabel.SPSW)] = 1.0
        params = GrammarParams(alpha=0.0)
        got = grammar_update(p, TABLE1_BIGRAM, params)
        np.testing.assert_array_equal(got[1], p[1])
        np.testing.assert_array_equal(
            got, grammar_update_reference(p, TABLE1_BIGRAM, params))


class TestDecode:
    def test_smooths_isolated_flip(self):
        # a lone weak BCKG epoch inside a confident PLED run gets absorbed
        p = np.zeros((9, 6))
        p[:, int(EventLabel.PLED)] = 0.9
        p[:, int(EventLabel.BCKG)] = 0.1
        p[4] = 0.0
        p[4, int(EventLabel.BCKG)] = 0.55
        p[4, int(EventLabel.PLED)] = 0.45
        labels, post = decode_pass3(p, TABLE1_BIGRAM)
        assert (labels == int(EventLabel.PLED)).all()
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_confident_sequence_stable(self):
        p = np.zeros((12, 6))
        p[:6, int(EventLabel.GPED)] = 0.98
        p[:6, int(EventLabel.BCKG)] = 0.02
        p[6:, int(EventLabel.BCKG)] = 0.98
        p[6:, int(EventLabel.GPED)] = 0.02
        labels, _ = decode_pass3(p, TABLE1_BIGRAM)
        assert (labels[:6] == int(EventLabel.GPED)).all()
        assert (labels[6:] == int(EventLabel.BCKG)).all()

    def test_iteration_budget_respected(self):
        rng = np.random.default_rng(7)
        p = rand_post(rng, 25)
        labels, post = decode_pass3(p, TABLE1_BIGRAM,
                                    GrammarParams(iterations=1))
        expect = grammar_update(p, TABLE1_BIGRAM, GrammarParams(), 1)
        np.testing.assert_allclose(post, expect)
        np.testing.assert_array_equal(labels, np.argmax(expect, axis=1))

    @pytest.mark.parametrize("value", [1e308, 1.7e308])
    @pytest.mark.parametrize("key", ["epsilon_prior", "decay", "alpha", "gamma"])
    def test_huge_weights_decode_without_warnings(self, key, value):
        # every finite weight is accepted, so none may overflow into a numpy
        # warning, which the CLI would print on stderr
        p = rand_post(np.random.default_rng(11), 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, post = decode_pass3(p, TABLE1_BIGRAM, GrammarParams(**{key: value}))
        assert np.isfinite(post).all()
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)
