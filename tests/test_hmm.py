import itertools

import numpy as np
import pytest
from scipy.special import logsumexp

from seqdet.features import FeatureGrid
from seqdet.hmm import (GmmHmmModel, HmmConfig, HmmError, decode_pass1,
                        forward_backward, init_model, log_emissions,
                        loglikelihood, score_batch, train, viterbi, _BATCH,
                        _bank, _emissions, _kmeans, _left_right_trans,
                        _logsumexp, _reestimate_one)
from seqdet.labels import EventLabel


def random_model(rng, n=3, comps=2, dim=2, label=EventLabel.BCKG):
    """Random left-to-right model with strictly positive allowed transitions."""
    trans = np.zeros((n, n))
    for i in range(n - 1):
        p = rng.uniform(0.2, 0.8)
        trans[i, i], trans[i, i + 1] = p, 1.0 - p
    trans[n - 1, n - 1] = 1.0
    w = rng.uniform(0.2, 1.0, size=(n, comps))
    w /= w.sum(axis=1, keepdims=True)
    means = rng.normal(0, 2, size=(n, comps, dim))
    variances = rng.uniform(0.5, 2.0, size=(n, comps, dim))
    return GmmHmmModel(label, trans, w, means, variances,
                       np.full(dim, 1e-8))


def component_loglik_reference(model, obs):
    """Log N(o; mu, diag sigma^2) + log w for every (..., state, component),
    as one broadcast difference tensor (..., N, L, D): the reference for the
    GEMM emission kernel."""
    diff = obs[..., None, None, :] - model.means
    quad = np.sum(diff * diff / model.variances, axis=-1)
    logdet = np.sum(np.log(model.variances), axis=-1)
    logpdf = -0.5 * (quad + logdet + model.dim * np.log(2.0 * np.pi))
    with np.errstate(divide="ignore"):
        return np.log(model.weights) + logpdf


def gauss_mix_pdf(model, s, x):
    """Direct mixture density at one state, no log tricks."""
    total = 0.0
    for l in range(model.num_components):
        mu = model.means[s, l]
        var = model.variances[s, l]
        norm = np.prod(1.0 / np.sqrt(2 * np.pi * var))
        total += model.weights[s, l] * norm * np.exp(
            -0.5 * np.sum((x - mu) ** 2 / var))
    return total


def brute_force(model, obs):
    """Enumerate every state path; returns (total likelihood, best path,
    best path likelihood)."""
    t_len = len(obs)
    n = model.num_states
    emis = np.array([[gauss_mix_pdf(model, s, obs[t]) for s in range(n)]
                     for t in range(t_len)])
    total = 0.0
    best_p, best = None, -1.0
    for path in itertools.product(range(n), repeat=t_len):
        if path[0] != 0:
            continue
        p = emis[0, path[0]]
        for t in range(1, t_len):
            p *= model.trans[path[t - 1], path[t]] * emis[t, path[t]]
        total += p
        if p > best:
            best, best_p = p, path
    return total, np.array(best_p), best


class TestForwardBackward:
    def test_vs_brute_force(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(2, 4))
            t_len = int(rng.integers(2, 7))
            model = random_model(rng, n=n, comps=int(rng.integers(1, 3)))
            obs = rng.normal(0, 2, size=(t_len, 2))
            total, _, _ = brute_force(model, obs)
            _, _, ll = forward_backward(model, obs)
            assert abs(ll - np.log(total)) < 1e-8

    def test_alpha_beta_consistency(self):
        # sum_s alpha_t(s) beta_t(s) equals P(O) at every t
        rng = np.random.default_rng(11)
        model = random_model(rng)
        obs = rng.normal(size=(8, 2))
        la, lb, ll = forward_backward(model, obs)
        from scipy.special import logsumexp
        for t in range(8):
            assert abs(logsumexp(la[:, t] + lb[:, t]) - ll) < 1e-10

    def test_start_state_is_zero(self):
        rng = np.random.default_rng(12)
        model = random_model(rng)
        obs = rng.normal(size=(4, 2))
        la, _, _ = forward_backward(model, obs)
        assert la[1, 0] == -np.inf and la[2, 0] == -np.inf

    def test_batch_matches_single(self):
        rng = np.random.default_rng(13)
        model = random_model(rng)
        batch = rng.normal(size=(20, 10, 2))
        lls = loglikelihood(model, batch)
        for i in range(20):
            _, _, ll = forward_backward(model, batch[i])
            assert abs(lls[i] - ll) < 1e-10


class TestViterbi:
    def test_vs_brute_force(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            model = random_model(rng, n=int(rng.integers(2, 4)))
            obs = rng.normal(0, 2, size=(int(rng.integers(2, 7)), 2))
            _, best_path, best_p = brute_force(model, obs)
            path, score = viterbi(model, obs)
            assert abs(score - np.log(best_p)) < 1e-8
            np.testing.assert_array_equal(path, best_path)

    def test_path_is_monotone(self):
        rng = np.random.default_rng(15)
        model = random_model(rng)
        path, _ = viterbi(model, rng.normal(size=(10, 2)))
        assert path[0] == 0
        assert (np.diff(path) >= 0).all()
        assert (np.diff(path) <= 1).all()


class TestEmissionKernel:
    def test_gemm_matches_broadcast_reference(self):
        rng = np.random.default_rng(30)
        models = [random_model(rng, n=3, comps=4, dim=5) for _ in range(3)]
        weights = models[1].weights.copy()
        weights[2, 1] = 0.0  # a zero-weight component: log w = -inf
        weights[2] /= weights[2].sum()
        models[1] = GmmHmmModel(EventLabel.BCKG, models[1].trans, weights,
                                models[1].means, models[1].variances,
                                models[1].var_floor)
        obs = rng.normal(0, 3, size=(9, 7, 5))                 # (B, T, D)
        comp, logb = _emissions(*_bank(models), obs)           # (M, N, L, T, B)
        for m, model in enumerate(models):
            ref = component_loglik_reference(model, obs).transpose(2, 3, 1, 0)
            np.testing.assert_array_equal(np.isinf(comp[m]), np.isinf(ref))
            np.testing.assert_allclose(comp[m], ref, rtol=0, atol=1e-9)
            np.testing.assert_allclose(logb[m], logsumexp(ref, axis=1),
                                       rtol=0, atol=1e-9)
        assert np.isneginf(comp[1, 2, 1]).all()
        np.testing.assert_allclose(
            log_emissions(models[1], obs),
            logsumexp(component_loglik_reference(models[1], obs), axis=-1),
            rtol=0, atol=1e-9)

    def test_score_batch_is_per_model_stack_plus_priors(self):
        rng = np.random.default_rng(31)
        models = {lab: random_model(rng, comps=2, dim=3, label=lab)
                  for lab in EventLabel}
        obs = rng.normal(0, 2, size=(_BATCH + 3, 4, 3))       # two chunks
        priors = rng.uniform(0.1, 1.0, size=6)
        priors /= priors.sum()
        scores = np.stack([loglikelihood(models[lab], obs) for lab in EventLabel],
                          axis=1) + np.log(priors)
        expect = np.exp(scores - logsumexp(scores, axis=1, keepdims=True))
        np.testing.assert_allclose(score_batch(models, obs, priors), expect,
                                   rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("field, shape", [
        ("trans", (2, 2)), ("weights", (3, 3)), ("means", (3, 2)),
        ("variances", (3, 2, 5)), ("var_floor", (3,))])
    def test_model_shapes_checked(self, field, shape):
        arrays = {"trans": _left_right_trans(3), "weights": np.full((3, 2), 0.5),
                  "means": np.zeros((3, 2, 4)), "variances": np.ones((3, 2, 4)),
                  "var_floor": np.ones(4)}
        arrays[field] = np.ones(shape)
        with pytest.raises(HmmError, match=field):
            GmmHmmModel(EventLabel.BCKG, **arrays)


class TestLogsumexp:
    def test_matches_scipy_with_neg_inf_rows(self):
        rng = np.random.default_rng(33)
        a = rng.normal(0, 300, size=(6, 8))
        a[0] = -np.inf                                  # all -inf
        a[1, ::2] = -np.inf                             # mixed
        a[2, :7] = -np.inf                              # one finite value
        a[3] = [-1e300, 0, 1, 2, 3, -np.inf, 700, 710]  # large spread
        for axis in (0, 1, -1):
            got = _logsumexp(a.copy(), axis=axis)
            want = logsumexp(a, axis=axis)
            np.testing.assert_array_equal(np.isneginf(got), np.isneginf(want))
            np.testing.assert_allclose(got, want, rtol=1e-14)
        assert np.isneginf(_logsumexp(a)[0])
        assert _logsumexp(a)[2] == a[2, 7]

    def test_does_not_modify_input(self):
        a = np.array([[0.0, -np.inf, 2.0]])
        before = a.copy()
        _logsumexp(a)
        np.testing.assert_array_equal(a, before)


class TestKmeans:
    def test_vs_exhaustive_two_means(self):
        # enumerate all 2-partitions of 12 points; SSE of the k-means result
        # must match the global optimum (restarted Lloyd on tiny data)
        rng = np.random.default_rng(16)
        x = np.concatenate([rng.normal(-3, 0.4, size=(6, 2)),
                            rng.normal(3, 0.4, size=(6, 2))])

        def sse_for(assign):
            total = 0.0
            for j in (0, 1):
                m = x[assign == j]
                if len(m) == 0:
                    return np.inf
                total += np.sum((m - m.mean(axis=0)) ** 2)
            return total

        best = np.inf
        for mask in range(1, 2 ** 12 - 1):
            assign = np.array([(mask >> i) & 1 for i in range(12)])
            best = min(best, sse_for(assign))

        centroids = _kmeans(x, 2, np.random.default_rng(0))
        d2 = np.sum((x[:, None] - centroids[None]) ** 2, axis=2)
        got = sse_for(np.argmin(d2, axis=1))
        assert abs(got - best) < 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(40, 3))
        a = _kmeans(x, 4, np.random.default_rng(5))
        b = _kmeans(x, 4, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestInit:
    def test_structure(self):
        rng = np.random.default_rng(18)
        epochs = rng.normal(size=(30, 10, 4))
        model = init_model(EventLabel.PLED, epochs, 3, 4, seed=1)
        expect = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(model.trans, expect)
        np.testing.assert_allclose(model.weights.sum(axis=1), 1.0)
        assert (model.variances >= model.var_floor - 1e-15).all()

    def test_variance_floor_value(self):
        rng = np.random.default_rng(19)
        epochs = rng.normal(size=(20, 10, 3)) * 5
        model = init_model(EventLabel.GPED, epochs, 3, 2, seed=0)
        gvar = epochs.reshape(-1, 3).var(axis=0)
        np.testing.assert_allclose(model.var_floor,
                                   np.maximum(1e-3 * gvar, 1e-8))

    def test_too_few_epochs(self):
        with pytest.raises(HmmError):
            init_model(EventLabel.BCKG, np.zeros((1, 3, 2)), 3, 8)


class TestReestimate:
    def test_monotone_loglik(self):
        rng = np.random.default_rng(20)
        epochs = np.concatenate([
            rng.normal(-2, 1, size=(40, 10, 3)),
            rng.normal(2, 1, size=(40, 10, 3))])
        model = init_model(EventLabel.ARTF, epochs, 3, 2, seed=2)
        lls = []
        for _ in range(8):
            model, ll = __import__("seqdet.hmm", fromlist=["x"])._reestimate_one(
                model, epochs)
            lls.append(ll)
        diffs = np.diff(lls)
        assert (diffs > -1e-8).all()

    def test_structural_zeros_preserved(self):
        rng = np.random.default_rng(21)
        epochs = rng.normal(size=(30, 10, 2))
        model = init_model(EventLabel.EYEM, epochs, 3, 2, seed=3)
        from seqdet.hmm import _reestimate_one
        for _ in range(3):
            model, _ = _reestimate_one(model, epochs)
        mask = _left_right_trans(3) == 0
        assert (model.trans[mask] == 0).all()
        np.testing.assert_allclose(model.trans.sum(axis=1), 1.0)

    def test_accumulators_match_per_sequence_reference(self):
        # occupancies, means and variances from gamma of forward_backward and
        # the broadcast component log-likelihoods, one sequence at a time
        rng = np.random.default_rng(22)
        model = random_model(rng, comps=3, dim=4)
        epochs = rng.normal(0, 2, size=(7, 6, 4))
        occ = np.zeros((3, 3))
        mean_acc = np.zeros((3, 3, 4))
        sq_acc = np.zeros((3, 3, 4))
        for obs in epochs:
            la, lb, ll = forward_backward(model, obs)
            comp = component_loglik_reference(model, obs)      # (T, N, L)
            r = np.exp((la + lb - ll).T[..., None] + comp
                       - logsumexp(comp, axis=-1)[..., None])
            occ += r.sum(axis=0)
            mean_acc += np.einsum("tnl,td->nld", r, obs)
            sq_acc += np.einsum("tnl,td->nld", r, obs * obs)
        updated, _ = _reestimate_one(model, epochs)
        means = mean_acc / occ[..., None]
        np.testing.assert_allclose(updated.weights,
                                   occ / occ.sum(axis=1, keepdims=True),
                                   rtol=1e-10)
        np.testing.assert_allclose(updated.means, means, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(
            updated.variances,
            np.maximum(sq_acc / occ[..., None] - means ** 2, model.var_floor),
            rtol=1e-9)


class TestScoring:
    def make_separable_models(self, seed=23):
        """Six single-component models with well-separated means."""
        rng = np.random.default_rng(seed)
        models = {}
        for lab in EventLabel:
            m = random_model(rng, comps=1, label=lab)
            shifted = m.means + 10.0 * int(lab)
            models[lab] = GmmHmmModel(lab, m.trans, m.weights, shifted,
                                      m.variances, m.var_floor)
        return models

    def test_posterior_normalized(self):
        models = self.make_separable_models()
        rng = np.random.default_rng(24)
        post = score_batch(models, rng.normal(size=(7, 10, 2)))
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_matched_class_wins(self):
        models = self.make_separable_models()
        rng = np.random.default_rng(25)
        for lab in EventLabel:
            obs = rng.normal(10.0 * int(lab), 1.0, size=(10, 2))
            post = score_batch(models, obs[None])[0]
            assert int(np.argmax(post)) == int(lab)

    def test_prior_shifts_posterior(self):
        models = self.make_separable_models()
        rng = np.random.default_rng(26)
        obs = rng.normal(0, 30, size=(10, 2))
        flat = score_batch(models, obs[None])[0]
        prior = np.zeros(6)
        prior[int(EventLabel.PLED)] = 1.0
        forced = score_batch(models, obs[None], priors=prior)[0]
        assert forced[int(EventLabel.PLED)] > 0.999
        # a flat prior changes nothing
        even = score_batch(models, obs[None], priors=np.full(6, 1 / 6))[0]
        np.testing.assert_allclose(even, flat, atol=1e-12)

    def test_decode_pass1_shape(self):
        models = self.make_separable_models()
        rng = np.random.default_rng(27)
        grid = FeatureGrid(rng.normal(size=(4, 30, 2)))
        post = decode_pass1(grid, models)
        assert post.posteriors.shape == (3, 4, 6)
        assert post.argmax_labels().shape == (3, 4)
        np.testing.assert_allclose(post.posteriors.sum(axis=2), 1.0, atol=1e-12)


class TestTrain:
    def test_recovers_separable_classes(self):
        rng = np.random.default_rng(28)
        corpus = {lab: rng.normal(4.0 * int(lab), 1.0, size=(25, 10, 3))
                  for lab in EventLabel}
        models = train(corpus, HmmConfig(num_components=2, max_iterations=5,
                                         seed=9))
        correct = 0
        for lab in EventLabel:
            obs = rng.normal(4.0 * int(lab), 1.0, size=(10, 3))
            if int(np.argmax(score_batch(models, obs[None])[0])) == int(lab):
                correct += 1
        assert correct == 6

    def test_missing_class_rejected(self):
        rng = np.random.default_rng(29)
        corpus = {EventLabel.BCKG: rng.normal(size=(20, 10, 2))}
        with pytest.raises(HmmError):
            train(corpus)
