import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from seqdet import hmm, parallel
from seqdet.errors import DataError
from seqdet.features import FeatureGrid
from seqdet.hmm import (GmmHmmModel, HmmConfig, decode_pass1,
                        forward_backward, init_model,
                        train, _bank, _chunk, _emissions,
                        _forward_batch, _forward_last, _kmeans,
                        _left_right_trans, _loglik, _EXP_FLOOR, _logsumexp,
                        _nearest, _reestimate_one)
from seqdet.labels import EventLabel
from seqdet.pipeline import _decode_pass1
from seqdet.signal_io import Recording


def random_model(rng, n=3, comps=2, dim=2):
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
    return GmmHmmModel(trans, w, means, variances, np.full(dim, 1e-8))


def loglikelihood(model, obs_batch):
    """Log P(O|M) of one model for a batch (B, T, D) of equal-length
    sequences, through the batched forward pass that decode_pass1 uses."""
    return _loglik([model], FeatureGrid(obs_batch, obs_batch.shape[1]))[:, 0]


def score_cells(models, obs_batch):
    """decode_pass1's (B, 6) posteriors of B sequences (B, T, D), scored as
    the B channels of a one-epoch grid."""
    return decode_pass1(FeatureGrid(obs_batch, obs_batch.shape[1]), models)[0]


def posteriors_reference(models, cells):
    """Class posteriors of each (T, D) sequence in cells (..., T, D) from
    per-model forward_backward log-likelihoods and a flat prior."""
    flat = cells.reshape(-1, *cells.shape[-2:])
    ll = np.array([[forward_backward(models[lab], obs)[2] for lab in EventLabel]
                   for obs in flat])
    post = np.exp(ll - logsumexp(ll, axis=1, keepdims=True))
    return post.reshape(*cells.shape[:-2], len(EventLabel))


def cells_reference(grid):
    """Every cell's observation block, (epochs, channels, frames_per_epoch,
    D), copied out of the feature array as the old FeatureGrid.cells() did;
    a trailing partial epoch repeats the final frame."""
    fpe = grid.frames_per_epoch
    n_ch, n_fr, dim = grid.vectors.shape
    out = np.empty((grid.num_epochs, n_ch, fpe, dim))
    full = n_fr // fpe
    out[:full] = grid.vectors[:, :full * fpe].reshape(
        n_ch, full, fpe, dim).transpose(1, 0, 2, 3)
    rest = n_fr - full * fpe
    if rest:
        out[full, :, :rest] = grid.vectors[:, full * fpe:]
        out[full, :, rest:] = grid.vectors[:, -1:]
    return out


def logsumexp_reference(a, axis=-1):
    """_logsumexp without the exp floor: every shifted term goes to np.exp."""
    m = np.max(a, axis=axis, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    e = a - m
    np.exp(e, out=e)
    with np.errstate(divide="ignore"):
        out = np.log(e.sum(axis=axis, keepdims=True))
    return (out + m).squeeze(axis)


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
    """P(O|M) as a sum over every state path."""
    t_len = len(obs)
    n = model.num_states
    emis = np.array([[gauss_mix_pdf(model, s, obs[t]) for s in range(n)]
                     for t in range(t_len)])
    total = 0.0
    for path in itertools.product(range(n), repeat=t_len):
        if path[0] != 0:
            continue
        p = emis[0, path[0]]
        for t in range(1, t_len):
            p *= model.trans[path[t - 1], path[t]] * emis[t, path[t]]
        total += p
    return total


class TestForwardBackward:
    def test_vs_brute_force(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(2, 4))
            t_len = int(rng.integers(2, 7))
            model = random_model(rng, n=n, comps=int(rng.integers(1, 3)))
            obs = rng.normal(0, 2, size=(t_len, 2))
            total = brute_force(model, obs)
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

    def test_last_frame_equals_the_table(self):
        # scoring keeps one frame of alpha, Baum-Welch the whole table: the
        # same bits, also where _logsumexp takes its dead-row path (states
        # at -inf, an all -inf cell, a NaN cell)
        rng = np.random.default_rng(14)
        log_a = np.stack([hmm._log_trans(random_model(rng, n=4)) for _ in range(5)])
        logb = rng.normal(-40.0, 30.0, size=(5, 4, 10, 37))
        logb[rng.random(logb.shape) < 0.2] = -np.inf
        logb[..., 6] = -np.inf
        logb[2, 1, 4, 9] = np.nan
        last = _forward_last(log_a, logb)
        np.testing.assert_array_equal(last, _forward_batch(log_a, logb)[..., -1, :])
        assert np.all(last[..., 6] == -np.inf)
        assert np.isnan(last[2, :, 9]).all() and not np.isnan(np.delete(last, 9, -1)).any()


class TestEmissionKernel:
    def test_gemm_matches_broadcast_reference(self):
        rng = np.random.default_rng(30)
        models = [random_model(rng, n=3, comps=4, dim=5) for _ in range(3)]
        weights = models[1].weights.copy()
        weights[2, 1] = 0.0  # a zero-weight component: log w = -inf
        weights[2] /= weights[2].sum()
        models[1] = GmmHmmModel(models[1].trans, weights, models[1].means,
                                models[1].variances, models[1].var_floor)
        obs = rng.normal(0, 3, size=(9, 7, 5))                 # (B, T, D)
        comp, logb = _emissions(*_bank(models), obs.transpose(1, 0, 2))  # (M, N, L, T, B)
        for m, model in enumerate(models):
            ref = component_loglik_reference(model, obs).transpose(2, 3, 1, 0)
            np.testing.assert_array_equal(np.isinf(comp[m]), np.isinf(ref))
            np.testing.assert_allclose(comp[m], ref, rtol=0, atol=1e-9)
            np.testing.assert_allclose(logb[m], logsumexp(ref, axis=1),
                                       rtol=0, atol=1e-9)
        assert np.isneginf(comp[1, 2, 1]).all()

    @pytest.mark.parametrize("field, shape", [
        ("trans", (2, 2)), ("weights", (3, 3)), ("means", (3, 2)),
        ("variances", (3, 2, 5)), ("var_floor", (3,))])
    def test_model_shapes_checked(self, field, shape):
        arrays = {"trans": _left_right_trans(3), "weights": np.full((3, 2), 0.5),
                  "means": np.zeros((3, 2, 4)), "variances": np.ones((3, 2, 4)),
                  "var_floor": np.ones(4)}
        arrays[field] = np.ones(shape)
        with pytest.raises(DataError, match=field):
            GmmHmmModel(**arrays)

    @pytest.mark.parametrize("key", ["num_states", "num_components"])
    def test_config_sizes_checked(self, key):
        with pytest.raises(DataError, match=f"{key} = 0"):
            HmmConfig(**{key: 0})

    def test_states_fit_in_an_epoch(self):
        # a left-to-right path spends at least one of an epoch's 10 frames
        # in each state
        assert HmmConfig(num_states=10).num_states == 10
        with pytest.raises(DataError, match="num_states = 11 must be at most 10"):
            HmmConfig(num_states=11)


class TestChunk:
    def test_default_shapes(self):
        # 3 states x 8 components, 10 frames a cell: one model trains in
        # 2048-cell chunks of its 4 MB budget, the six-model scoring bank
        # scores 128 at a time in its 2 MB
        w = np.zeros((3, 8, 2))
        assert _chunk(w[None], 10, hmm._TRAIN_BLOCK) == 2048
        assert _chunk(np.stack([w] * 6), 10, hmm._BLOCK) == 128

    def test_power_of_two_within_block(self):
        for gaussians, frames, block in itertools.product(
                (1, 5, 24, 144, 10 ** 6), (1, 7, 10), (hmm._BLOCK, hmm._TRAIN_BLOCK)):
            step = _chunk(np.zeros((gaussians, 4)), frames, block)
            assert step & (step - 1) == 0
            assert step == 1 or step * gaussians * frames <= block
            assert 2 * step * gaussians * frames > block

    def test_training_does_not_read_the_scoring_budget(self, monkeypatch):
        # Baum-Welch adds its sums one chunk at a time, so its chunks are
        # part of a trained model's bits. A 2^16-double scoring budget would
        # cut BCKG's 300 epochs into chunks of 256 and 44.
        rng = np.random.default_rng(41)
        corpus = {lab: rng.normal(int(lab), 1.0, size=(300 if lab == EventLabel.BCKG
                                                      else 30, 10, 3))
                  for lab in EventLabel}
        config = HmmConfig(max_iterations=2)
        want = train(corpus, config)
        assert _chunk(_bank([want[EventLabel.BCKG]])[0], 10, 1 << 16) == 256
        monkeypatch.setattr(hmm, "_BLOCK", 1 << 16)
        got = train(corpus, config)
        for lab in EventLabel:
            for name in ("trans", "weights", "means", "variances", "var_floor"):
                np.testing.assert_array_equal(getattr(got[lab], name),
                                              getattr(want[lab], name))


def logsumexp_masked_reference(a, axis=-1):
    """_logsumexp with its three mask fix-ups run on every call."""
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


class TestLogsumexp:
    def test_live_rows_equal_masked_reference(self):
        # no row maximum is non-finite, so no mask is built; -inf entries
        # inside a live row and terms below the exp floor stay
        rng = np.random.default_rng(35)
        for spread in (1.0, 300.0, 1e4):
            a = rng.normal(0, spread, size=(6, 3, 8, 10, 16))
            a[rng.random(a.shape) < 0.2] = -np.inf
            a[..., 0] = rng.normal(0, spread, size=a.shape[:-1])
            for axis in (0, 2, -1):
                live = a if axis == -1 else np.moveaxis(a, -1, axis)
                np.testing.assert_array_equal(
                    _logsumexp(live.copy(), axis=axis),
                    logsumexp_masked_reference(live.copy(), axis=axis))

    def test_dead_rows_among_live_rows_give_their_maxima(self):
        rng = np.random.default_rng(36)
        a = rng.normal(0, 50, size=(7, 9))
        a[1] = -np.inf                  # all -inf
        a[3, 4] = np.nan
        a[5, 2] = np.inf
        with np.errstate(invalid="ignore"):
            got = _logsumexp(a.copy())
            want = logsumexp_masked_reference(a.copy())
        assert np.isneginf(got[1]) and np.isnan(got[3]) and got[5] == np.inf
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got[[0, 2, 4, 6]],
                                      _logsumexp(a[[0, 2, 4, 6]].copy()))

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

    def test_bit_identical_to_unclamped_reference(self):
        rng = np.random.default_rng(34)
        for spread in (1.0, 300.0, 1e4, 1e6):
            a = rng.normal(0, spread, size=(40, 9, 7))
            a[rng.random(a.shape) < 0.2] = -np.inf      # structural zeros
            a[3] = -np.inf                              # all -inf slabs
            a[:, 4] = -np.inf
            a[5, 1, 2] = np.nan                         # NaN rows
            a[6, 2, 3] = np.inf                         # +inf entries
            a[7, :, 4] = np.inf
            a[8, 5] = [0.0, -700.0, -700.5, -708.0, -745.0, -746.0, -1e4]
            for axis in (0, 1, 2, -1):
                with np.errstate(invalid="ignore", over="ignore"):  # +inf rows
                    got = _logsumexp(a.copy(), axis=axis)
                    want = logsumexp_reference(a.copy(), axis=axis)
                np.testing.assert_array_equal(got, want)

    def test_does_not_modify_input(self):
        a = np.array([[0.0, -np.inf, 2.0]])
        before = a.copy()
        _logsumexp(a)
        np.testing.assert_array_equal(a, before)


# k-means and flat-start initialization as first written, with a
# (points, k, D) broadcast distance and a per-cluster loop: the references for
# _nearest, _kmeans and init_model.

def kmeans_reference(x, k, rng, iters=50):
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


def init_model_reference(label, epochs, num_states, num_components, seed):
    rng = np.random.default_rng(seed)
    b, t_len, dim = epochs.shape
    var_floor = np.maximum(1e-3 * epochs.reshape(-1, dim).var(axis=0), 1e-8)
    weights = np.zeros((num_states, num_components))
    means = np.zeros((num_states, num_components, dim))
    variances = np.zeros((num_states, num_components, dim))
    for s, frame_idx in enumerate(np.array_split(np.arange(t_len), num_states)):
        vecs = epochs[:, frame_idx, :].reshape(-1, dim)
        if len(vecs) >= num_components and num_components > 1:
            centroids = kmeans_reference(vecs, num_components, rng)
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
    return GmmHmmModel(_left_right_trans(num_states), weights, means, variances,
                       var_floor)


def distance_tolerance(x, c, d2):
    """(points, k) bound on the rounding error of each squared distance as
    _nearest ranks it plus as the broadcast reference d2 computes it.

    With u = eps / 2 and gamma_m = m u / (1 - m u): _nearest ranks
    |c|^2 - 2 x.c, which is d2 - |x|^2 exactly. Its two D-term sums carry
    errors under gamma_D |c|^2 and gamma_D sum |x_i c_i| <= gamma_D |x| |c|
    (in any summation order), the factor 2 is exact and the difference
    rounds once: under gamma_(D+1) (|c|^2 + 2 |x| |c|). The reference rounds
    each x_i - c_i, its square and a D-term sum: under gamma_(D+2) d2. Both
    together stay under (D + 2) eps (|c|^2 + 2 |x| |c| + d2)."""
    xn = np.linalg.norm(x, axis=1)[:, None]
    cn = np.linalg.norm(c, axis=1)[None]
    return (x.shape[1] + 2) * np.finfo(np.float64).eps * (cn * cn + 2 * xn * cn + d2)


class TestNearest:
    def test_matches_broadcast_argmin_outside_near_ties(self):
        # 400 random points, then points a roundoff away from the bisector
        # of each pair of eight well-separated centroids, where the pair's
        # distances tie
        rng = np.random.default_rng(31)
        c = 10.0 * np.eye(8, 26) + rng.normal(0.0, 0.1, (8, 26))
        pairs = list(itertools.combinations(range(8), 2))
        mids = np.stack([(c[i] + c[j]) / 2 for i, j in pairs] * 4)
        x = np.concatenate([rng.normal(0.0, 4.0, (400, 26)),
                            mids * (1.0 + rng.normal(0.0, 1e-15, mids.shape))])
        d2 = np.sum((x[:, None, :] - c[None]) ** 2, axis=2)
        tol = distance_tolerance(x, c, d2)
        want = np.argmin(d2, axis=1)
        rows = np.arange(len(x))
        # a near tie: another centroid whose distance the two computations
        # could rank either side of the nearest one's
        near = ((d2 - d2[rows, want][:, None] <= tol + tol[rows, want][:, None])
                .sum(axis=1) > 1)
        assert not near[:400].any()   # ruled out on random points
        assert near[400:].all()   # present on every bisector point
        got = _nearest(x, c)
        np.testing.assert_array_equal(got[~near], want[~near])
        apart = d2[rows, got] - d2[rows, want]
        assert (apart <= tol[rows, got] + tol[rows, want]).all()


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

    @pytest.mark.parametrize("seed", range(8))
    def test_empty_cluster_reseeds_as_reference(self, seed):
        # three distinct points, five copies each, and five clusters: two
        # starting centroids coincide, so a cluster is empty and is reseeded
        # by the same draws, in the same order, as the reference loop
        x = np.repeat(np.random.default_rng(40).normal(size=(3, 4)), 5, axis=0)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _kmeans(x, 5, rng)
        want = kmeans_reference(x, 5, ref_rng)
        assert got.tobytes() == want.tobytes()
        draw = rng.random()
        assert draw == ref_rng.random()
        start_only = np.random.default_rng(seed)
        start_only.choice(len(x), size=5, replace=False)
        assert draw != start_only.random()  # reseeding drew from the RNG


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
        with pytest.raises(DataError):
            init_model(EventLabel.BCKG, np.zeros((1, 3, 2)), 3, 8, seed=0)

    @pytest.mark.parametrize("case", [
        (18, (30, 10, 4), 1.0, EventLabel.PLED, 4, 1),
        (19, (20, 10, 3), 5.0, EventLabel.GPED, 2, 0)])
    def test_bit_identical_to_reference(self, case):
        # the inputs of test_structure and test_variance_floor_value
        data_seed, shape, scale, label, comps, seed = case
        epochs = np.random.default_rng(data_seed).normal(size=shape) * scale
        got = init_model(label, epochs, 3, comps, seed=seed)
        want = init_model_reference(label, epochs, 3, comps, seed)
        for name in ("trans", "weights", "means", "variances", "var_floor"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


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
            m = random_model(rng, comps=1)
            shifted = m.means + 10.0 * int(lab)
            models[lab] = GmmHmmModel(m.trans, m.weights, shifted, m.variances,
                                      m.var_floor)
        return models

    def test_posterior_normalized(self):
        models = self.make_separable_models()
        rng = np.random.default_rng(24)
        post = score_cells(models, rng.normal(size=(7, 10, 2)))
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_matched_class_wins(self):
        models = self.make_separable_models()
        rng = np.random.default_rng(25)
        for lab in EventLabel:
            obs = rng.normal(10.0 * int(lab), 1.0, size=(10, 2))
            post = score_cells(models, obs[None])[0]
            assert int(np.argmax(post)) == int(lab)

    @pytest.mark.parametrize("channels, frames", [(7, 1503), (3, 25), (2, 7)])
    def test_decode_pass1_equals_forward_backward_on_cells(self, channels, frames):
        # partial final epochs, and 1057 cells: two full 512-cell chunks and
        # a partial one
        rng = np.random.default_rng(frames)
        models = {lab: random_model(rng, comps=2, dim=3)
                  for lab in EventLabel}
        grid = FeatureGrid(rng.normal(0, 2, size=(channels, frames, 3)), 10)
        assert _chunk(_bank(list(models.values()))[0], 10, hmm._BLOCK) == 512
        np.testing.assert_allclose(
            decode_pass1(grid, models),
            posteriors_reference(models, cells_reference(grid)),
            rtol=1e-10, atol=1e-14)

    def test_decode_pass1_allocates_under_half_the_features(self):
        # a 10 min, 22-channel grid with the default model shapes: 13 200
        # cells scored in 128-cell chunks gathered from the feature array
        # through each chunk's own frame rows, with no copy of all cells,
        # each chunk's component block reduced in place and 512-cell
        # forward batches
        rng = np.random.default_rng(32)
        models = {lab: random_model(rng, n=3, comps=8, dim=26)
                  for lab in EventLabel}
        grid = FeatureGrid(rng.normal(size=(22, 5999, 26)), 10)
        tracemalloc.start()
        try:
            post = decode_pass1(grid, models)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert post.shape == (600, 22, 6)
        assert peak < grid.vectors.nbytes / 3

    def test_decode_pass1_of_a_clip_allocates_under_4_mib(self):
        # a 30 s, 22-channel grid with the default model shapes: 660 cells
        # in 128-cell chunks of the 2 MB scoring budget peak at 3.4 MiB, the
        # gather and GEMM buffers and a 512-cell forward batch included;
        # a 4 MB budget (256-cell chunks) peaks at 5.7 MiB
        rng = np.random.default_rng(42)
        models = default_shape_models(rng, 26)
        grid = FeatureGrid(rng.normal(size=(22, 299, 26)), 10)
        tracemalloc.start()
        try:
            post = decode_pass1(grid, models)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert post.shape == (30, 22, 6)
        assert peak < 4 << 20

    @pytest.mark.parametrize("frames", [299, 310])
    def test_decode_pass1_equal_in_channel_blocks(self, frames):
        # 30 and 31 epochs of 22 channels with the default model shapes:
        # blocks of 1, 3, 7 and 11 channels score chunks of 30 to 330 cells,
        # and 31 epochs leave chunks whose frames x cells (310, 930, 2 170,
        # 3 410, and 6 820 for the whole grid) are no multiple of 8
        rng = np.random.default_rng(frames)
        models = default_shape_models(rng, 26)
        vectors = rng.normal(0, 2, size=(22, frames, 26))
        whole = decode_pass1(FeatureGrid(vectors, 10), models)
        for size in (1, 3, 7, 11):
            blocks = [decode_pass1(FeatureGrid(vectors[c0:c0 + size], 10), models)
                      for c0 in range(0, 22, size)]
            np.testing.assert_array_equal(np.concatenate(blocks, axis=1), whole)

    def test_decode_pass1_shape(self):
        models = self.make_separable_models()
        rng = np.random.default_rng(27)
        grid = FeatureGrid(rng.normal(size=(4, 30, 2)), 10)
        post = decode_pass1(grid, models)
        assert post.shape == (3, 4, 6)
        np.testing.assert_allclose(post.sum(axis=2), 1.0, atol=1e-12)


def default_shape_models(rng, dim):
    """Six random models with the default 3 states x 8 components: the
    scoring bank's full-_BLOCK chunk is 128 cells."""
    return {lab: random_model(rng, n=3, comps=8, dim=dim)
            for lab in EventLabel}


# A 5-channel grid of up to 90 epochs and default-shape models for
# test_decode_pass1_equal_for_any_chunking: 5 channels give an odd number of
# cells for an odd number of epochs.
CHUNKING_MODELS = default_shape_models(np.random.default_rng(36), 4)
CHUNKING_VECTORS = np.random.default_rng(37).normal(0, 2, size=(5, 900, 4))

# A 252 s, 22-channel recording at 250 Hz and default-shape models for the
# worker tests: 2 519 frames, so the frontend groups 2 channels.
WORKER_SAMPLES = np.random.default_rng(38).normal(0, 30, size=(22, 252 * 250))
WORKER_LABELS = tuple(f"CH{i}" for i in range(22))
WORKER_MODELS = default_shape_models(np.random.default_rng(39), 26)


class TestWorkers:
    """Pass 1 gives each cell the same bits however its grid is cut into
    chunks and forward batches, and a decode's pass 1 (pipeline._decode_pass1)
    splits a recording's channel groups across its workers: here a 252 s,
    22-channel recording in 11 groups of 2. tests/test_pipeline_cli.py
    holds its outputs equal for any CPU count."""

    @settings(max_examples=40, deadline=None)
    @given(block=st.integers(16, 20),
           batch=st.sampled_from(["one chunk", "three chunks", "wider than the grid"]),
           epochs=st.integers(40, 90), cut=st.integers(0, 9))
    @example(block=16, batch="one chunk", epochs=41, cut=0)
    def test_decode_pass1_equal_for_any_chunking(self, block, batch, epochs, cut):
        # the chunk is 32 (2^16 doubles) to 512 cells (2^20); an odd number
        # of cells always leaves a partial last batch, and `cut` a partial
        # final epoch. The example scores 7 chunks of 32 cells, the last
        # one partial, each its own batch.
        grid = FeatureGrid(CHUNKING_VECTORS[:, :10 * epochs - cut], 10)
        want = decode_pass1(grid, CHUNKING_MODELS)
        chunk = _chunk(_bank(list(CHUNKING_MODELS.values()))[0], 10, 1 << block)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hmm, "_BLOCK", 1 << block)
            patch.setattr(hmm, "_FORWARD", {"one chunk": 1, "three chunks": 3 * chunk,
                                            "wider than the grid": 10 * epochs}[batch])
            np.testing.assert_array_equal(decode_pass1(grid, CHUNKING_MODELS), want)

    def test_clip_never_uses_the_helpers(self, monkeypatch):
        # a 30 s, 22-channel clip is 2 frontend groups: too few to give
        # each of 2 CPUs two
        def no_helpers():
            raise AssertionError("a 30 s clip submitted to the helper pool")

        monkeypatch.setattr(parallel, "_helpers", no_helpers)
        monkeypatch.setattr(parallel, "cpus", lambda: 2)
        rec = Recording.of(WORKER_SAMPLES[:, :7500], WORKER_LABELS, 250.0)
        assert _decode_pass1(rec, WORKER_MODELS).shape == (30, 22, 6)

    @pytest.mark.skipif(not parallel._openblas(), reason="numpy's OpenBLAS not found")
    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        error = FloatingPointError("a helper's group")
        real_forward = hmm._forward_last

        def forward(*args):
            if threading.current_thread() is not threading.main_thread():
                raise error
            return real_forward(*args)

        monkeypatch.setattr(hmm, "_forward_last", forward)
        monkeypatch.setattr(parallel, "cpus", lambda: 2)
        rec = Recording.of(WORKER_SAMPLES, WORKER_LABELS, 250.0)
        get_threads = parallel._openblas()[0]
        before = get_threads()
        with pytest.raises(FloatingPointError) as raised:
            _decode_pass1(rec, WORKER_MODELS)
        assert raised.value is error
        assert get_threads() == before

    def test_concurrent_callers(self, monkeypatch):
        # more callers and workers than cores, switching threads often: each
        # caller gets the serial result, and the BLAS count ends where it began
        rec = Recording.of(WORKER_SAMPLES, WORKER_LABELS, 250.0)
        monkeypatch.setattr(parallel, "cpus", lambda: 1)
        want = _decode_pass1(rec, WORKER_MODELS)
        assert not np.isnan(want).any()
        monkeypatch.setattr(parallel, "cpus", lambda: 4)
        blas = parallel._openblas()
        before = blas[0]() if blas else None
        results = [None] * 6

        def caller(i):
            results[i] = _decode_pass1(rec, WORKER_MODELS)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i,), daemon=True)
                       for i in range(len(results))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for post in results:
            np.testing.assert_array_equal(post, want)
        if blas:
            assert blas[0]() == before


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
            if int(np.argmax(score_cells(models, obs[None])[0])) == int(lab):
                correct += 1
        assert correct == 6

    def test_baum_welch_peak_memory(self):
        # BCKG's share of a 60 s training corpus: 820 ten-frame epochs of 26
        # features, one chunk, with the default 3 x 8 model. At its peak an
        # EM iteration holds the chunk's frames (26 doubles a frame), the
        # [1 | x^2 | x] moment operand (53), the component block, whose
        # occupancies are computed in place (24), and four (N, T, B) tables
        # (12): 7.5 MB, 7.7 MB measured. An operand built by hstack from x^2
        # and a ones column, beside a separate occupancy array, held 3.3 MB
        # more (11.0 MB measured)
        rng = np.random.default_rng(30)
        corpus = {lab: rng.normal(int(lab), 1.0, size=(
            820 if lab == EventLabel.BCKG else 40, 10, 26)) for lab in EventLabel}
        tracemalloc.start()
        try:
            train(corpus, HmmConfig(max_iterations=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = 8 * 820 * 10 * (26 + 53 + 24 + 12)
        assert peak < held + 1e6

    def test_missing_class_rejected(self):
        rng = np.random.default_rng(29)
        corpus = {EventLabel.BCKG: rng.normal(size=(20, 10, 2))}
        with pytest.raises(DataError):
            train(corpus)
