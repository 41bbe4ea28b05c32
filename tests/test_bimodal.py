"""Two-way paired objective: oracle, estimator, statistics, and steps."""

import copy
import math

import numpy as np
import pytest

from gcobench import (NumericError, OptimizerState, PairedDataset, encode,
                      encode_batch, backward_batch, finite_diff_flat,
                      make_bimodal_state, twoway_estimator, twoway_oracle_F,
                      twoway_oracle_value, twoway_step, twoway_update_u)
from gcobench import bimodal
from gcobench.bimodal import (TWOWAY_ORACLE_GUARD, flat_to_pair, pair_to_flat)
from gcobench.embed_core import IndexSampler
from gcobench.optimizers import ADAM_EPS

import reference
from conftest import (make_paired_instance, orthogonal_paired_instance,
                      traced_peak)


def brute_twoway_value(params_i, params_t, cfg, pds):
    n = pds.n
    EI = [encode(params_i, pds.image[i]) for i in range(n)]
    ET = [encode(params_t, pds.text[j]) for j in range(n)]
    S = np.array([[float(EI[i] @ ET[j]) for j in range(n)] for i in range(n)])
    g_img = [np.mean([math.exp(S[i, j] / cfg.tau) for j in range(n)])
             for i in range(n)]
    g_txt = [np.mean([math.exp(S[i, j] / cfg.tau) for i in range(n)])
             for j in range(n)]
    value = (-2.0 * np.mean(np.diag(S))
             + cfg.tau * np.mean([math.log(cfg.eps0 + g) for g in g_img])
             + cfg.tau * np.mean([math.log(cfg.eps0 + g) for g in g_txt]))
    return value, np.array(g_img), np.array(g_txt)


def test_paired_dataset_validation():
    pds = PairedDataset(image=np.eye(3), text=np.ones((3, 2)))
    assert pds.n == 3
    with pytest.raises(ValueError):
        PairedDataset(image=np.eye(3), text=np.ones((2, 2)))
    with pytest.raises(ValueError):
        PairedDataset(image=np.ones((1, 2)), text=np.ones((1, 2)))
    with pytest.raises(ValueError):
        PairedDataset(image=np.array([[np.nan, 0.0], [0.0, 1.0]]),
                      text=np.eye(2))
    with pytest.raises(ValueError, match="^text must be a 2-d array"):
        PairedDataset(image=np.eye(3), text=np.ones(3))


def test_bimodal_state_validation():
    with pytest.raises(ValueError):
        OptimizerState(u=np.zeros((3, 2)), eta=0.1)
    with pytest.raises(ValueError):
        OptimizerState(u=np.array([[-1.0], [0.0]]), eta=0.1)
    state = OptimizerState(eta=0.1, step_rule="adam_style",
                           u=np.zeros((2, 3)), v=np.zeros(8))
    assert state.adam_m.shape == (8,)
    assert state.u.shape == (2, 3)
    # The two sides are row views of u, so writes through them land in u.
    state.u_image[1] = 0.5
    state.u_text[2] = 0.25
    np.testing.assert_array_equal(state.u, [[0, 0.5, 0], [0, 0, 0.25]])


def test_pair_flat_roundtrip():
    _, pi, pt, _ = make_paired_instance(seed=1)
    vec = pair_to_flat(pi, pt)
    back_i, back_t = flat_to_pair(pi, pt, vec)
    np.testing.assert_array_equal(back_i.W1, pi.W1)
    np.testing.assert_array_equal(back_t.W1, pt.W1)
    with pytest.raises(ValueError):
        flat_to_pair(pi, pt, vec[:-1])


def test_orthogonal_pairs_closed_form():
    pds, pi, pt, cfg = orthogonal_paired_instance(tau=0.1)
    mass = (math.exp(10.0) + 1.0) / 2.0
    expected = -2.0 + 0.2 * math.log(mass)
    res = twoway_oracle_F(pi, pt, cfg, pds)
    assert math.isclose(res.value, expected, rel_tol=1e-12)
    np.testing.assert_allclose(res.g_image, [mass, mass], rtol=1e-12)
    np.testing.assert_allclose(res.g_text, [mass, mass], rtol=1e-12)


def test_twoway_oracle_matches_brute_force():
    pds, pi, pt, cfg = make_paired_instance(n=5, seed=2, tau=0.3, eps0=0.05)
    res = twoway_oracle_F(pi, pt, cfg, pds)
    value, g_img, g_txt = brute_twoway_value(pi, pt, cfg, pds)
    assert math.isclose(res.value, value, rel_tol=1e-12)
    np.testing.assert_allclose(res.g_image, g_img, rtol=1e-12)
    np.testing.assert_allclose(res.g_text, g_txt, rtol=1e-12)


def test_twoway_oracle_grad_matches_finite_differences():
    pds, pi, pt, cfg = make_paired_instance(n=4, seed=3, tau=0.3)
    res = twoway_oracle_F(pi, pt, cfg, pds)

    def value(vec):
        a, b = flat_to_pair(pi, pt, vec)
        return twoway_oracle_value(a, b, cfg, pds)

    fd = finite_diff_flat(value, pair_to_flat(pi, pt))
    assert np.linalg.norm(res.grad - fd) / np.linalg.norm(fd) < 1e-7


def test_twoway_oracle_guard():
    n = TWOWAY_ORACLE_GUARD + 1
    pds = PairedDataset(image=np.zeros((n, 2)), text=np.zeros((n, 2)))
    _, pi, pt, cfg = make_paired_instance(d_image=2, d_text=2, seed=1)
    with pytest.raises(ValueError):
        twoway_oracle_value(pi, pt, cfg, pds)


def test_twoway_update_u_matches_brute_force():
    pds, pi, pt, cfg = make_paired_instance(n=6, seed=4, tau=0.3)
    idx = np.array([1, 4, 5])
    state = make_bimodal_state(6, 10, eta=0.1, gamma=0.4)
    state.u_image[:] = 0.3
    state.u_text[:] = 0.7
    EI = [encode(pi, pds.image[i]) for i in idx]
    ET = [encode(pt, pds.text[j]) for j in idx]
    S = np.array([[float(a @ b) for b in ET] for a in EI])
    g_img = np.exp(S / cfg.tau).mean(axis=1)
    g_txt = np.exp(S / cfg.tau).mean(axis=0)
    u_i, u_t = twoway_update_u(state, pi, pt, cfg, idx, pds)
    np.testing.assert_allclose(u_i, 0.6 * 0.3 + 0.4 * g_img, rtol=1e-12)
    np.testing.assert_allclose(u_t, 0.6 * 0.7 + 0.4 * g_txt, rtol=1e-12)
    np.testing.assert_allclose(state.u_image[idx], u_i, rtol=1e-15)
    assert state.u_image[0] == 0.3 and state.u_text[0] == 0.7


def test_twoway_update_u_honours_u_lag():
    # Lagged, as in twoway_step: a cold entry takes the batch mass itself,
    # and a warm one blends it in.
    pds, pi, pt, cfg = make_paired_instance(n=6, seed=4, tau=0.3)
    idx = np.array([1, 4, 5])
    state = make_bimodal_state(6, 10, eta=0.1, gamma=0.4, u_lag="lagged")
    state.u[:, 5] = 0.3, 0.7
    EI = [encode(pi, pds.image[i]) for i in idx]
    ET = [encode(pt, pds.text[j]) for j in idx]
    S = np.array([[float(a @ b) for b in ET] for a in EI])
    g_img = np.exp(S / cfg.tau).mean(axis=1)
    g_txt = np.exp(S / cfg.tau).mean(axis=0)
    u_i, u_t = twoway_update_u(state, pi, pt, cfg, idx, pds)
    np.testing.assert_allclose(u_i[:2], g_img[:2], rtol=1e-12)
    np.testing.assert_allclose(u_t[:2], g_txt[:2], rtol=1e-12)
    np.testing.assert_allclose([u_i[2], u_t[2]],
                               [0.6 * 0.3 + 0.4 * g_img[2],
                                0.6 * 0.7 + 0.4 * g_txt[2]], rtol=1e-12)
    np.testing.assert_array_equal(state.u[:, idx], [u_i, u_t])


def test_twoway_kernels_hold_one_square_array():
    """At n = 512 one n x n float64 array is 2 MiB. The estimator and the
    oracle hold the score grid, which the masses and then the contrast
    matrix are written over, and no more than half a second array besides."""
    n = 512
    pds, params_i, params_t, cfg = make_paired_instance(n=n, seed=1)
    res = twoway_oracle_F(params_i, params_t, cfg, pds)
    state = make_bimodal_state(n, res.grad.shape[0], eta=0.1)
    state.u[:] = res.g_image, res.g_text
    square = n * n * 8
    for run in (lambda: twoway_estimator(state, params_i, params_t, cfg,
                                         np.arange(n), pds),
                lambda: twoway_oracle_F(params_i, params_t, cfg, pds)):
        assert traced_peak(run) < 1.5 * square


@pytest.mark.parametrize("sampling", ["epoch_shuffle", "with_replacement"])
def test_twoway_grid_row_blocks_keep_the_bits(sampling, monkeypatch):
    """The grid of reciprocal sums applied in single-row blocks, ragged 5-row
    blocks and one whole block gives the reference step's bits: two steps
    at B = 8, 32, 126, 128 and 334, at eps0 > 0 with a warm u."""
    n = 334
    pds, pi, pt, cfg = make_paired_instance(n=n, m=4, tau=0.3, eps0=0.2,
                                            seed=9)
    rng = np.random.default_rng(10)
    d = pair_to_flat(pi, pt).shape[0]
    u = rng.uniform(0.5, 3.0, (2, n))
    for B in (8, 32, 126, 128, 334):
        sampler = IndexSampler(n, B, rng, sampling)
        batches = [sampler.next_indices() for _ in range(2)]
        ref = reference.make_bimodal_state(n, d, eta=0.1, gamma=0.6)
        ref.u_image[:], ref.u_text[:] = u
        p_ref = (pi, pt)
        for idx in batches:
            p_ref = reference.twoway_step(ref, *p_ref, cfg, idx, pds)
        for rows in (1, 5, B):
            new = make_bimodal_state(n, d, eta=0.1, gamma=0.6)
            new.u[:] = u
            p_new = (pi, pt)
            with monkeypatch.context() as patch:
                patch.setattr(bimodal, "_BLOCK", rows * B)
                for idx in batches:
                    p_new = twoway_step(new, *p_new, cfg, idx, pds)
            assert np.array_equal(pair_to_flat(*p_new),
                                  pair_to_flat(*p_ref)), (B, rows)
            assert np.array_equal(new.u[0], ref.u_image), (B, rows)
            assert np.array_equal(new.u[1], ref.u_text), (B, rows)


@pytest.mark.parametrize("indices", [[-1, 5], [0.0, 1.0]])
@pytest.mark.parametrize("call", [twoway_update_u, twoway_estimator,
                                  twoway_step])
def test_twoway_functions_refuse_wrapped_or_truncated_indices(call, indices):
    # numpy would wrap -1 to pair 5, which would then fill both slots, its
    # positive counted among its in-batch negatives; it would truncate the
    # floats. Either way the refusal comes before u is touched.
    pds, pi, pt, cfg = make_paired_instance(n=6, seed=4, tau=0.3)
    state = make_bimodal_state(6, pair_to_flat(pi, pt).shape[0], eta=0.1)
    state.u[:] = 0.5
    with pytest.raises(ValueError, match="^indices must"):
        call(state, pi, pt, cfg, indices, pds)
    np.testing.assert_array_equal(state.u, 0.5)


def test_estimator_requires_positive_statistics():
    pds, pi, pt, cfg = make_paired_instance(n=4, seed=5)
    state = make_bimodal_state(4, 10, eta=0.1)
    with pytest.raises(NumericError):
        twoway_estimator(state, pi, pt, cfg, np.array([0, 1]), pds)


def test_full_batch_planted_u_reproduces_oracle():
    pds, pi, pt, cfg = make_paired_instance(n=5, seed=6, tau=0.2)
    res = twoway_oracle_F(pi, pt, cfg, pds)
    state = make_bimodal_state(5, res.grad.shape[0], eta=0.1)
    state.u_image[:] = res.g_image
    state.u_text[:] = res.g_text
    est = twoway_estimator(state, pi, pt, cfg, np.arange(5), pds)
    err = np.linalg.norm(est - res.grad) / np.linalg.norm(res.grad)
    assert err < 1e-14


def test_minibatch_estimator_matches_exact_expectation():
    # Frozen params and planted statistics: averaging the estimator over all
    # equally likely B-subsets weights each score cell by its inclusion
    # probability, B/n on the diagonal and B(B-1)/(n(n-1)) off it. The Monte
    # Carlo mean over many sampled batches must match that closed form.
    pds, pi, pt, cfg = make_paired_instance(n=6, seed=7, tau=0.3)
    n, B = 6, 3
    res = twoway_oracle_F(pi, pt, cfg, pds)
    state = make_bimodal_state(n, res.grad.shape[0], eta=0.1)
    state.u_image[:] = res.g_image
    state.u_text[:] = res.g_text

    EI, cache_i = encode_batch(pi, pds.image)
    ET, cache_t = encode_batch(pt, pds.text)
    expS = np.exp((EI @ ET.T) / cfg.tau)
    weights = np.full((n, n), B * (B - 1) / (n * (n - 1)))
    np.fill_diagonal(weights, B / n)
    C = weights * expS / B ** 2 * (
        1.0 / (cfg.eps0 + state.u_image)[:, None]
        + 1.0 / (cfg.eps0 + state.u_text)[None, :])
    C[np.arange(n), np.arange(n)] -= (B / n) * (2.0 / B)
    exact = np.concatenate([backward_batch(pi, cache_i, C @ ET),
                            backward_batch(pt, cache_t, C.T @ EI)])

    rng = np.random.default_rng(8)
    draws = 20_000
    total = np.zeros_like(exact)
    total_sq = np.zeros_like(exact)
    for _ in range(draws):
        idx = rng.permutation(n)[:B]
        est = twoway_estimator(state, pi, pt, cfg, idx, pds)
        total += est
        total_sq += est ** 2
    mean = total / draws
    se = np.sqrt(np.maximum(total_sq / draws - mean ** 2, 0.0) / draws)
    np.testing.assert_array_less(np.abs(mean - exact), 5.0 * se + 1e-12)


def test_twoway_step_fresh_matches_manual_sequence():
    pds, pi, pt, cfg = make_paired_instance(n=6, seed=9, tau=0.3)
    d = pair_to_flat(pi, pt).shape[0]
    idx = np.array([0, 2, 5])
    state = make_bimodal_state(6, d, eta=0.05, gamma=0.4, beta=0.7)
    manual = copy.deepcopy(state)

    new_i, new_t = twoway_step(state, pi, pt, cfg, idx, pds)

    twoway_update_u(manual, pi, pt, cfg, idx, pds)
    est = twoway_estimator(manual, pi, pt, cfg, idx, pds)
    manual.v = (1 - 0.7) * manual.v + 0.7 * est
    w = pair_to_flat(pi, pt) - 0.05 * manual.v
    exp_i, exp_t = flat_to_pair(pi, pt, w)
    np.testing.assert_array_equal(new_i.W1, exp_i.W1)
    np.testing.assert_array_equal(new_t.W1, exp_t.W1)
    np.testing.assert_array_equal(state.u_image, manual.u_image)
    np.testing.assert_array_equal(state.v, manual.v)


def test_twoway_step_lagged_cold_start_commits_batch_masses():
    pds, pi, pt, cfg = make_paired_instance(n=6, seed=10, tau=0.3)
    d = pair_to_flat(pi, pt).shape[0]
    idx = np.array([1, 3])
    state = make_bimodal_state(6, d, eta=0.05, gamma=0.4, u_lag="lagged")
    EI = [encode(pi, pds.image[i]) for i in idx]
    ET = [encode(pt, pds.text[j]) for j in idx]
    S = np.array([[float(a @ b) for b in ET] for a in EI])
    g_img = np.exp(S / cfg.tau).mean(axis=1)
    g_txt = np.exp(S / cfg.tau).mean(axis=0)
    twoway_step(state, pi, pt, cfg, idx, pds)
    # Cold entries are seeded with the batch masses and then blended with the
    # same masses, so the committed statistic is the batch mass itself.
    np.testing.assert_allclose(state.u_image[idx], g_img, rtol=1e-12)
    np.testing.assert_allclose(state.u_text[idx], g_txt, rtol=1e-12)
    assert state.u_image[0] == 0.0


def test_bimodal_state_adam_first_step_size():
    _, pi, pt, _ = make_paired_instance(n=4, seed=11)
    w = pair_to_flat(pi, pt)
    state = OptimizerState(eta=0.05, step_rule="adam_style",
                           u=np.zeros((2, 4)), v=np.zeros(w.shape[0]))
    new = state.apply(w, np.full(w.shape[0], 2.0))
    # Bias correction makes the first update eta * g / (|g| + eps).
    np.testing.assert_allclose(new, w - 0.05 * 2.0 / (2.0 + ADAM_EPS),
                               rtol=1e-12)
    assert state.adam_t == 1
