"""Two-way paired objective: oracle, estimator, statistics, and steps."""

import copy
import math

import numpy as np
import pytest

from gcobench import (NumericError, OptimizerState, PairedDataset, encode,
                      encode_batch, backward_batch, finite_diff_flat,
                      load_paired, make_bimodal_state, save_paired,
                      twoway_estimator, twoway_oracle_F, twoway_oracle_value,
                      twoway_step, twoway_update_u)
from gcobench.bimodal import (TWOWAY_ORACLE_GUARD, flat_to_pair, pair_to_flat)
from gcobench.optimizers import ADAM_EPS

from conftest import make_paired_instance, orthogonal_paired_instance


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
    pds = PairedDataset(image=np.eye(3), text=np.ones((3, 2)),
                        labels=(0, 1, 0))
    assert pds.n == 3
    with pytest.raises(ValueError):
        PairedDataset(image=np.eye(3), text=np.ones((2, 2)))
    with pytest.raises(ValueError):
        PairedDataset(image=np.ones((1, 2)), text=np.ones((1, 2)))
    with pytest.raises(ValueError):
        PairedDataset(image=np.array([[np.nan, 0.0], [0.0, 1.0]]),
                      text=np.eye(2))
    with pytest.raises(ValueError):
        PairedDataset(image=np.eye(2), text=np.eye(2), labels=(0,))


def test_bimodal_state_validation():
    with pytest.raises(ValueError):
        OptimizerState(u=np.zeros((3, 2)), eta=0.1)
    with pytest.raises(ValueError):
        OptimizerState(u=np.array([[-1.0], [0.0]]), eta=0.1)
    state = make_bimodal_state(3, 8, eta=0.1, step_rule="adam_style")
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
    state = make_bimodal_state(4, w.shape[0], eta=0.05,
                               step_rule="adam_style")
    new = state.apply(w, np.full(w.shape[0], 2.0))
    # Bias correction makes the first update eta * g / (|g| + eps).
    np.testing.assert_allclose(new, w - 0.05 * 2.0 / (2.0 + ADAM_EPS),
                               rtol=1e-12)
    assert state.adam_t == 1


def test_paired_roundtrip(tmp_path):
    pds, _, _, _ = make_paired_instance(n=4, seed=12)
    path = str(tmp_path / "pairs.csv")
    save_paired(pds, path)
    back = load_paired(path)
    np.testing.assert_array_equal(back.image, pds.image)
    np.testing.assert_array_equal(back.text, pds.text)
    assert back.labels == pds.labels

    bare = PairedDataset(image=pds.image, text=pds.text)
    save_paired(bare, path)
    back = load_paired(path)
    assert back.labels is None


def test_load_paired_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("dataset 2 2 2 0\n1,2,3,4\n5,6,7,8\n")
    with pytest.raises(ValueError):
        load_paired(str(bad))
    short = tmp_path / "short.csv"
    short.write_text("paired 2 2 2 0\n1,2,3\n1,2,3,4\n")
    with pytest.raises(ValueError):
        load_paired(str(short))
