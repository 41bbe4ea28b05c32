"""Batch estimators, the moving-average statistics, and the step rules."""

import math

import numpy as np
import pytest

from gcobench import (GlobalObjectiveConfig, MiniBatch, NumericError,
                      OptimizerState, StepReport, dcl_surrogate, encode,
                      finite_diff_grad, flatten_params, g_exact,
                      make_simclr_state, make_sogclr_state, oracle_F,
                      sample_minibatch, simclr_batch_loss, simclr_estimator,
                      simclr_step, sogclr_estimator, sogclr_step,
                      sogclr_update_u)
from gcobench import optimizers
from gcobench.optimizers import ADAM_EPS

from conftest import identical_instance, make_instance, orthogonal_instance


def brute_batch_gbars(params, cfg, batch, ds, fam):
    """Per-slot averaged in-batch masses for both anchor views, by loops."""
    gbar_a, gbar_b = [], []
    for t in range(batch.B):
        i = int(batch.indices[t])
        for store, k in ((gbar_a, int(batch.aug_a[t])),
                         (gbar_b, int(batch.aug_b[t]))):
            anchor = encode(params, ds.points[i] + fam.deltas[k])
            total, count = 0.0, 0
            for s in range(batch.B):
                j = int(batch.indices[s])
                if j == i:
                    continue
                for kk in (int(batch.aug_a[s]), int(batch.aug_b[s])):
                    z = encode(params, ds.points[j] + fam.deltas[kk])
                    total += math.exp(float(anchor @ z) / cfg.tau)
                    count += 1
            store.append(total / count)
    return np.array(gbar_a), np.array(gbar_b)


def richardson_fd(f, params, h=1e-4):
    """Extrapolated central differences, accurate enough for 1e-8 checks."""
    coarse = finite_diff_grad(f, params, h=h)
    fine = finite_diff_grad(f, params, h=h / 2)
    return (4.0 * fine - coarse) / 3.0


def test_state_constructors_and_validation():
    s = make_simclr_state(6, eta=0.1)
    assert s.v.shape == (6,) and s.beta == 1.0
    with pytest.raises(ValueError):
        make_simclr_state(6, eta=-0.1)
    with pytest.raises(ValueError):
        make_simclr_state(6, eta=0.1, beta=0.0)

    g = make_sogclr_state(4, 6, eta=0.1)
    assert g.u.shape == (4,) and g.v.shape == (6,)
    assert g.adam_m is None and g.adam_v is None
    a = make_sogclr_state(4, 6, eta=0.1, step_rule="adam_style")
    assert a.adam_m.shape == (6,) and a.adam_v.shape == (6,)
    with pytest.raises(ValueError):
        make_sogclr_state(4, 6, eta=0.1, gamma=0.0)
    with pytest.raises(ValueError):
        make_sogclr_state(4, 6, eta=0.1, step_rule="sgd")
    with pytest.raises(ValueError):
        make_sogclr_state(4, 6, eta=0.1, u_lag="stale")
    with pytest.raises(ValueError):
        OptimizerState(u=np.array([-1.0, 0.0]), eta=0.1)
    with pytest.raises(ValueError):
        OptimizerState(u=np.zeros((3, 4)), eta=0.1)


def test_simclr_estimator_matches_its_loss_gradient():
    ds, fam, params, cfg = make_instance(n=6, K=2, seed=1, tau=0.3)
    batch = sample_minibatch(ds, fam, 4, np.random.default_rng(2))
    est = simclr_estimator(params, cfg, batch, ds, fam)
    fd = finite_diff_grad(lambda p: simclr_batch_loss(p, cfg, batch, ds, fam),
                          params)
    assert np.linalg.norm(est - fd) / np.linalg.norm(fd) < 1e-7


def test_simclr_batch_loss_orthogonal_frozen_value():
    ds, fam, params, cfg = orthogonal_instance(tau=0.5)
    batch = MiniBatch(indices=[0, 1], aug_a=[0, 0], aug_b=[0, 0])
    # Positive similarity 1 per slot, every mass e^0 = 1, so the loss is -1.
    assert math.isclose(simclr_batch_loss(params, cfg, batch, ds, fam), -1.0,
                        rel_tol=1e-12)


def test_identical_instance_estimator_vanishes():
    ds, fam, params, cfg = identical_instance(n=4, K=2)
    batch = MiniBatch(indices=[0, 1, 2], aug_a=[0, 1, 0], aug_b=[1, 0, 1])
    est = simclr_estimator(params, cfg, batch, ds, fam)
    np.testing.assert_allclose(est, 0.0, atol=1e-12)


def test_batch_without_negatives_raises():
    ds, fam, params, cfg = make_instance(n=4, K=2, seed=2)
    batch = MiniBatch(indices=[1, 1], aug_a=[0, 1], aug_b=[1, 0])
    with pytest.raises(ValueError):
        simclr_estimator(params, cfg, batch, ds, fam)


def constant_report(value):
    def fake(state, params, cfg, batch, ds, fam):
        d = flatten_params(params).shape[0]
        return StepReport(estimator=np.full(d, value),
                          u_batch_values=np.ones(batch.B))
    return fake


def test_simclr_step_arithmetic(monkeypatch):
    ds, fam, params, cfg = make_instance(n=4, K=2, seed=3)
    batch = sample_minibatch(ds, fam, 3, np.random.default_rng(4))
    d = flatten_params(params).shape[0]
    monkeypatch.setattr(optimizers, "simclr_estimator",
                        lambda *a: np.ones(d))

    state = make_simclr_state(d, eta=0.1, beta=1.0)
    new = simclr_step(state, params, cfg, batch, ds, fam)
    np.testing.assert_allclose(flatten_params(new),
                               flatten_params(params) - 0.1, rtol=1e-14)

    state = make_simclr_state(d, eta=0.1, beta=0.5)
    p1 = simclr_step(state, params, cfg, batch, ds, fam)
    np.testing.assert_allclose(state.v, 0.5 * np.ones(d), rtol=1e-15)
    simclr_step(state, p1, cfg, batch, ds, fam)
    np.testing.assert_allclose(state.v, 0.75 * np.ones(d), rtol=1e-15)


def test_simclr_step_zero_eta_keeps_params(monkeypatch):
    ds, fam, params, cfg = make_instance(n=4, K=2, seed=3)
    batch = sample_minibatch(ds, fam, 3, np.random.default_rng(4))
    state = make_simclr_state(flatten_params(params).shape[0], eta=0.0)
    new = simclr_step(state, params, cfg, batch, ds, fam)
    np.testing.assert_array_equal(flatten_params(new), flatten_params(params))


def test_non_finite_estimator_raises(monkeypatch):
    ds, fam, params, cfg = make_instance(n=4, K=2, seed=3)
    batch = sample_minibatch(ds, fam, 3, np.random.default_rng(4))
    d = flatten_params(params).shape[0]
    monkeypatch.setattr(optimizers, "simclr_estimator",
                        lambda *a: np.full(d, np.nan))
    state = make_simclr_state(d, eta=0.1)
    with pytest.raises(NumericError):
        simclr_step(state, params, cfg, batch, ds, fam)
    monkeypatch.setattr(optimizers, "sogclr_estimator", constant_report(np.nan))
    gstate = make_sogclr_state(4, d, eta=0.1)
    with pytest.raises(NumericError):
        sogclr_step(gstate, params, cfg, batch, ds, fam)


def test_simclr_step_overflowing_params_raise_numeric_error(monkeypatch):
    # The estimator is finite but eta * v overflows the parameter vector;
    # the shared step rule reports it before an encoder is built from it.
    ds, fam, params, cfg = make_instance(n=4, K=2, seed=3)
    batch = sample_minibatch(ds, fam, 3, np.random.default_rng(4))
    d = flatten_params(params).shape[0]
    monkeypatch.setattr(optimizers, "simclr_estimator",
                        lambda *a: np.full(d, 1e300))
    state = make_simclr_state(d, eta=1e100)
    with np.errstate(over="ignore"), \
            pytest.raises(NumericError, match="parameter vector"):
        simclr_step(state, params, cfg, batch, ds, fam)


def test_sogclr_update_u_matches_brute_force():
    ds, fam, params, cfg = make_instance(n=6, K=2, seed=5, tau=0.3)
    batch = MiniBatch(indices=[0, 3, 5], aug_a=[1, 0, 1], aug_b=[0, 0, 1])
    state = make_sogclr_state(6, 10, eta=0.1, gamma=0.4)
    state.u[:] = np.arange(6) * 0.1 + 0.2
    before = state.u.copy()
    gbar_a, gbar_b = brute_batch_gbars(params, cfg, batch, ds, fam)
    expected = (1 - 0.4) * before[batch.indices] + 0.4 * 0.5 * (gbar_a + gbar_b)
    got = sogclr_update_u(state, params, cfg, batch, ds, fam)
    np.testing.assert_allclose(got, expected, rtol=1e-12)
    np.testing.assert_allclose(state.u[batch.indices], expected, rtol=1e-12)
    np.testing.assert_array_equal(state.u[[1, 2, 4]], before[[1, 2, 4]])


def test_sogclr_update_u_duplicate_indices_last_wins():
    ds, fam, params, cfg = make_instance(n=5, K=2, seed=6)
    batch = MiniBatch(indices=[1, 2, 2], aug_a=[0, 1, 0], aug_b=[1, 0, 0])
    state = make_sogclr_state(5, 8, eta=0.1, gamma=0.5)
    got = sogclr_update_u(state, params, cfg, batch, ds, fam)
    assert state.u[2] == got[2]
    assert state.u[1] == got[0]


def test_u_converges_geometrically_at_full_batch():
    # With a single view and frozen params the update contracts the error
    # toward the exact mass by a factor (1 - gamma) per step.
    ds, fam, params, cfg = make_instance(n=5, K=1, seed=7, tau=0.4)
    gamma = 0.3
    state = make_sogclr_state(5, 8, eta=0.0, gamma=gamma)
    target = np.array([g_exact(params, cfg, i, 0, ds, fam)
                       for i in range(5)])
    batch = MiniBatch(indices=np.arange(5), aug_a=np.zeros(5, dtype=int),
                      aug_b=np.zeros(5, dtype=int))
    u0 = state.u.copy()
    for t in range(1, 6):
        sogclr_update_u(state, params, cfg, batch, ds, fam)
        expected = target + (1 - gamma) ** t * (u0 - target)
        np.testing.assert_allclose(state.u, expected, rtol=1e-12)


def test_fresh_gamma_one_equals_simclr_estimator():
    ds, fam, params, cfg = make_instance(n=6, K=2, seed=8, tau=0.25)
    batch = sample_minibatch(ds, fam, 4, np.random.default_rng(9))
    state = make_sogclr_state(6, flatten_params(params).shape[0], eta=0.1,
                              gamma=1.0)
    report = sogclr_estimator(state, params, cfg, batch, ds, fam)
    plain = simclr_estimator(params, cfg, batch, ds, fam)
    np.testing.assert_array_equal(report.estimator, plain)


def test_sogclr_estimator_does_not_mutate_state():
    ds, fam, params, cfg = make_instance(n=6, K=2, seed=8)
    batch = sample_minibatch(ds, fam, 4, np.random.default_rng(9))
    state = make_sogclr_state(6, flatten_params(params).shape[0], eta=0.1)
    state.u[:] = 0.5
    before = state.u.copy()
    sogclr_estimator(state, params, cfg, batch, ds, fam)
    np.testing.assert_array_equal(state.u, before)


@pytest.mark.parametrize("u_lag", ("fresh", "lagged"))
def test_dcl_surrogate_gradient_equals_estimator(u_lag):
    ds, fam, params, cfg = make_instance(n=6, K=2, seed=10, tau=0.3)
    batch = sample_minibatch(ds, fam, 4, np.random.default_rng(11))
    state = make_sogclr_state(6, flatten_params(params).shape[0], eta=0.1,
                              gamma=0.6, u_lag=u_lag)
    state.u[:] = 0.8  # warm statistics so both modes exercise real values
    report = sogclr_estimator(state, params, cfg, batch, ds, fam)
    value, eval_fn = dcl_surrogate(state, params, cfg, batch, ds, fam)
    assert math.isfinite(value)
    assert eval_fn(params) == value
    fd = richardson_fd(eval_fn, params)
    err = np.linalg.norm(report.estimator - fd) / np.linalg.norm(fd)
    assert err < 1e-8


def test_lagged_cold_start_seeds_with_batch_estimate():
    ds, fam, params, cfg = make_instance(n=6, K=2, seed=12, tau=0.3)
    batch = MiniBatch(indices=[0, 2, 4], aug_a=[0, 1, 1], aug_b=[1, 0, 1])
    state = make_sogclr_state(6, 8, eta=0.1, gamma=0.4, u_lag="lagged")
    gbar_a, gbar_b = brute_batch_gbars(params, cfg, batch, ds, fam)
    est = 0.5 * (gbar_a + gbar_b)
    # All entries cold: the seed and the blend target coincide, so the
    # committed statistic equals the batch estimate itself.
    got = sogclr_update_u(state, params, cfg, batch, ds, fam)
    np.testing.assert_allclose(got, est, rtol=1e-12)


def test_sogclr_step_commits_u_and_momentum(monkeypatch):
    ds, fam, params, cfg = make_instance(n=5, K=2, seed=13)
    batch = MiniBatch(indices=[0, 1, 3], aug_a=[0, 0, 1], aug_b=[1, 1, 0])
    d = flatten_params(params).shape[0]
    monkeypatch.setattr(optimizers, "sogclr_estimator", constant_report(2.0))
    state = make_sogclr_state(5, d, eta=0.1, beta=0.5)
    new = sogclr_step(state, params, cfg, batch, ds, fam)
    np.testing.assert_array_equal(state.u[[0, 1, 3]], np.ones(3))
    np.testing.assert_allclose(state.v, np.ones(d), rtol=1e-15)
    np.testing.assert_allclose(flatten_params(new),
                               flatten_params(params) - 0.1, rtol=1e-12)


def test_sogclr_step_adam_first_step_size(monkeypatch):
    ds, fam, params, cfg = make_instance(n=5, K=2, seed=13)
    batch = MiniBatch(indices=[0, 1, 3], aug_a=[0, 0, 1], aug_b=[1, 1, 0])
    d = flatten_params(params).shape[0]
    monkeypatch.setattr(optimizers, "sogclr_estimator", constant_report(3.0))
    state = make_sogclr_state(5, d, eta=0.05, step_rule="adam_style")
    new = sogclr_step(state, params, cfg, batch, ds, fam)
    # Bias correction makes the first update eta * g / (|g| + eps).
    expected = flatten_params(params) - 0.05 * 3.0 / (3.0 + ADAM_EPS)
    np.testing.assert_allclose(flatten_params(new), expected, rtol=1e-12)
    assert state.adam_t == 1


def test_degenerates_to_simclr_bitwise():
    ds, fam, params, cfg = make_instance(n=6, K=2, seed=14, tau=0.3)
    d = flatten_params(params).shape[0]
    sog = make_sogclr_state(6, d, eta=0.05, gamma=1.0, beta=1.0)
    sim = make_simclr_state(d, eta=0.05, beta=1.0)
    p_sog, p_sim = params, params
    rng_a = np.random.default_rng(15)
    rng_b = np.random.default_rng(15)
    for _ in range(10):
        batch_a = sample_minibatch(ds, fam, 4, rng_a)
        batch_b = sample_minibatch(ds, fam, 4, rng_b)
        p_sog = sogclr_step(sog, p_sog, cfg, batch_a, ds, fam)
        p_sim = simclr_step(sim, p_sim, cfg, batch_b, ds, fam)
        np.testing.assert_array_equal(flatten_params(p_sog),
                                      flatten_params(p_sim))
