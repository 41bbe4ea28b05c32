"""Batch estimators, the moving-average statistics, and the step rules."""

import math

import numpy as np
import pytest

from gcobench import (GlobalObjectiveConfig, MiniBatch, NumericError,
                      OptimizerState, StepReport, batch_views, dcl_surrogate,
                      encode, encode_batch, finite_diff_grad, flatten_params,
                      g_exact, make_augmentation_family, make_simclr_state,
                      make_sogclr_state, oracle_F,
                      sample_minibatch, simclr_batch_loss, simclr_estimator,
                      simclr_step, sogclr_estimator, sogclr_step,
                      sogclr_update_u, unflatten_params)
from gcobench import optimizers
from gcobench.optimizers import ADAM_EPS

import reference
from conftest import (identical_instance, make_instance, orthogonal_instance,
                      traced_peak)


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
    with pytest.raises(ValueError, match="^eta must be finite"):
        OptimizerState(eta=math.inf)

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


def test_overflowing_masked_entries_stay_out_of_the_batch():
    """At tau = 1.4e-3 every view's similarity with itself over tau is
    714.3, past exp's overflow at 709.78, while every member's stays below
    it: masked masses are inf and member masses finite."""
    ds, fam, params, cfg = make_instance(n=4, K=2, tau=1.4e-3, seed=0)
    batch = MiniBatch(indices=[0, 1, 2, 3], aug_a=[0, 1, 0, 1],
                      aug_b=[1, 0, 0, 1])
    with np.errstate(over="ignore"):
        E, _ = encode_batch(params, batch_views(ds, fam, batch))
        same = np.tile(np.eye(4, dtype=bool), (2, 2))
        masses = np.exp(E @ E.T / cfg.tau)
        assert np.isinf(np.diag(masses)).all()
        assert np.isfinite(masses[~same]).all()
        stats = optimizers._batch_stats(params, cfg, batch, ds, fam)
        gbar_a, gbar_b = brute_batch_gbars(params, cfg, batch, ds, fam)
        np.testing.assert_allclose(stats.gbar, (gbar_a, gbar_b), rtol=1e-12)
        assert np.isfinite(simclr_batch_loss(params, cfg, batch, ds, fam))
        assert np.isfinite(simclr_estimator(params, cfg, batch, ds, fam)).all()
        state = make_sogclr_state(4, flatten_params(params).shape[0], eta=0.1)
        report = sogclr_estimator(state, params, cfg, batch, ds, fam)
        assert np.isfinite(report.estimator).all()


def test_batch_kernels_hold_one_square_array():
    """At 2B = 512 one (2B, 2B) float64 array is 2 MiB. Each estimator holds
    S's buffer, which the masses and then C + C^T are written over, and no
    more than half a second array besides."""
    n = 256
    ds, fam, params, cfg = make_instance(n=n, K=2, d_in=4, m=4, seed=3)
    batch = sample_minibatch(ds, fam, n, np.random.default_rng(0))
    # The full-batch single-view estimator that gradcheck checks.
    fam1 = make_augmentation_family(4, 1, 0.15, 4)
    full = MiniBatch(indices=np.arange(n), aug_a=np.zeros(n, dtype=int),
                     aug_b=np.zeros(n, dtype=int))
    state = make_sogclr_state(n, flatten_params(params).shape[0], eta=0.1,
                              gamma=1.0)
    square = (2 * n) ** 2 * 8
    for run in (lambda: simclr_estimator(params, cfg, batch, ds, fam),
                lambda: sogclr_estimator(state, params, cfg, full, ds, fam1)):
        assert traced_peak(run) < 1.5 * square


@pytest.mark.parametrize("sampling", ["epoch_shuffle", "with_replacement"])
def test_batch_kernel_matches_the_transposed_read_bitwise(sampling, monkeypatch):
    """The padded S buffer and C + C^T formed from P / s[None, :] give the
    bits of the kernel that held S unpadded and read C.T: at 2B = 128, 192
    and 256, whose row strides alias; at 120 and 126 below them; and at 334,
    where OpenBLAS threads the syrk call. Both estimators and dcl_surrogate,
    at eps0 > 0 with a warm u."""
    ds, fam, params, cfg = make_instance(n=167, K=2, d_in=4, m=4, tau=0.2,
                                         eps0=0.3, seed=5)
    rng = np.random.default_rng(6)
    d = flatten_params(params).shape[0]
    state = make_sogclr_state(167, d, eta=0.1, gamma=0.6)
    state.u[:] = rng.uniform(0.5, 3.0, 167)
    other = unflatten_params(params, flatten_params(params)
                             + 0.01 * rng.standard_normal(d))

    def kernel_outputs(batch):
        value, eval_fn = dcl_surrogate(state, params, cfg, batch, ds, fam)
        return (simclr_estimator(params, cfg, batch, ds, fam),
                sogclr_estimator(state, params, cfg, batch, ds, fam).estimator,
                value, eval_fn(other))

    for B in (60, 63, 64, 96, 128, 167):
        batch = sample_minibatch(ds, fam, B, rng, sampling)
        new = kernel_outputs(batch)
        with monkeypatch.context() as patch:
            patch.setattr(optimizers, "_batch_stats",
                          reference.stacked_batch_stats)
            patch.setattr(optimizers, "_assemble_estimator",
                          reference.stacked_assemble_estimator)
            old = kernel_outputs(batch)
        for a, b in zip(new, old):
            assert np.array_equal(a, b), B


@pytest.mark.parametrize("sampling", ["epoch_shuffle", "with_replacement"])
def test_batch_kernel_row_blocks_keep_the_bits(sampling, monkeypatch):
    """S / tau and C + C^T formed in single-row blocks, ragged 5-row blocks
    and one whole block give the bits of the stacked kernel that divided S
    in place and read C.T: at 2B = 8, 32, 126, 128 and 334, for both
    estimators and dcl_surrogate, at eps0 > 0 with a warm u."""
    ds, fam, params, cfg = make_instance(n=167, K=2, d_in=4, m=4, tau=0.2,
                                         eps0=0.3, seed=7)
    rng = np.random.default_rng(8)
    d = flatten_params(params).shape[0]
    state = make_sogclr_state(167, d, eta=0.1, gamma=0.6)
    state.u[:] = rng.uniform(0.5, 3.0, 167)
    other = unflatten_params(params, flatten_params(params)
                             + 0.01 * rng.standard_normal(d))

    def kernel_outputs(batch):
        value, eval_fn = dcl_surrogate(state, params, cfg, batch, ds, fam)
        return (simclr_estimator(params, cfg, batch, ds, fam),
                sogclr_estimator(state, params, cfg, batch, ds, fam).estimator,
                value, eval_fn(other))

    for B in (4, 16, 63, 64, 167):
        batch = sample_minibatch(ds, fam, B, rng, sampling)
        with monkeypatch.context() as patch:
            patch.setattr(optimizers, "_batch_stats",
                          reference.stacked_batch_stats)
            patch.setattr(optimizers, "_assemble_estimator",
                          reference.stacked_assemble_estimator)
            old = kernel_outputs(batch)
        for rows in (1, 5, 2 * B):
            with monkeypatch.context() as patch:
                patch.setattr(optimizers, "_BLOCK", rows * 2 * B)
                new = kernel_outputs(batch)
            for a, b in zip(new, old):
                assert np.array_equal(a, b), (B, rows)


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


@pytest.mark.parametrize("u_lag", ("fresh", "lagged"))
@pytest.mark.parametrize("rows", (1, 2), ids=("u_n", "u_2n"))
def test_refresh_matches_hand_formulas(rows, u_lag):
    """The one u rule, slot by slot: fresh divides by the blend, lagged by
    the stored u (a cold entry by the target) and blends afterwards. A
    shared u averages the rows; a repeated index stores its last slot."""
    gamma = 0.3
    u0 = np.array([0.0, 0.5, 0.0, 2.0, 1.5])            # 0 and 2 are cold
    u = u0 if rows == 1 else np.stack((u0, 3.0 * u0))
    state = OptimizerState(eta=0.1, gamma=gamma, u_lag=u_lag, u=u)
    idx = np.array([0, 1, 3, 3, 2])
    g = np.array([[1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 1.5, 2.5, 3.5, 6.5]])
    denom, u_new = state.refresh(idx, g)
    np.testing.assert_array_equal(state.u, u)           # refresh stores nothing
    assert denom.shape == (2, 5) and u_new.shape == u[..., idx].shape
    for t, i in enumerate(idx):
        prev = [u0[i]] * 2 if rows == 1 else [u0[i], 3.0 * u0[i]]
        target = ([(g[0, t] + g[1, t]) / 2] * 2 if rows == 1
                  else [g[0, t], g[1, t]])
        if u_lag == "fresh":
            want = [(1 - gamma) * prev[r] + gamma * g[r, t] for r in (0, 1)]
            stored = want
        else:
            want = [prev[r] if prev[r] > 0 else target[r] for r in (0, 1)]
            stored = [(1 - gamma) * want[r] + gamma * target[r]
                      for r in (0, 1)]
        np.testing.assert_allclose(denom[:, t], want, rtol=1e-15)
        got = u_new[t] if rows == 1 else u_new[:, t]
        want_u = (stored[0] + stored[1]) / 2 if rows == 1 else stored
        np.testing.assert_allclose(got, want_u, rtol=1e-15)
    state.u[..., idx] = u_new
    np.testing.assert_array_equal(state.u[..., 3], u_new[..., 3])
    assert np.all(u_new[..., 2] != u_new[..., 3])
    with pytest.raises(NumericError, match="nonpositive"):
        OptimizerState(eta=0.1, u_lag=u_lag, u=np.zeros_like(u)).refresh(
            idx, np.zeros((2, 5)))


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
