"""The averaged negative masses and the exact enumeration oracle, validated
against independent brute-force loops."""

import math

import numpy as np
import pytest

from gcobench import (AugmentationFamily, Dataset, EncoderParams,
                      GlobalObjectiveConfig, MiniBatch, OracleSizeError,
                      aug_consistency_eps, aug_consistency_eps_mean, encode,
                      finite_diff_grad, g_exact, g_minibatch, oracle_F,
                      oracle_value)
from gcobench import objective
from gcobench.objective import ORACLE_GUARD, TILE_GUARD, VERSIONS

import reference
from conftest import identical_instance, make_instance, orthogonal_instance


def brute_view(params, ds, fam, j, k):
    return encode(params, ds.points[j] + fam.deltas[k])


def brute_g_exact(params, cfg, i, k, ds, fam):
    anchor = brute_view(params, ds, fam, i, k)
    total = 0.0
    count = 0
    for j in range(ds.n):
        if j == i:
            continue
        for kk in range(fam.K):
            z = brute_view(params, ds, fam, j, kk)
            total += math.exp(float(anchor @ z) / cfg.tau)
            count += 1
    return total / count


def brute_oracle_value(params, cfg, ds, fam):
    n, K = ds.n, fam.K
    E = [[brute_view(params, ds, fam, i, k) for k in range(K)]
         for i in range(n)]
    align = -sum(float(E[i][k] @ E[i][kp])
                 for i in range(n) for k in range(K)
                 for kp in range(K)) / (n * K * K)
    contrast = 0.0
    for i in range(n):
        gs = [brute_g_exact(params, cfg, i, k, ds, fam) for k in range(K)]
        if cfg.version == "v1":
            contrast += np.mean([cfg.tau * math.log(cfg.eps0 + g) for g in gs])
        else:
            contrast += cfg.tau * math.log(cfg.eps0 + np.mean(gs))
    return align + contrast / n


def test_objective_config_validation():
    with pytest.raises(ValueError):
        GlobalObjectiveConfig(tau=0.0)
    with pytest.raises(ValueError):
        GlobalObjectiveConfig(eps0=-0.1)
    with pytest.raises(ValueError):
        GlobalObjectiveConfig(version="v3")
    # Unchecked, a NaN shift gives a NaN value and gradient, an infinite
    # one an infinite value, and an infinite temperature a NaN value.
    for name, value in (("eps0", math.nan), ("eps0", math.inf),
                        ("tau", math.inf)):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            GlobalObjectiveConfig(**{name: value})
    assert VERSIONS == ("v1", "v2")


def test_identical_instance_closed_form():
    ds, fam, params, cfg = identical_instance(n=4, K=2, tau=0.1)
    target = math.exp(1.0 / cfg.tau)
    for i in range(ds.n):
        for k in range(fam.K):
            assert math.isclose(g_exact(params, cfg, i, k, ds, fam), target,
                                rel_tol=1e-12)
    res = oracle_F(params, cfg, ds, fam)
    assert math.isclose(res.value, 0.0, abs_tol=1e-12)
    np.testing.assert_allclose(res.grad, 0.0, atol=1e-12)
    assert aug_consistency_eps(params, ds, fam, 0) == pytest.approx(0.0,
                                                                    abs=1e-15)


def test_identical_instance_with_eps0_shift():
    ds, fam, params, cfg = identical_instance(n=4, K=2, tau=0.1, eps0=0.5)
    expected = -1.0 + cfg.tau * math.log(0.5 + math.exp(1.0 / cfg.tau))
    res = oracle_F(params, cfg, ds, fam)
    assert math.isclose(res.value, expected, rel_tol=1e-12)
    np.testing.assert_allclose(res.grad, 0.0, atol=1e-12)


@pytest.mark.parametrize("version", VERSIONS)
def test_orthogonal_instance_value_is_minus_one(version):
    ds, fam, params, cfg = orthogonal_instance(tau=0.5, version=version)
    assert math.isclose(oracle_value(params, cfg, ds, fam), -1.0,
                        rel_tol=1e-12)
    res = oracle_F(params, cfg, ds, fam)
    np.testing.assert_allclose(res.per_sample_g, np.ones((2, 1)), rtol=1e-12)
    assert math.isclose(g_exact(params, cfg, 0, 0, ds, fam), 1.0,
                        rel_tol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_g_exact_matches_brute_force(seed):
    ds, fam, params, cfg = make_instance(n=5, K=3, seed=seed)
    for i in (0, 2, 4):
        for k in range(fam.K):
            assert math.isclose(g_exact(params, cfg, i, k, ds, fam),
                                brute_g_exact(params, cfg, i, k, ds, fam),
                                rel_tol=1e-12)


def test_g_minibatch_matches_brute_force_with_duplicates():
    ds, fam, params, cfg = make_instance(n=6, K=2, seed=3)
    batch = MiniBatch(indices=[0, 4, 4, 2], aug_a=[1, 0, 1, 0],
                      aug_b=[0, 1, 1, 1])
    anchor = brute_view(params, ds, fam, 0, 1)
    total = 0.0
    count = 0
    for t in range(batch.B):
        j = int(batch.indices[t])
        if j == 0:
            continue
        for k in (int(batch.aug_a[t]), int(batch.aug_b[t])):
            z = brute_view(params, ds, fam, j, k)
            total += math.exp(float(anchor @ z) / cfg.tau)
            count += 1
    assert count == 6
    assert math.isclose(g_minibatch(params, cfg, 0, 1, batch, ds, fam),
                        total / count, rel_tol=1e-12)


def test_g_minibatch_all_anchor_indices_raises():
    ds, fam, params, cfg = make_instance(n=4, K=2, seed=1)
    batch = MiniBatch(indices=[2, 2], aug_a=[0, 1], aug_b=[1, 0])
    with pytest.raises(ValueError):
        g_minibatch(params, cfg, 2, 0, batch, ds, fam)


def test_g_minibatch_unbiased_by_exhaustive_enumeration():
    # Slots drawn only from the other samples, so every batch is valid and
    # the average over all equally likely draws must equal the global mass.
    ds, fam, params, cfg = make_instance(n=4, K=2, seed=5, tau=0.4)
    others = [j for j in range(ds.n) if j != 0]
    total = 0.0
    count = 0
    for j1 in others:
        for j2 in others:
            for augs in np.ndindex(2, 2, 2, 2):
                batch = MiniBatch(indices=[j1, j2],
                                  aug_a=[augs[0], augs[1]],
                                  aug_b=[augs[2], augs[3]])
                total += g_minibatch(params, cfg, 0, 1, batch, ds, fam)
                count += 1
    assert count == 144
    assert math.isclose(total / count,
                        g_exact(params, cfg, 0, 1, ds, fam), rel_tol=1e-12)


@pytest.mark.parametrize("version", VERSIONS)
def test_oracle_value_matches_brute_force(version):
    ds, fam, params, cfg = make_instance(n=4, K=2, seed=2, version=version,
                                         eps0=0.1)
    assert math.isclose(oracle_value(params, cfg, ds, fam),
                        brute_oracle_value(params, cfg, ds, fam),
                        rel_tol=1e-12)


@pytest.mark.parametrize("version", VERSIONS)
def test_oracle_value_is_mean_of_per_pair_losses(version):
    # Averaging the per-pair global loss over every (sample, view, view)
    # triple reproduces the oracle objective exactly.
    ds, fam, params, cfg = make_instance(n=4, K=2, seed=9, version=version)
    loss = getattr(reference, f"global_loss_{version}")
    vals = [loss(params, cfg, i, a, b, ds, fam)
            for i in range(ds.n)
            for a in range(fam.K)
            for b in range(fam.K)]
    assert math.isclose(float(np.mean(vals)),
                        oracle_value(params, cfg, ds, fam), rel_tol=1e-12)


def test_version_one_never_exceeds_version_two():
    # The log of an average dominates the average of logs.
    for seed in range(10):
        ds, fam, params, _ = make_instance(n=5, K=3, seed=seed)
        v1 = oracle_value(params, GlobalObjectiveConfig(tau=0.2, version="v1"),
                          ds, fam)
        v2 = oracle_value(params, GlobalObjectiveConfig(tau=0.2, version="v2"),
                          ds, fam)
        assert v1 <= v2 + 1e-12


def test_versions_coincide_for_single_view():
    ds, fam, params, _ = make_instance(n=5, K=1, seed=4)
    v1 = oracle_value(params, GlobalObjectiveConfig(tau=0.2, version="v1"),
                      ds, fam)
    v2 = oracle_value(params, GlobalObjectiveConfig(tau=0.2, version="v2"),
                      ds, fam)
    assert math.isclose(v1, v2, rel_tol=1e-14)


@pytest.mark.parametrize("version", VERSIONS)
def test_oracle_grad_matches_finite_differences(version):
    ds, fam, params, cfg = make_instance(n=4, K=2, seed=6, version=version,
                                         arch="one_hidden", d_hidden=4)
    res = oracle_F(params, cfg, ds, fam)
    fd = finite_diff_grad(lambda p: oracle_value(p, cfg, ds, fam), params)
    err = np.linalg.norm(res.grad - fd) / np.linalg.norm(fd)
    assert err < 1e-7


def test_per_sample_g_matches_g_exact():
    ds, fam, params, cfg = make_instance(n=4, K=2, seed=8)
    res = oracle_F(params, cfg, ds, fam)
    assert res.per_sample_g.shape == (4, 2)
    for i in range(4):
        for k in range(2):
            assert math.isclose(res.per_sample_g[i, k],
                                g_exact(params, cfg, i, k, ds, fam),
                                rel_tol=1e-12)


def test_oracle_refuses_oversized_instances():
    n = ORACLE_GUARD // 2 + 1
    ds = Dataset(points=np.zeros((n, 2)))
    fam = AugmentationFamily(deltas=np.zeros((2, 2)))
    params = EncoderParams(architecture="linear", W1=np.eye(2))
    cfg = GlobalObjectiveConfig()
    with pytest.raises(OracleSizeError):
        oracle_value(params, cfg, ds, fam)
    with pytest.raises(OracleSizeError):
        g_exact(params, cfg, 0, 0, ds, fam)


@pytest.mark.parametrize("n, K, m", [(714, 14, 4), (256, 32, 2)])
def test_oracle_refuses_one_sample_tiles_past_the_blas_bound(n, K, m,
                                                             monkeypatch):
    """From K * n*K * m = 2^19 on, one sample's tile products would be
    threaded by OpenBLAS. The bound is 2^19 itself, not the tile budget,
    which the tile tests shrink."""
    assert K * n * K * m >= TILE_GUARD == 2 ** 19 and n * K <= ORACLE_GUARD
    monkeypatch.setattr(objective, "_TILE_MADDS", 2 ** 30)
    ds, fam, params, cfg = make_instance(n=n, K=K, m=m)
    for run in (oracle_F, oracle_value):
        with pytest.raises(OracleSizeError, match=str(K * n * K * m)):
            run(params, cfg, ds, fam)


@pytest.mark.parametrize("i, aug_k", [(-1, 0), (5, 0), (0, -1), (0, 2)])
def test_out_of_range_anchors_raise(i, aug_k):
    ds, fam, params, cfg = make_instance(n=5, K=2, seed=3)
    batch = MiniBatch(indices=[1, 3], aug_a=[0, 1], aug_b=[1, 0])
    with pytest.raises(IndexError):
        g_minibatch(params, cfg, i, aug_k, batch, ds, fam)
    with pytest.raises(IndexError):
        g_exact(params, cfg, i, aug_k, ds, fam)
    if aug_k == 0:
        with pytest.raises(IndexError):
            aug_consistency_eps(params, ds, fam, i)


def test_aug_consistency_matches_brute_force():
    ds, fam, params, _ = make_instance(n=4, K=3, seed=10, aug_scale=0.4)
    n, K = ds.n, fam.K
    E = [[brute_view(params, ds, fam, j, k) for k in range(K)]
         for j in range(n)]
    i = 1
    members = [(j, k) for j in range(n) if j != i for k in range(K)]
    total = 0.0
    for k in range(K):
        for kp in range(K):
            for j, kk in members:
                d = float(E[i][k] @ E[j][kk]) - float(E[i][kp] @ E[j][kk])
                total += d * d
    expected = total / (K * K * len(members))
    assert math.isclose(aug_consistency_eps(params, ds, fam, i), expected,
                        rel_tol=1e-12)


def test_aug_consistency_zero_for_single_view():
    ds, fam, params, _ = make_instance(n=4, K=1, seed=3)
    assert aug_consistency_eps(params, ds, fam, 0) == 0.0
    assert aug_consistency_eps_mean(params, ds, fam) == 0.0


def test_aug_consistency_mean_averages_per_sample():
    ds, fam, params, _ = make_instance(n=5, K=2, seed=11)
    per = [aug_consistency_eps(params, ds, fam, i) for i in range(ds.n)]
    assert math.isclose(aug_consistency_eps_mean(params, ds, fam),
                        float(np.mean(per)), rel_tol=1e-12)
