"""The tiled enumeration kernel against the two-pass reference it replaced,
across tile boundaries and in bounded memory; its thread pool and its
chunked BLAS calls against the serial tile loop they replaced, bit for bit,
across a fork and under the caller's numpy error state; the bound on each
BLAS call; the consistency diagnostic against exact rational arithmetic;
and the record path that reads the diagnostic off the oracle."""

import multiprocessing
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcobench import (RunConfig, aug_consistency_eps, aug_consistency_eps_mean,
                      g_exact, load_encoder, oracle_F, oracle_value, train)
from gcobench import objective
from gcobench.embed_core import make_augmentation_family
from gcobench.harness import generate_synthetic
from gcobench.objective import VERSIONS

import reference
from conftest import identical_instance, make_instance

REL = 1e-12


def assert_rel_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= REL * scale


@pytest.mark.parametrize("version", VERSIONS)
@pytest.mark.parametrize("eps0", [0.0, 0.5])
@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("arch", ["linear", "one_hidden"])
@pytest.mark.parametrize("n", [2, 6])
def test_oracle_matches_reference(version, eps0, K, arch, n):
    ds, fam, params, cfg = make_instance(n=n, K=K, version=version, eps0=eps0,
                                         arch=arch, seed=n + 3 * K,
                                         aug_scale=0.4)
    res = oracle_F(params, cfg, ds, fam)
    value, grad, per_sample_g = reference._oracle_core(params, cfg, ds, fam,
                                                       want_grad=True)
    assert_rel_close(res.value, value)
    assert_rel_close(res.grad, grad)
    assert_rel_close(res.per_sample_g, per_sample_g)
    want_eps = reference.aug_consistency_eps_mean(params, ds, fam)
    if K == 1:
        assert res.eps_sq_mean == want_eps == 0.0
    else:
        assert_rel_close(res.eps_sq_mean, want_eps)
    assert_rel_close(aug_consistency_eps_mean(params, ds, fam), want_eps)
    assert oracle_value(params, cfg, ds, fam) == res.value


def test_oracle_matches_reference_on_criterion_5_task():
    """n*K = 512, over several row tiles."""
    ds = generate_synthetic(256, 4, 4, 3.0, 7)
    fam = make_augmentation_family(4, 2, 0.5, 11)
    _, _, params, cfg = make_instance(d_in=4, m=4, tau=0.2, seed=5)
    res = oracle_F(params, cfg, ds, fam)
    value, grad, per_sample_g = reference._oracle_core(params, cfg, ds, fam,
                                                       want_grad=True)
    assert_rel_close(res.value, value)
    assert_rel_close(res.grad, grad)
    assert_rel_close(res.per_sample_g, per_sample_g)
    assert_rel_close(res.eps_sq_mean,
                     reference.aug_consistency_eps_mean(params, ds, fam))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 12), K=st.integers(1, 4),
       version=st.sampled_from(VERSIONS), eps0=st.sampled_from([0.0, 0.5]),
       arch=st.sampled_from(["linear", "one_hidden"]),
       tau=st.floats(0.05, 1.0), seed=st.integers(0, 10_000),
       data=st.data())
def test_tiles_match_reference(n, K, version, eps0, arch, tau, seed, data):
    """Tile budgets from one sample per tile to one tile for all, with
    ragged last tiles, give the reference's oracle, and with BLAS calls of
    12 rows, the fewest, the serial tile loop's bits; the value-only path
    and g_exact give the same bits as oracle_F."""
    ds, fam, params, cfg = make_instance(n=n, K=K, version=version, eps0=eps0,
                                         arch=arch, tau=tau, seed=seed,
                                         aug_scale=0.4)
    per_tile = data.draw(st.integers(1, n), label="samples per tile")
    slack = data.draw(st.integers(0, K * n * K - 1), label="budget slack")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(objective, "_TILE_BUDGET", per_tile * K * n * K + slack)
        mp.setattr(reference, "_TILE_BUDGET", per_tile * K * n * K + slack)
        mp.setattr(objective, "_BLAS_MADDS", 1)
        res = oracle_F(params, cfg, ds, fam)
        serial = reference.serial_tile_core(params, cfg, ds, fam,
                                            want_grad=True)
        assert res.value == serial[0] and res.eps_sq_mean == serial[3]
        assert np.array_equal(res.grad, serial[1])
        assert np.array_equal(res.per_sample_g, serial[2])
        value, grad, per_sample_g = reference._oracle_core(
            params, cfg, ds, fam, want_grad=True)
        assert abs(res.value - value) <= REL * max(1.0, abs(value))
        assert_rel_close(res.grad, grad)
        assert_rel_close(res.per_sample_g, per_sample_g)
        assert res.eps_sq_mean >= 0.0
        assert oracle_value(params, cfg, ds, fam) == res.value
        for i in range(n):
            for k in range(K):
                assert g_exact(params, cfg, i, k, ds, fam) == res.per_sample_g[i, k]


@pytest.fixture(params=[1, 4], ids=["1-worker", "4-workers"])
def workers(request, monkeypatch):
    """The oracle's pool with the given worker count; four workers on fewer
    CPUs, with a short switch interval, finish their tiles out of order."""
    pool = ThreadPoolExecutor(request.param)
    monkeypatch.setattr(objective, "_pool", [(pool, request.param)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()


@pytest.mark.parametrize("per_tile", [12, 5, 1],
                         ids=["one-tile", "ragged-tiles", "sample-per-tile"])
@pytest.mark.parametrize("version", VERSIONS)
@pytest.mark.parametrize("eps0", [0.0, 0.5])
def test_pool_gives_the_serial_bits(workers, per_tile, version, eps0,
                                    monkeypatch):
    """n = 12 in tiles of 12, 5 (5, 5, 2) or 1 sample(s): 12 tiles are more
    than four workers hold in flight. BLAS calls take 12 rows, the fewest,
    so the 24 rows of one tile and of P^T are two calls each."""
    ds, fam, params, cfg = make_instance(n=12, K=2, version=version,
                                         eps0=eps0, seed=7, aug_scale=0.4)
    budget = per_tile * fam.K * ds.n * fam.K
    monkeypatch.setattr(objective, "_TILE_BUDGET", budget)
    monkeypatch.setattr(objective, "_BLAS_MADDS", 1)
    monkeypatch.setattr(reference, "_TILE_BUDGET", budget)
    value, grad, per_sample_g, eps = reference.serial_tile_core(
        params, cfg, ds, fam, want_grad=True)
    value_only = reference.serial_tile_core(params, cfg, ds, fam,
                                            want_grad=False)[0]
    for _ in range(3):
        res = oracle_F(params, cfg, ds, fam)
        assert res.value == value
        assert np.array_equal(res.grad, grad)
        assert np.array_equal(res.per_sample_g, per_sample_g)
        assert res.eps_sq_mean == eps
        assert oracle_value(params, cfg, ds, fam) == value_only


@pytest.mark.parametrize("n", [256, 1024])
def test_pool_gives_the_serial_bits_on_criterion_5_task(workers, n):
    """2 and 8 tiles of the default budget."""
    ds = generate_synthetic(n, 4, 4, 3.0, 7)
    fam = make_augmentation_family(4, 2, 0.5, 11)
    _, _, params, cfg = make_instance(d_in=4, m=4, tau=0.2, seed=5)
    value, grad, per_sample_g, eps = reference.serial_tile_core(
        params, cfg, ds, fam, want_grad=True)
    res = oracle_F(params, cfg, ds, fam)
    assert res.value == value and res.eps_sq_mean == eps
    assert np.array_equal(res.grad, grad)
    assert np.array_equal(res.per_sample_g, per_sample_g)


@pytest.mark.parametrize("version", VERSIONS)
def test_last_row_joins_the_chunk_before_it(version, monkeypatch):
    """n = 13 with K = 1 in one tile: each product has 13 rows, and in
    12-row chunks its last row would go to gemv on its own."""
    ds, fam, params, cfg = make_instance(n=13, K=1, version=version, seed=3)
    monkeypatch.setattr(objective, "_BLAS_MADDS", 1)
    value, grad, per_sample_g, eps = reference.serial_tile_core(
        params, cfg, ds, fam, want_grad=True)
    res = oracle_F(params, cfg, ds, fam)
    assert res.value == value and res.eps_sq_mean == eps
    assert np.array_equal(res.grad, grad)
    assert np.array_equal(res.per_sample_g, per_sample_g)


def test_blas_calls_stay_under_the_bound(monkeypatch):
    """At n = 1024, K = 2 and m = 4 every tile product is 2^19
    multiply-adds, so each is cut in two, and no BLAS call is large enough
    for OpenBLAS to start threads of its own."""
    calls, matmul = [], np.matmul

    def spy(a, b, out):
        calls.append(a.shape[0] * a.shape[1] * b.shape[1])
        return matmul(a, b, out=out)

    ds = generate_synthetic(1024, 4, 4, 3.0, 7)
    fam = make_augmentation_family(4, 2, 0.5, 11)
    _, _, params, cfg = make_instance(d_in=4, m=4, tau=0.2, seed=5)
    monkeypatch.setattr(objective.np, "matmul", spy)
    oracle_F(params, cfg, ds, fam)
    tiles = 1024 // (objective._TILE_BUDGET // (2 * 2048))
    assert len(calls) == 3 * 2 * tiles
    assert max(calls) <= objective._BLAS_MADDS


@pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_runs_the_oracle(monkeypatch):
    """A fork child inherits the parent's pool object but none of its
    threads; it must build its own pool rather than wait on the copy."""
    ds, fam, params, cfg = make_instance(n=12, K=2, seed=7)
    monkeypatch.setattr(objective, "_TILE_BUDGET",
                        2 * fam.K * ds.n * fam.K)      # 2 samples per tile
    want = oracle_value(params, cfg, ds, fam)
    assert objective._pool
    with multiprocessing.get_context("fork").Pool(1) as child:
        got = child.apply_async(oracle_value, (params, cfg, ds, fam))
        assert got.get(timeout=60) == want


def test_tiles_raise_under_the_callers_error_state():
    ds, fam, params, cfg = make_instance(n=12, K=2, tau=1e-3, seed=7)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        oracle_F(params, cfg, ds, fam)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        res = oracle_F(params, cfg, ds, fam)
    assert not np.isfinite(res.value)


@pytest.mark.parametrize("aug_scale", [1e-3, 1e-4, 1e-6])
@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("n", [2, 6])
def test_eps_matches_exact_rationals_at_small_spread(aug_scale, K, n):
    """Nearly coincident views: their similarity spread is far below the
    similarities, which a form that subtracts similarities loses to
    cancellation."""
    ds, fam, params, cfg = make_instance(n=n, K=K, seed=2 * n + K,
                                         aug_scale=aug_scale)
    exact = reference.aug_consistency_eps_exact(params, ds, fam)

    def rel_err(got, want):
        return abs(Fraction(got) - want) / want

    for i in range(n):
        got = aug_consistency_eps(params, ds, fam, i)
        assert got >= 0.0
        assert rel_err(got, exact[i]) <= REL
    mean = sum(exact) / n
    assert rel_err(aug_consistency_eps_mean(params, ds, fam), mean) <= REL
    assert rel_err(oracle_F(params, cfg, ds, fam).eps_sq_mean, mean) <= REL


@pytest.mark.parametrize("instance", [
    make_instance(n=5, K=1, seed=4, aug_scale=0.4),
    identical_instance(n=4, K=3),
])
def test_eps_exactly_zero_without_spread(instance):
    ds, fam, params, cfg = instance
    assert aug_consistency_eps_mean(params, ds, fam) == 0.0
    assert oracle_F(params, cfg, ds, fam).eps_sq_mean == 0.0
    assert all(aug_consistency_eps(params, ds, fam, i) == 0.0
               for i in range(ds.n))


def test_memory_linear_in_views():
    """n*K = 4,000: S would take 122 MiB; the oracle and the diagnostic
    stay far below it."""
    ds = generate_synthetic(2000, 4, 4, 3.0, 7)
    fam = make_augmentation_family(4, 2, 0.5, 11)
    _, _, params, cfg = make_instance(d_in=4, m=4, tau=0.2, seed=5)
    for run in (lambda: oracle_F(params, cfg, ds, fam),
                lambda: aug_consistency_eps_mean(params, ds, fam)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


SMALL = RunConfig(n=8, batch_size=4, steps=5, aug_scale=0.4)


def test_record_eps_equals_diagnostic_on_checkpoint(tmp_path):
    records = train(replace(SMALL, cadence=1))
    ds = generate_synthetic(SMALL.n, SMALL.d_in, SMALL.clusters,
                            SMALL.separation, SMALL.data_seed)
    fam = make_augmentation_family(SMALL.d_in, SMALL.aug_k, SMALL.aug_scale,
                                   SMALL.aug_seed)
    for rec in records[1:]:
        ckpt = str(tmp_path / f"enc{rec.step}.txt")
        train(replace(SMALL, steps=rec.step, checkpoint_path=ckpt))
        want = aug_consistency_eps_mean(load_encoder(ckpt), ds, fam)
        assert_rel_close(rec.eps_sq_mean, want)


def test_final_checkpoint_independent_of_cadence(tmp_path):
    fine, coarse = tmp_path / "fine.txt", tmp_path / "coarse.txt"
    train(replace(SMALL, cadence=1, checkpoint_path=str(fine)))
    train(replace(SMALL, cadence=SMALL.steps, checkpoint_path=str(coarse)))
    assert fine.read_bytes() == coarse.read_bytes()
