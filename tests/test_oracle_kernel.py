"""The tiled enumeration kernel against the two-pass reference it replaced,
across tile boundaries and in bounded memory; its thread pool against the
serial tile loop it replaced, bit for bit, across a fork and under the
caller's numpy error state; the bound on each BLAS call, and the same bits
under any BLAS thread setting; the consistency diagnostic against exact
rational arithmetic; and the record path that reads the diagnostic off the
oracle."""

import multiprocessing
import os
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcobench import (GlobalObjectiveConfig, RunConfig, aug_consistency_eps,
                      aug_consistency_eps_mean, finite_diff_grad,
                      flatten_params, g_exact, load_encoder, oracle_F,
                      oracle_value, train)
from gcobench import objective
from gcobench.embed_core import make_augmentation_family
from gcobench.harness import generate_synthetic
from gcobench.objective import VERSIONS

import reference
from conftest import identical_instance, make_instance, traced_peak

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
    """Tile sizes from one sample per tile to one tile for all, with ragged
    last tiles, give the reference's oracle and the serial tile loop's bits;
    the value-only path and g_exact give the same bits as oracle_F."""
    ds, fam, params, cfg = make_instance(n=n, K=K, version=version, eps0=eps0,
                                         arch=arch, tau=tau, seed=seed,
                                         aug_scale=0.4)
    per_tile = data.draw(st.integers(1, n), label="samples per tile")
    slack = data.draw(st.integers(0, K * n * K - 1), label="budget slack")
    with pytest.MonkeyPatch.context() as mp:
        budget = per_tile * K * n * K + slack
        mp.setattr(objective, "_TILE_MADDS", budget * params.m)
        mp.setattr(reference, "_TILE_BUDGET", budget)
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


@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize("eps0", [0.0, 0.5])
@pytest.mark.parametrize("arch", ["linear", "one_hidden"])
def test_one_value_pass_gives_each_versions_differences(arch, eps0, K,
                                                        monkeypatch):
    """gradcheck's shared sweep, one value pass per difference point, gives
    the bits of a sweep per version, and of the serial tile loop's values,
    over tiles of 3, 3 and 2 samples."""
    ds, fam, params, _ = make_instance(n=8, K=K, eps0=eps0, arch=arch,
                                       seed=4 + K, aug_scale=0.4)
    budget = 3 * K * ds.n * K
    monkeypatch.setattr(objective, "_TILE_MADDS", budget * params.m)
    monkeypatch.setattr(reference, "_TILE_BUDGET", budget)
    cfgs = [GlobalObjectiveConfig(tau=0.2, eps0=eps0, version=version)
            for version in VERSIONS]
    shared = finite_diff_grad(
        lambda p: objective._oracle_values(p, cfgs, ds, fam), params)
    assert shared.shape == (flatten_params(params).size, len(VERSIONS))
    for column, cfg in zip(shared.T, cfgs):
        assert np.array_equal(column, finite_diff_grad(
            lambda p: oracle_value(p, cfg, ds, fam), params))
        assert np.array_equal(column, finite_diff_grad(
            lambda p: reference.serial_tile_core(p, cfg, ds, fam, False)[0],
            params))


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
    than four workers hold in flight."""
    ds, fam, params, cfg = make_instance(n=12, K=2, version=version,
                                         eps0=eps0, seed=7, aug_scale=0.4)
    budget = per_tile * fam.K * ds.n * fam.K
    monkeypatch.setattr(objective, "_TILE_MADDS", budget * params.m)
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
def test_pool_gives_the_serial_bits_on_criterion_5_task(workers, n,
                                                        monkeypatch):
    """Tiles of the default size: 127 + 127 + 2 samples at n = 256, and 33
    tiles of 31 and a last one of 1 at n = 1024."""
    ds = generate_synthetic(n, 4, 4, 3.0, 7)
    fam = make_augmentation_family(4, 2, 0.5, 11)
    _, _, params, cfg = make_instance(d_in=4, m=4, tau=0.2, seed=5)
    monkeypatch.setattr(reference, "_TILE_BUDGET",
                        objective._TILE_MADDS // params.m)
    value, grad, per_sample_g, eps = reference.serial_tile_core(
        params, cfg, ds, fam, want_grad=True)
    res = oracle_F(params, cfg, ds, fam)
    assert res.value == value and res.eps_sq_mean == eps
    assert np.array_equal(res.grad, grad)
    assert np.array_equal(res.per_sample_g, per_sample_g)


@pytest.mark.parametrize("n, K, m, arch", [(1024, 2, 4, "linear"),
                                           (2500, 3, 8, "one_hidden")],
                         ids=["n1024-K2-m4", "n2500-K3-m8"])
def test_blas_calls_stay_under_the_bound(n, K, m, arch, monkeypatch):
    """Each tile product is one np.matmul call, too small for OpenBLAS to
    start threads of its own: 31 samples a tile at n = 1024, K = 2, m = 4,
    and 2 at n = 2500, K = 3, m = 8."""
    calls, matmul = [], np.matmul

    def spy(a, b, out=None):
        calls.append(a.shape[0] * a.shape[1] * b.shape[1])
        return matmul(a, b, out=out)

    ds = generate_synthetic(n, 4, 4, 3.0, 7)
    fam = make_augmentation_family(4, K, 0.5, 11)
    _, _, params, cfg = make_instance(d_in=4, m=m, arch=arch, tau=0.2, seed=5)
    monkeypatch.setattr(objective.np, "matmul", spy)
    oracle_F(params, cfg, ds, fam)
    per_tile = objective._TILE_MADDS // (K * n * K * m)
    assert len(calls) == 3 * -(-n // per_tile)
    assert max(calls) <= objective._TILE_MADDS


# One oracle_F at the instance of the bound test above that a 12-row BLAS
# call would exceed; prints a hash of the bytes of all four outputs.
_ORACLE_HASH = """
import hashlib
import numpy as np
from gcobench import make_augmentation_family, oracle_F, twoway_oracle_F
from gcobench.harness import generate_synthetic
from conftest import make_instance, make_paired_instance
ds = generate_synthetic(2500, 4, 4, 3.0, 7)
fam = make_augmentation_family(4, 3, 0.5, 11)
_, _, params, cfg = make_instance(d_in=4, m=8, arch="one_hidden", tau=0.2,
                                  seed=5)
res = oracle_F(params, cfg, ds, fam)
out = [res.grad, res.per_sample_g, np.array([res.value, res.eps_sq_mean])]
print(hashlib.sha256(b"".join(a.tobytes() for a in out)).hexdigest())
pds, pi, pt, cfg = make_paired_instance(n=362, m=4, arch="one_hidden", seed=5)
res = twoway_oracle_F(pi, pt, cfg, pds)
out = [res.grad, res.g_image, res.g_text, np.array([res.value])]
print(hashlib.sha256(b"".join(a.tobytes() for a in out)).hexdigest())
"""


def test_oracle_bits_do_not_depend_on_blas_threads():
    """The same bytes with BLAS on one thread and on two, from the unimodal
    oracle and from the two-way one at n = 362, m = 4: the largest n whose
    n x n x m products stay below the 2^19 multiply-adds OpenBLAS runs on
    one thread. At n = 363 the two-way bits differ."""
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(here, os.pardir, "src"), here,
                            os.environ.get("PYTHONPATH", "")])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", _ORACLE_HASH], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_runs_the_oracle(monkeypatch):
    """A fork child inherits the parent's pool object but none of its
    threads; it must build its own pool rather than wait on the copy."""
    ds, fam, params, cfg = make_instance(n=12, K=2, seed=7)
    monkeypatch.setattr(objective, "_TILE_MADDS",      # 2 samples per tile
                        2 * fam.K * ds.n * fam.K * params.m)
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


def test_a_failing_tile_cancels_the_pending_ones(monkeypatch):
    """With 2 samples a tile, the first tile's error leaves others pending;
    they are cancelled, and the next pass is unchanged."""
    ds, fam, params, cfg = make_instance(n=12, K=2, seed=7)
    monkeypatch.setattr(objective, "_TILE_MADDS",      # 2 samples per tile
                        2 * fam.K * ds.n * fam.K * params.m)
    before = oracle_F(params, cfg, ds, fam)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        oracle_F(params, replace(cfg, tau=1e-3), ds, fam)
    after = oracle_F(params, cfg, ds, fam)
    assert after.value == before.value
    assert after.eps_sq_mean == before.eps_sq_mean
    np.testing.assert_array_equal(after.grad, before.grad)
    np.testing.assert_array_equal(after.per_sample_g, before.per_sample_g)


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
        assert traced_peak(run) < 16 * 2 ** 20


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
