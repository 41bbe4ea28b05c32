"""The fused enumeration kernel against the two-pass reference it replaced,
and the record path that reads the consistency diagnostic off the oracle."""

from dataclasses import replace

import numpy as np
import pytest

from gcobench import (RunConfig, aug_consistency_eps_mean, load_encoder,
                      oracle_F, oracle_value, train)
from gcobench.embed_core import make_augmentation_family
from gcobench.harness import generate_synthetic
from gcobench.objective import VERSIONS

import reference
from conftest import make_instance

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
    """n*K = 512 with several row blocks in the epsilon pass."""
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
