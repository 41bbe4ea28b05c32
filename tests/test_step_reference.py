"""The one optimizer state, step rule and stacked batch kernel against the
three state classes, step functions and two-halves kernel they replaced
(kept verbatim in reference.py): 100 steps of every method, sampling mode
and statistics mode must agree bit for bit."""

import numpy as np
import pytest

from gcobench import (MinibatchSampler, flatten_params, make_bimodal_state,
                      make_simclr_state, make_sogclr_state, simclr_step,
                      sogclr_step, twoway_step)
from gcobench.bimodal import pair_to_flat
from gcobench.embed_core import IndexSampler

import reference
from conftest import make_instance, make_paired_instance

STEPS = 100


def assert_same_state(new, ref, u_ref):
    # The reference simclr state has no statistics and no Adam moments.
    np.testing.assert_array_equal(new.u, u_ref)
    np.testing.assert_array_equal(new.v, ref.v)
    assert new.adam_t == getattr(ref, "adam_t", 0)
    for name in ("adam_m", "adam_v"):
        a, b = getattr(new, name), getattr(ref, name, None)
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_array_equal(a, b)


UNIMODAL = {
    "simclr-beta1": ("simclr", dict(beta=1.0), "epoch_shuffle"),
    "simclr-beta0.5": ("simclr", dict(beta=0.5), "with_replacement"),
    "sogclr-momentum-fresh": ("sogclr", dict(step_rule="momentum",
                                             u_lag="fresh"), "epoch_shuffle"),
    "sogclr-adam-fresh": ("sogclr", dict(step_rule="adam_style",
                                         u_lag="fresh"), "with_replacement"),
    "sogclr-momentum-lagged": ("sogclr", dict(step_rule="momentum",
                                              u_lag="lagged"),
                               "with_replacement"),
    "sogclr-adam-lagged": ("sogclr", dict(step_rule="adam_style",
                                          u_lag="lagged"), "epoch_shuffle"),
}


def run_unimodal(algo, kwargs, sampling, B, instance):
    """STEPS steps of the package and of the reference from one instance,
    compared after every step; returns the batches drawn."""
    ds, fam, params, cfg = instance
    n = ds.n
    d = flatten_params(params).shape[0]
    if algo == "simclr":
        new = make_simclr_state(d, **kwargs)
        ref = reference.make_simclr_state(d, **kwargs)
        new_step, ref_step = simclr_step, reference.simclr_step
    else:
        new = make_sogclr_state(n, d, **kwargs)
        ref = reference.make_sogclr_state(n, d, **kwargs)
        new_step, ref_step = sogclr_step, reference.sogclr_step
    sampler = MinibatchSampler(ds, fam, B, np.random.default_rng(32), sampling)
    batches = [sampler.next_batch() for _ in range(STEPS)]
    p_new = p_ref = params
    for batch in batches:
        p_new = new_step(new, p_new, cfg, batch, ds, fam)
        p_ref = ref_step(ref, p_ref, cfg, batch, ds, fam)
        np.testing.assert_array_equal(flatten_params(p_new),
                                      flatten_params(p_ref))
        assert_same_state(new, ref, getattr(ref, "u", np.zeros(0)))
    return batches


@pytest.mark.parametrize("case", list(UNIMODAL), ids=list(UNIMODAL))
def test_unimodal_steps_match_reference_bitwise(case):
    algo, kwargs, sampling = UNIMODAL[case]
    instance = make_instance(n=8, K=2, d_in=4, m=3, tau=0.3, seed=31,
                             arch="one_hidden")
    if algo == "sogclr":
        kwargs = dict(kwargs, gamma=0.6, beta=0.7)
    run_unimodal(algo, dict(kwargs, eta=0.1), sampling, 6, instance)


# The criterion-5 task (n = 256, K = 2, linear, m = 4, tau = 0.2) with its
# step sizes; the last case repeats indices within batches.
LAW_CASES = {
    "simclr-B4": ("simclr", 4, dict(eta=0.01), "epoch_shuffle", 0.0),
    "simclr-B64": ("simclr", 64, dict(eta=0.01), "epoch_shuffle", 0.0),
    "sogclr-B4": ("sogclr", 4, dict(eta=0.004, gamma=0.1), "epoch_shuffle",
                  0.0),
    "sogclr-B64": ("sogclr", 64, dict(eta=0.004, gamma=0.1), "epoch_shuffle",
                   0.0),
    "sogclr-B64-with_replacement-eps0.5": ("sogclr", 64,
                                           dict(eta=0.004, gamma=0.1),
                                           "with_replacement", 0.5),
}


@pytest.mark.parametrize("case", list(LAW_CASES), ids=list(LAW_CASES))
def test_criterion_5_steps_match_reference_bitwise(case):
    algo, B, kwargs, sampling, eps0 = LAW_CASES[case]
    instance = make_instance(n=256, K=2, d_in=4, m=4, tau=0.2, eps0=eps0,
                             seed=41, aug_scale=0.5, clusters=4,
                             separation=3.0)
    batches = run_unimodal(algo, kwargs, sampling, B, instance)
    if sampling == "with_replacement":
        assert any(np.unique(b.indices).size < B for b in batches)


BIMODAL = {
    "fresh-momentum": (dict(u_lag="fresh"), "with_replacement"),
    "lagged-momentum": (dict(u_lag="lagged"), "with_replacement"),
    "lagged-adam": (dict(u_lag="lagged", step_rule="adam_style"),
                    "epoch_shuffle"),
}


@pytest.mark.parametrize("case", list(BIMODAL), ids=list(BIMODAL))
def test_twoway_steps_match_reference_bitwise(case):
    kwargs, sampling = BIMODAL[case]
    n, B = 6, 4
    pds, pi, pt, cfg = make_paired_instance(n=n, seed=33, tau=0.3)
    d = pair_to_flat(pi, pt).shape[0]
    new = make_bimodal_state(n, d, eta=0.1, gamma=0.6, beta=0.7, **kwargs)
    ref = reference.make_bimodal_state(n, d, eta=0.1, gamma=0.6, beta=0.7,
                                       **kwargs)
    sampler = IndexSampler(n, B, np.random.default_rng(34), sampling)
    # A hand-made first batch repeats an index while its statistics are
    # cold; with_replacement batches repeat indices on warm ones.
    batches = [np.array([2, 5, 2, 0])]
    batches += [sampler.next_indices() for _ in range(STEPS - 1)]
    p_new = p_ref = (pi, pt)
    for idx in batches:
        p_new = twoway_step(new, *p_new, cfg, idx, pds)
        p_ref = reference.twoway_step(ref, *p_ref, cfg, idx, pds)
        np.testing.assert_array_equal(pair_to_flat(*p_new),
                                      pair_to_flat(*p_ref))
        assert_same_state(new, ref, np.stack([ref.u_image, ref.u_text]))
