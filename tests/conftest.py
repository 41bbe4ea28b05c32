"""Shared instance builders for the test suite.

Builders return plain tuples so tests can construct many seeded variants
cheaply. The two hand-crafted instances have closed-form values:

- the identical instance embeds every view to the same unit vector, so all
  similarities are 1, the objective value is -1 + tau * ln(eps0 + e^(1/tau))
  (exactly 0 when eps0 = 0), and every gradient vanishes;
- the orthogonal instance (n = 2, K = 1, identity encoder on the standard
  basis) has similarity 1 on each sample with itself and 0 across samples,
  so every averaged negative mass is e^0 = 1 and the objective value is -1.
"""

import tracemalloc

import numpy as np

from gcobench import (AugmentationFamily, Dataset, EncoderParams,
                      GlobalObjectiveConfig, PairedDataset, init_encoder,
                      make_augmentation_family)
from gcobench.harness import generate_synthetic, generate_synthetic_pairs


def make_instance(n=5, K=2, d_in=4, m=3, tau=0.2, eps0=0.0, version="v1",
                  seed=0, arch="linear", d_hidden=6, aug_scale=0.15,
                  clusters=2, separation=2.0):
    """Seeded random instance: (dataset, family, params, objective config)."""
    ds = generate_synthetic(n, d_in, clusters, separation, seed)
    fam = make_augmentation_family(d_in, K, aug_scale, seed + 1)
    params = init_encoder(arch, d_in, m, d_hidden, seed + 2)
    cfg = GlobalObjectiveConfig(tau=tau, eps0=eps0, version=version)
    return ds, fam, params, cfg


def identical_instance(n=4, K=2, tau=0.1, eps0=0.0, version="v1"):
    """All points equal and all perturbations zero: one shared embedding."""
    pts = np.tile(np.array([[1.0, -0.5, 2.0]]), (n, 1))
    ds = Dataset(points=pts)
    fam = AugmentationFamily(deltas=np.zeros((K, 3)))
    W1 = np.array([[0.3, -1.1, 0.4],
                   [0.8, 0.2, -0.6]])
    params = EncoderParams(architecture="linear", W1=W1)
    cfg = GlobalObjectiveConfig(tau=tau, eps0=eps0, version=version)
    return ds, fam, params, cfg


def orthogonal_instance(tau=0.5, eps0=0.0, version="v1"):
    """Two samples embedding to orthogonal unit vectors, single view."""
    ds = Dataset(points=np.eye(2))
    fam = AugmentationFamily(deltas=np.zeros((1, 2)))
    params = EncoderParams(architecture="linear", W1=np.eye(2))
    cfg = GlobalObjectiveConfig(tau=tau, eps0=eps0, version=version)
    return ds, fam, params, cfg


def make_paired_instance(n=5, d_image=4, d_text=3, m=3, tau=0.2, eps0=0.0,
                         seed=0, arch="linear", d_hidden=6):
    """Seeded paired instance: (pairs, image params, text params, config)."""
    pds = generate_synthetic_pairs(n, d_image, d_text, 2, 2.0, seed)
    params_i = init_encoder(arch, d_image, m, d_hidden, seed + 2)
    params_t = init_encoder(arch, d_text, m, d_hidden, seed + 3)
    cfg = GlobalObjectiveConfig(tau=tau, eps0=eps0)
    return pds, params_i, params_t, cfg


def orthogonal_paired_instance(tau=0.1):
    """Both sides are the standard basis of R^2 under identity encoders, so
    the score grid is the identity matrix."""
    pds = PairedDataset(image=np.eye(2), text=np.eye(2))
    params = EncoderParams(architecture="linear", W1=np.eye(2))
    cfg = GlobalObjectiveConfig(tau=tau)
    return pds, params, params, cfg


def traced_peak(run) -> int:
    """Peak bytes traced by tracemalloc while run() runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
