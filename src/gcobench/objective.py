"""The mini-batch g estimator and the exact enumeration oracle.

Conventions used throughout the package:

- g quantities are AVERAGED over their index set:
  gbar(w; i, k, S) = (1/|S|) * sum_{z in S} exp(sim(E(x_i + delta_k), E(z)) / tau),
  where S is the negative set of sample i (all (n-1)*K views of other samples).
- The outer compositional function is f(g) = tau * ln(eps0 + g).
- The objective value drops the additive constant that does not depend on the
  encoder, so reported values can be negative.

Version "v1" averages f over the augmentation draw outside the log; "v2" moves
the augmentation average inside the log. The two coincide when K = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder
from .embed_core import (AugmentationFamily, Dataset, MiniBatch, all_views,
                         apply_augmentation)

ORACLE_GUARD = 10_000
VERSIONS = ("v1", "v2")


class OracleSizeError(ValueError):
    """The requested exact enumeration exceeds the size guard."""


@dataclass(frozen=True)
class GlobalObjectiveConfig:
    """Temperature, normalizer shift, and objective version."""

    tau: float = 0.1
    eps0: float = 0.0
    version: str = "v1"

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if self.eps0 < 0:
            raise ValueError("eps0 must be nonnegative")
        if self.version not in VERSIONS:
            raise ValueError(f"unknown objective version: {self.version!r}")


@dataclass
class OracleResult:
    """Exact objective value, exact gradient, the (n, K) matrix of averaged g,
    and the mean augmentation-consistency diagnostic from the same pass."""

    value: float
    grad: np.ndarray
    per_sample_g: np.ndarray
    eps_sq_mean: float


def _check_index(what: str, j: int, size: int) -> None:
    if not 0 <= j < size:
        raise IndexError(f"{what} index {j} out of range [0, {size})")


def g_minibatch(params, cfg: GlobalObjectiveConfig, i: int, aug_k: int,
                batch: MiniBatch, ds: Dataset, fam: AugmentationFamily) -> float:
    """In-batch averaged exp-similarity mass for anchor view (i, aug_k).

    Members are both augmented views of every batch slot with dataset index
    different from i (masking is by dataset index, which keeps the estimator
    unbiased for g_exact under uniform sampling).
    """
    _check_index("sample", i, ds.n)
    keep = batch.indices != i
    if not keep.any():
        raise ValueError(f"batch holds no negatives for sample {i}")
    pts = ds.points[batch.indices[keep]]
    anchor = apply_augmentation(fam, aug_k, ds.points[i])
    X = np.concatenate([anchor[None, :], pts + fam.deltas[batch.aug_a[keep]],
                        pts + fam.deltas[batch.aug_b[keep]]])
    E, _ = encoder.encode_batch(params, X)
    sims = E[1:] @ E[0]
    return float(np.mean(np.exp(sims / cfg.tau)))


def g_exact(params, cfg: GlobalObjectiveConfig, i: int, aug_k: int,
            ds: Dataset, fam: AugmentationFamily) -> float:
    """Exact averaged exp-similarity mass over all (n-1)*K negative views:
    entry [i, aug_k] of the oracle's per_sample_g, under the oracle's guard."""
    _check_index("sample", i, ds.n)
    _check_index("augmentation", aug_k, fam.K)
    *_, per_sample_g, _ = _oracle_core(params, cfg, ds, fam, want_grad=False)
    return float(per_sample_g[i, aug_k])


# Target size, in entries, of the row blocks epsilon is computed over:
# about 1 MiB of float64, so a block's deviations stay in cache.
_EPS_BLOCK = 1 << 17


def _similarities(params, ds: Dataset, fam: AugmentationFamily):
    """Embeddings of all n*K views, their forward cache, E transposed
    (contiguous), the n*K x n*K similarity matrix S, and a copy of its
    (n, K, K) own-view blocks. Refuses n*K above the enumeration guard."""
    nK = ds.n * fam.K
    if nK > ORACLE_GUARD:
        raise OracleSizeError(f"oracle enumeration needs n*K <= {ORACLE_GUARD}, got {nK}")
    E, cache = encoder.encode_batch(params, all_views(ds, fam))
    Et = np.ascontiguousarray(E.T)
    # Not E @ E.T: numpy sends that to syrk and then mirrors the triangle
    # element by element, several times slower than gemm at these sizes.
    S = E @ Et
    ar = np.arange(ds.n)
    own = S.reshape(ds.n, fam.K, ds.n, fam.K)[ar, :, ar, :]
    return E, Et, cache, S, own


def _dev_sq_sums(blocks: np.ndarray) -> np.ndarray:
    """Per leading index, the sum of squared deviations from the mean over
    axis 1 of a (c, K, cols) array."""
    dev = blocks - blocks.mean(axis=1, keepdims=True)
    return np.einsum("ikz,ikz->i", dev, dev)


def _eps_per_sample(S: np.ndarray, own: np.ndarray) -> np.ndarray:
    """aug_consistency_eps of every sample, read off S.

    Sample i's value is 2 * (population variance over k of S[(i, k), z])
    averaged over its (n - 1) * K negative columns z: the deviation sum over
    all columns minus that over its own block, taken over row blocks of
    whole samples.
    """
    n, K = own.shape[:2]
    nK = n * K
    step = max(1, _EPS_BLOCK // (K * nK))
    total = np.concatenate([_dev_sq_sums(S[a * K:(a + step) * K].reshape(-1, K, nK))
                            for a in range(0, n, step)])
    return 2.0 * (total - _dev_sq_sums(own)) / (K * (n - 1) * K)


def _oracle_core(params, cfg: GlobalObjectiveConfig, ds: Dataset,
                 fam: AugmentationFamily, want_grad: bool):
    """One pass over one S: alignment from the own blocks and epsilon from
    the raw similarities, then S is turned in place into the negative
    masses and (with want_grad) into the contrast weights W, so that the
    cotangent is (W + W.T) @ E minus the alignment block sums."""
    n, K = ds.n, fam.K
    nK = n * K
    E, Et, cache, S, own = _similarities(params, ds, fam)
    align = -own.sum() / (n * K * K)
    eps = float(np.mean(_eps_per_sample(S, own))) if want_grad else None

    S /= cfg.tau
    np.exp(S, out=S)
    ar = np.arange(n)
    S.reshape(n, K, n, K)[ar, :, ar, :] = 0.0
    set_size = (n - 1) * K
    gbar = S.sum(axis=1) / set_size                  # (nK,)
    per_sample_g = gbar.reshape(n, K)
    ubar = per_sample_g.mean(axis=1)                 # (n,)
    if cfg.version == "v1":
        contrast = cfg.tau * float(np.mean(np.log(cfg.eps0 + gbar)))
        denom_row = cfg.eps0 + gbar
    else:
        contrast = cfg.tau * float(np.mean(np.log(cfg.eps0 + ubar)))
        denom_row = np.repeat(cfg.eps0 + ubar, K)
    value = float(align + contrast)
    if not want_grad:
        return value, None, per_sample_g, None

    S *= (1.0 / (denom_row * (set_size * nK)))[:, None]
    # (W + W.T) @ E from two (m, nK) products: W.T @ E is about 3x slower.
    cot = (Et @ S + Et @ S.T).T
    block_sums = E.reshape(n, K, -1).sum(axis=1)
    cot -= np.repeat(block_sums * (2.0 / (n * K * K)), K, axis=0)
    grad = encoder.backward_batch(params, cache, cot)
    return value, grad, per_sample_g, eps


def oracle_F(params, cfg: GlobalObjectiveConfig, ds: Dataset,
             fam: AugmentationFamily) -> OracleResult:
    """Exact full-enumeration objective value and gradient.

    value = -(1/(n K^2)) sum_{i,k,k'} sim(e_ik, e_ik')
            + (1/n) sum_i  [ v1: (1/K) sum_k f(gbar_ik) | v2: f(mean_k gbar_ik) ]

    The alignment term averages over ordered view pairs including k = k'.
    Refuses instances with n*K above the enumeration guard.
    """
    value, grad, per_sample_g, eps = _oracle_core(params, cfg, ds, fam, want_grad=True)
    return OracleResult(value=value, grad=grad, per_sample_g=per_sample_g,
                        eps_sq_mean=eps)


def oracle_value(params, cfg: GlobalObjectiveConfig, ds: Dataset,
                 fam: AugmentationFamily) -> float:
    """Objective value only (cheaper path for finite-difference checks)."""
    value, _, _, _ = _oracle_core(params, cfg, ds, fam, want_grad=False)
    return value


def aug_consistency_eps(params, ds: Dataset, fam: AugmentationFamily, i: int) -> float:
    """Mean squared spread of sample i's view similarities against its negatives.

    Exact triple average over ordered view pairs (k, k') including k = k' and
    all members z of the negative set:
    (1/K^2) sum_{k,k'} (1/|S_i|) sum_z (sim(e_ik, z) - sim(e_ik', z))^2.
    Zero when K = 1 or all perturbations coincide.
    """
    _check_index("sample", i, ds.n)
    *_, S, own = _similarities(params, ds, fam)
    return float(_eps_per_sample(S, own)[i])


def aug_consistency_eps_mean(params, ds: Dataset, fam: AugmentationFamily) -> float:
    """Mean of aug_consistency_eps over all samples (one shared embedding pass)."""
    *_, S, own = _similarities(params, ds, fam)
    return float(np.mean(_eps_per_sample(S, own)))
