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

The exact oracle's time is quadratic in n*K, but its memory is linear: it
walks the n*K x n*K similarity matrix S in row tiles, one thread per CPU,
and never holds it. Each tile's products are single BLAS calls on the
thread that runs the tile, so its bits depend neither on the number of
CPUs nor on the BLAS thread setting; it refuses K * n*K * m >= 2^19, where
one sample's products would exceed that bound. The consistency diagnostic
needs no S, only the m x m Gram matrix.
"""

from __future__ import annotations

import contextvars
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import encoder
from .embed_core import (AugmentationFamily, Dataset, MiniBatch, all_views,
                         apply_augmentation, check_index, check_setting)

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
        check_setting("tau", self.tau, "> 0")
        check_setting("eps0", self.eps0, ">= 0")
        check_setting("version", self.version, VERSIONS)


@dataclass
class OracleResult:
    """Exact objective value, exact gradient, the (n, K) matrix of averaged g,
    and the mean augmentation-consistency diagnostic from the same pass."""

    value: float
    grad: np.ndarray
    per_sample_g: np.ndarray
    eps_sq_mean: float


def g_minibatch(params, cfg: GlobalObjectiveConfig, i: int, aug_k: int,
                batch: MiniBatch, ds: Dataset, fam: AugmentationFamily) -> float:
    """In-batch averaged exp-similarity mass for anchor view (i, aug_k).

    Members are both augmented views of every batch slot with dataset index
    different from i (masking is by dataset index, which keeps the estimator
    unbiased for g_exact under uniform sampling).
    """
    check_index("sample", i, ds.n)
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
    check_index("sample", i, ds.n)
    check_index("augmentation", aug_k, fam.K)
    _, gbar, _, _ = _oracle_core(params, cfg, ds, fam, want_grad=False)
    return float(gbar[i * fam.K + aug_k])


# The most multiply-adds in each of a row tile's three products,
# E[rows] Es^T, P E and P^T (a * E), at K*n*K*m per sample. OpenBLAS runs a
# product of fewer than 2^19 on the calling thread ((63 x 4)(4 x 2048) at
# CPU/wall 1.0) and splits a larger one over threads of its own (1.4-2 at
# 64 rows), which spin on the CPUs the tile pool and a sweep's other cells
# use and change the bits. At m = 4 a tile of S is about 1 MiB and stays in
# L2 (2^17 entries was the fastest of 2^15..2^20 at n = 256, 1024 and 5000).
# Tiles hold whole samples, so one sample's tile would exceed the cap once
# K*n*K*m reaches TILE_GUARD; the oracle refuses such sizes.
TILE_GUARD = 1 << 19
_TILE_MADDS = TILE_GUARD - 1


def _embeddings(params, ds: Dataset, fam: AugmentationFamily):
    """All n*K view embeddings and their forward cache, under the guard."""
    nK = ds.n * fam.K
    if nK > ORACLE_GUARD:
        raise OracleSizeError(f"oracle enumeration needs n*K <= {ORACLE_GUARD}, got {nK}")
    return encoder.encode_batch(params, all_views(ds, fam))


def _consistency(E: np.ndarray, K: int) -> np.ndarray:
    """aug_consistency_eps of every sample, from the m x m Gram matrix.

    With d_ik = e_ik - mean_k e_ik, sample i's squared deviations over all
    columns z of S are sum_k d_ik^T (E^T E) d_ik = sum_k |R d_ik|^2 for
    E = QR, less those over its own K columns. Taking d before any product,
    and the form as a sum of squares, keeps nearby views' small spread from
    cancelling against the similarities."""
    V = E.reshape(-1, K, E.shape[1])
    D = V - V.mean(axis=1, keepdims=True)
    DR = D @ np.linalg.qr(E, mode="r").T
    own = D @ V.transpose(0, 2, 1)
    dev = np.einsum("ikr,ikr->i", DR, DR) - np.einsum("ikl,ikl->i", own, own)
    # A sum of squares over the negatives; rounding may leave it just below 0.
    return 2.0 * np.maximum(dev, 0.0) / (K * (len(V) - 1) * K)


# This process's tile pool (executor, workers), one worker per CPU, made on
# first use. A forked child drops its copy, which has no threads behind it.
_pool = []
os.register_at_fork(after_in_child=_pool.clear)
# Each worker's tile buffer: fresh tiles would pile up in its malloc arena.
_local = threading.local()


def _tile_pool() -> tuple[ThreadPoolExecutor, int]:
    if not _pool:
        workers = len(os.sched_getaffinity(0))
        _pool.append((ThreadPoolExecutor(workers), workers))
    return _pool[0]


def _oracle_core(params, cfg: GlobalObjectiveConfig, ds: Dataset,
                 fam: AugmentationFamily, want_grad: bool):
    """One pass over row tiles of S = E E^T that hold whole samples, as many
    as keep each of the tile's three products one BLAS call of at most
    _TILE_MADDS multiply-adds.

    Sample i's own block sums to |sum_k e_ik|^2, the alignment term. Each
    tile becomes its negative masses P = exp(S[rows] / tau), own blocks
    zeroed. The contrast weights are W = a * P for the row scale
    a = 1 / (denominator * |S_i| * n*K), row-local since a tile holds all K
    views of its samples, so the tile adds a * (P E) to its rows of the
    cotangent and P^T (a * E) to all rows: (W + W^T) E without forming W.

    Tiles run on the pool under the caller's numpy error state, two per worker
    in flight, and write only their rows of gbar. The caller adds their
    cotangent terms in tile order: the same bits on any worker count.

    Refuses sizes where one sample's tile would exceed the bound.
    Returns the alignment term, gbar (n*K,), and with want_grad the gradient
    and the mean consistency diagnostic. Neither align nor gbar depends on
    the version or eps0, so one value-only pass serves every _value of a tau.
    """
    n, K = ds.n, fam.K
    nK = n * K
    if K * nK * params.m >= TILE_GUARD:
        raise OracleSizeError(f"oracle tiles need K * n*K * m < {TILE_GUARD}, "
                              f"got {K * nK * params.m}")
    E, cache = _embeddings(params, ds, fam)
    Es = E / cfg.tau
    set_size = (n - 1) * K
    step = max(1, _TILE_MADDS // (K * nK * E.shape[1]))  # samples per tile
    gbar = np.empty(nK)

    def tile(a: int):
        c = min(step, n - a)
        rows = slice(a * K, (a + c) * K)
        buf = getattr(_local, "buf", None)
        if buf is None or buf.size < c * K * nK:
            buf = _local.buf = np.empty(c * K * nK)
        # Twice as fast here as against a contiguous E.T, and never syrk.
        P = np.matmul(E[rows], Es.T, out=buf[:c * K * nK].reshape(c * K, nK))
        np.exp(P, out=P)
        P.reshape(c, K, n, K)[np.arange(c), :, np.arange(a, a + c), :] = 0.0
        gbar[rows] = g = P.sum(axis=1) / set_size
        if want_grad:
            scale = (1.0 / (_denominator(cfg, g, K) * (set_size * nK)))[:, None]
            own = np.matmul(P, E)
            other = np.matmul(P.T, scale * E[rows])
            return rows, scale * own, other

    pool, workers = _tile_pool()
    pending = deque()
    cot = np.zeros_like(E) if want_grad else None
    try:
        for a in range(0, n, step):
            pending.append(pool.submit(contextvars.copy_context().run, tile, a))
            while pending and (len(pending) == 2 * workers or a + step >= n):
                terms = pending.popleft().result()
                if want_grad:
                    rows, own, other = terms
                    cot[rows] += own
                    cot += other
    finally:
        for left in pending:
            left.cancel()

    block_sums = E.reshape(n, K, -1).sum(axis=1)
    align = -float(np.einsum("im,im->", block_sums, block_sums)) / (n * K * K)
    if not want_grad:
        return align, gbar, None, None

    cot -= np.repeat(block_sums * (2.0 / (n * K * K)), K, axis=0)
    grad = encoder.backward_batch(params, cache, cot)
    return align, gbar, grad, float(np.mean(_consistency(E, K)))


def _denominator(cfg: GlobalObjectiveConfig, g: np.ndarray,
                 K: int) -> np.ndarray:
    """eps0 + g for rows g of whole samples' views; v2 takes each sample's
    mean of g over its K views. The means are row-wise, so a tile's rows get
    the same bits as the whole array's."""
    if cfg.version == "v2":
        g = np.repeat(g.reshape(-1, K).mean(axis=1), K)
    return cfg.eps0 + g


def _value(cfg: GlobalObjectiveConfig, align: float, gbar: np.ndarray,
           K: int) -> float:
    """The objective value from _oracle_core's alignment term and masses."""
    logs = np.log(_denominator(cfg, gbar, K))
    return float(align + cfg.tau * float(np.mean(logs)))


def oracle_F(params, cfg: GlobalObjectiveConfig, ds: Dataset,
             fam: AugmentationFamily) -> OracleResult:
    """Exact full-enumeration objective value and gradient.

    value = -(1/(n K^2)) sum_{i,k,k'} sim(e_ik, e_ik')
            + (1/n) sum_i  [ v1: (1/K) sum_k f(gbar_ik) | v2: f(mean_k gbar_ik) ]

    The alignment term averages over ordered view pairs including k = k'.
    Refuses instances with n*K above the enumeration guard.
    """
    align, gbar, grad, eps = _oracle_core(params, cfg, ds, fam, want_grad=True)
    return OracleResult(value=_value(cfg, align, gbar, fam.K), grad=grad,
                        per_sample_g=gbar.reshape(ds.n, fam.K), eps_sq_mean=eps)


def oracle_value(params, cfg: GlobalObjectiveConfig, ds: Dataset,
                 fam: AugmentationFamily) -> float:
    """Objective value only (cheaper path for finite-difference checks)."""
    return float(_oracle_values(params, (cfg,), ds, fam)[0])


def _oracle_values(params, cfgs, ds: Dataset,
                   fam: AugmentationFamily) -> np.ndarray:
    """oracle_value of each config in cfgs, which share one tau, read off one
    value-only pass."""
    align, gbar, _, _ = _oracle_core(params, cfgs[0], ds, fam, want_grad=False)
    return np.array([_value(cfg, align, gbar, fam.K) for cfg in cfgs])


def aug_consistency_eps(params, ds: Dataset, fam: AugmentationFamily, i: int) -> float:
    """Mean squared spread of sample i's view similarities against its negatives.

    Exact triple average over ordered view pairs (k, k') including k = k' and
    all members z of the negative set:
    (1/K^2) sum_{k,k'} (1/|S_i|) sum_z (sim(e_ik, z) - sim(e_ik', z))^2.
    Zero when K = 1 or all perturbations coincide.
    """
    check_index("sample", i, ds.n)
    E, _ = _embeddings(params, ds, fam)
    return float(_consistency(E, fam.K)[i])


def aug_consistency_eps_mean(params, ds: Dataset, fam: AugmentationFamily) -> float:
    """Mean of aug_consistency_eps over all samples (one shared embedding pass)."""
    E, _ = _embeddings(params, ds, fam)
    return float(np.mean(_consistency(E, fam.K)))
