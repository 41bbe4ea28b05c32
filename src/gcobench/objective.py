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
and never holds it. Its bits do not depend on the number of threads. The
consistency diagnostic needs no S, only the m x m Gram matrix.
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


# Entries per row tile of S: 1 MiB of float64 stays in L2 across the tile's
# sweeps, and 2^17 was the fastest of 2^15..2^20 at n = 256, 1024 and 5000.
# Tiles hold whole samples, so one sample's tile exceeds it if K * n*K does.
_TILE_BUDGET = 1 << 17
# The most multiply-adds a BLAS call may do. OpenBLAS runs a product of
# fewer than 2^19 on the calling thread ((63 x 4)(4 x 2048) at CPU/wall 1.0)
# and spreads a larger one over threads of its own ((64 x 4)(4 x 2048) at
# 1.4-2), which then spin on the CPUs that the tile pool and a sweep's other
# cells use.
_BLAS_MADDS = (1 << 19) - 1


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


def _matmul(A: np.ndarray, B: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A @ B into out, in row chunks of at most _BLAS_MADDS multiply-adds
    unless 12 rows exceed that.

    Measured with OpenBLAS 0.3.31's SkylakeX kernels, a row keeps the bits
    it has in the whole product when every chunk starts at a multiple of 12
    rows and none is a single row, which numpy hands to gemv. So chunks
    start at multiples of 12 rows, and a last row on its own joins the chunk
    before it."""
    rows = len(A)
    step = 12 * max(1, _BLAS_MADDS // (12 * A.shape[1] * B.shape[1]))
    cuts = list(range(0, rows, step))
    if len(cuts) > 1 and rows - cuts[-1] == 1:
        cuts.pop()
    for a, b in zip(cuts, cuts[1:] + [rows]):
        np.matmul(A[a:b], B, out=out[a:b])
    return out


def _tile_pool() -> tuple[ThreadPoolExecutor, int]:
    if not _pool:
        workers = len(os.sched_getaffinity(0))
        _pool.append((ThreadPoolExecutor(workers), workers))
    return _pool[0]


def _oracle_core(params, cfg: GlobalObjectiveConfig, ds: Dataset,
                 fam: AugmentationFamily, want_grad: bool):
    """One pass over row tiles of S = E E^T that hold whole samples.

    Sample i's own block sums to |sum_k e_ik|^2, the alignment term. Each
    tile becomes its negative masses P = exp(S[rows] / tau), own blocks
    zeroed. The contrast weights are W = a * P for the row scale
    a = 1 / (denominator * |S_i| * n*K), row-local since a tile holds all K
    views of its samples, so the tile adds a * (P E) to its rows of the
    cotangent and P^T (a * E) to all rows: (W + W^T) E without forming W.

    Tiles run on the pool under the caller's numpy error state, two per worker
    in flight, and write only their rows of gbar and denom. The caller adds
    their cotangent terms in tile order: the same bits on any worker count.
    """
    n, K = ds.n, fam.K
    nK = n * K
    E, cache = _embeddings(params, ds, fam)
    Es = E / cfg.tau
    set_size = (n - 1) * K
    step = max(1, _TILE_BUDGET // (K * nK))       # samples per tile
    gbar, denom = np.empty(nK), np.empty(nK)

    def tile(a: int):
        c = min(step, n - a)
        rows = slice(a * K, (a + c) * K)
        buf = getattr(_local, "buf", None)
        if buf is None or buf.size < c * K * nK:
            buf = _local.buf = np.empty(c * K * nK)
        # Twice as fast here as against a contiguous E.T, and never syrk.
        P = _matmul(E[rows], Es.T, buf[:c * K * nK].reshape(c * K, nK))
        np.exp(P, out=P)
        P.reshape(c, K, n, K)[np.arange(c), :, np.arange(a, a + c), :] = 0.0
        gbar[rows] = g = P.sum(axis=1) / set_size
        if cfg.version == "v2":
            g = np.repeat(g.reshape(c, K).mean(axis=1), K)
        denom[rows] = cfg.eps0 + g
        if want_grad:
            scale = (1.0 / (denom[rows] * (set_size * nK)))[:, None]
            own = _matmul(P, E, np.empty((c * K, E.shape[1])))
            other = _matmul(P.T, scale * E[rows], np.empty_like(E))
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
    per_sample_g = gbar.reshape(n, K)
    value = float(align + cfg.tau * float(np.mean(np.log(denom))))
    if not want_grad:
        return value, None, per_sample_g, None

    cot -= np.repeat(block_sums * (2.0 / (n * K * K)), K, axis=0)
    grad = encoder.backward_batch(params, cache, cot)
    return value, grad, per_sample_g, float(np.mean(_consistency(E, K)))


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
    E, _ = _embeddings(params, ds, fam)
    return float(_consistency(E, fam.K)[i])


def aug_consistency_eps_mean(params, ds: Dataset, fam: AugmentationFamily) -> float:
    """Mean of aug_consistency_eps over all samples (one shared embedding pass)."""
    E, _ = _embeddings(params, ds, fam)
    return float(np.mean(_consistency(E, fam.K)))
