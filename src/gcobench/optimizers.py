"""Mini-batch optimizers: the plain and momentum in-batch estimators, and the
moving-average-corrected estimator with per-sample statistics u.

Batch estimator layout: a batch of B slots yields 2B embedded views (first
views then second views). For anchor view (slot t, view a) the in-batch
negative members are both views of every slot whose dataset index differs,
and the averaged in-batch mass is

  gbar_a[t] = (1/|B_t|) * sum_members exp(sim / tau).

The per-slot estimator term is

  -grad sim(positive pair)
  + 1/2 * [ tau/(eps0 + D_a[t]) * grad gbar_a[t] + tau/(eps0 + D_b[t]) * grad gbar_b[t] ]

averaged over slots, where the denominators D depend on the method:

  simclr:        D = the batch masses gbar themselves
  sogclr fresh:  D = per-view moving averages refreshed with this batch,
                 u1 = (1-gamma) u_prev + gamma gbar_a (and u2 likewise)
  sogclr lagged: D = u_prev for both views (cold entries seeded with the
                 first batch estimate so no division by zero occurs)

The batch kernel computes all 2B anchor views as one stacked block, with the
first views' values in the first half. OptimizerState.refresh, the u rule
this objective shares with the bimodal one, gives the sogclr D and the
stored statistic (u1 + u2)/2 = (1-gamma) u + gamma (gbar_a + gbar_b)/2. With
gamma = 1 the fresh mode reproduces the simclr denominators exactly, so
sogclr(gamma=1, beta=1) degenerates to simclr(beta=1) bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import encoder
from .embed_core import (AugmentationFamily, Dataset, MiniBatch, batch_views,
                         check_setting)
from .objective import GlobalObjectiveConfig

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

STEP_RULES = ("momentum", "adam_style")
U_LAG_MODES = ("fresh", "lagged")
# Entries per block of rows (256 KiB: 2B <= 128 is one) in the kernels' passes.
_BLOCK = 1 << 15


class NumericError(RuntimeError):
    """A step produced or consumed a non-finite or invalid numeric state."""


@dataclass
class OptimizerState:
    """Step size and rule, the buffers of the step rule over the flat
    parameter vector, and the per-sample moving averages u.

    u is empty for simclr, has shape (n,) for sogclr, and has shape (2, n)
    for the bimodal objective, whose rows are u_image and u_text.
    """

    eta: float
    beta: float = 0.9
    gamma: float = 0.8
    step_rule: str = "momentum"
    u_lag: str = "fresh"
    u: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    adam_m: np.ndarray | None = None
    adam_v: np.ndarray | None = None
    adam_t: int = 0

    def __post_init__(self):
        check_setting("eta", self.eta, ">= 0")
        check_setting("beta", self.beta, "(0, 1]")
        check_setting("gamma", self.gamma, "(0, 1]")
        check_setting("step_rule", self.step_rule, STEP_RULES)
        check_setting("u_lag", self.u_lag, U_LAG_MODES)
        u = np.asarray(self.u, dtype=float)
        if u.ndim not in (1, 2) or (u.ndim == 2 and u.shape[0] != 2):
            raise ValueError("u must have shape (n,) or (2, n)")
        if np.any(~np.isfinite(u)) or np.any(u < 0):
            raise ValueError("u entries must be finite and nonnegative")
        self.u = u
        if self.step_rule == "adam_style" and self.adam_m is None:
            self.adam_m = np.zeros_like(self.v)
            self.adam_v = np.zeros_like(self.v)

    @property
    def u_image(self) -> np.ndarray:
        return self.u[0]

    @property
    def u_text(self) -> np.ndarray:
        return self.u[1]

    def refresh(self, idx: np.ndarray, g: np.ndarray):
        """The u rule of both objectives for one batch, without storing.

        g is the (2, B) batch masses: a slot's two views, or a pair's image
        and text sides. Returns the (2, B) denominators and the u values to
        store at idx. Fresh divides by u' = (1-gamma) u + gamma g; lagged by
        u, cold (zero) entries seeded with the target g, blended in after.
        A shared u (ndim 1) stores the rows' average, and lagged averages g.
        """
        u_prev = self.u.take(idx, axis=-1)
        shared = self.u.ndim == 1
        if self.u_lag == "fresh":
            denom = (1.0 - self.gamma) * u_prev + self.gamma * g
            u_new = 0.5 * (denom[0] + denom[1]) if shared else denom
        else:
            target = 0.5 * (g[0] + g[1]) if shared else g
            seeded = np.where(u_prev > 0, u_prev, target)
            u_new = (1.0 - self.gamma) * seeded + self.gamma * target
            denom = np.array((seeded, seeded)) if shared else seeded
        if (denom <= 0).any():
            raise NumericError("nonpositive u statistic at use time")
        return denom, u_new

    def apply(self, w: np.ndarray, est: np.ndarray) -> np.ndarray:
        """One step of the configured rule from flat parameters w along the
        gradient estimate est; returns the new flat parameters."""
        _check_finite(est, "estimator")
        if self.step_rule == "momentum":
            # v <- (1-beta) v + beta est; beta = 1 is the plain update.
            self.v = (1.0 - self.beta) * self.v + self.beta * est
            w = w - self.eta * self.v
        else:
            # Bias-corrected moments on the estimator itself; the momentum
            # buffer is unused under this rule.
            self.adam_t += 1
            self.adam_m = ADAM_BETA1 * self.adam_m + (1.0 - ADAM_BETA1) * est
            self.adam_v = ADAM_BETA2 * self.adam_v + (1.0 - ADAM_BETA2) * est ** 2
            m_hat = self.adam_m / (1.0 - ADAM_BETA1 ** self.adam_t)
            v_hat = self.adam_v / (1.0 - ADAM_BETA2 ** self.adam_t)
            w = w - self.eta * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        _check_finite(w, "parameter vector")
        return w


def _check_finite(vec: np.ndarray, what: str) -> None:
    if not np.isfinite(vec).all():
        raise NumericError(f"non-finite {what}")


def make_simclr_state(d: int, eta: float, beta: float = 1.0) -> OptimizerState:
    """Momentum buffer for d parameters and no statistics."""
    return OptimizerState(eta=eta, beta=beta, v=np.zeros(d))


def make_sogclr_state(n: int, d: int, eta: float, gamma: float = 0.8,
                      beta: float = 0.9, step_rule: str = "momentum",
                      u_lag: str = "fresh") -> OptimizerState:
    """Zero-initialized statistics and buffers for n samples and d parameters."""
    return OptimizerState(eta=eta, beta=beta, gamma=gamma, step_rule=step_rule,
                          u_lag=u_lag, u=np.zeros(n), v=np.zeros(d))


@dataclass
class StepReport:
    """Estimator output of one batch: the gradient estimate m_t and the
    post-update u values of the batch members."""

    estimator: np.ndarray
    u_batch_values: np.ndarray


@dataclass
class _BatchStats:
    """Shared per-batch quantities for estimator assembly, over the 2B anchor
    views stacked as first views then second views. P, in S's buffer, is the
    only (2B, 2B) array, and _assemble_estimator overwrites it."""

    E: np.ndarray               # (2B, m)
    cache: object
    pos: np.ndarray             # (B,) positive-pair similarities
    P: np.ndarray               # (2B, 2B) exp(sim/tau) on member slots, else 0
    cnt: np.ndarray             # (2B,) member counts |B_t|
    gbar: np.ndarray            # (2, B) averaged in-batch masses


def _batch_stats(params, cfg: GlobalObjectiveConfig, batch: MiniBatch,
                 ds: Dataset, fam: AugmentationFamily) -> _BatchStats:
    B = batch.B
    E, cache = encoder.encode_batch(params, batch_views(ds, fam, batch))
    # S = E E^T is numpy's syrk call, not the gemm form E @ E.T.copy(), which
    # on OpenBLAS differs in the last bit for most 2B not a multiple of 8.
    # numpy mirrors syrk's triangle into S row by row, so S is exactly
    # symmetric. At a row stride that is a multiple of 256 B every row of
    # the mirror hits the same L1 sets (at 2B = 128, m = 4, one BLAS thread:
    # 28 us against 12 us padded), so S then gets a cache line of padding.
    n2 = 2 * B
    buf = np.empty((n2, n2 + 8 * (n2 % 32 == 0)))
    S = np.matmul(E, E.T, out=buf[:, :n2])
    idx = batch.indices
    member = idx[:, None] != idx[None, :]            # (B, B) slot mask
    half = member.sum(axis=1)
    if not half[0]:     # then no slot has any: all indices are equal
        raise ValueError("batch slot 0 has no negatives (all indices equal)")
    pos = S.diagonal(B).copy()
    # P, the (2B, 2B) view at the start of S's buffer, takes S / tau in row
    # blocks: a block never reaches a later block's rows of S (row i of P
    # starts no later than S's), and numpy buffers a block's own overlap.
    P = buf.reshape(-1)[:n2 * n2].reshape(n2, n2)
    step = _BLOCK // n2 or 1
    for r in range(0, n2, step):
        np.divide(S[r:r + step], cfg.tau, P[r:r + step])
    np.exp(P, P)
    # Each (B, B) view block takes the slot mask. Assigning 0.0, not
    # multiplying by the mask, keeps an overflowed masked entry out of gbar.
    np.copyto(P.reshape(2, B, 2, B), 0.0, where=~member[:, None, :])
    cnt = 2 * np.concatenate((half, half))
    return _BatchStats(E=E, cache=cache, pos=pos, P=P, cnt=cnt,
                       gbar=(np.add.reduce(P, 1) / cnt).reshape(2, B))


def _assemble_estimator(params, cfg, stats: _BatchStats,
                        denom: np.ndarray) -> np.ndarray:
    """The estimator for the (2, B) denominators denom: the cotangent
    (C + C^T) E, where C is P with row i divided by s_i and each positive
    entry (i, B + i) set to -1/B. P is exactly symmetric (S, exp and the slot
    mask are), so rows r:e of C^T are P[r:e] / s, and C^T is never read from
    C. Consumes stats.P: C + C^T is written over it in blocks of rows, and
    a block of C^T is the only other array."""
    B = stats.cnt.shape[0] // 2
    s = (cfg.eps0 + denom).reshape(-1) * stats.cnt * (2 * B)
    C = stats.P
    step = _BLOCK // (2 * B) or 1
    for r in range(0, 2 * B, step):
        Ct = C[r:r + step] / s
        C[r:r + step] /= s[r:r + step, None]
        C[r:r + step] += Ct
        del Ct      # so that two blocks of C^T are never alive at once
    # P is 0 at the positive entries. Row-major, (i, B + i) is flat entry
    # B + i(2B + 1) and (B + i, i) is 2B^2 + i(2B + 1): basic slices.
    C.reshape(-1)[B:2 * B * B:2 * B + 1] = -1.0 / B
    C.reshape(-1)[2 * B * B::2 * B + 1] = -1.0 / B
    return encoder.backward_batch(params, stats.cache, C @ stats.E)


def simclr_estimator(params, cfg: GlobalObjectiveConfig, batch: MiniBatch,
                     ds: Dataset, fam: AugmentationFamily) -> np.ndarray:
    """Symmetrized in-batch gradient estimate; the exact params-gradient of
    simclr_batch_loss."""
    stats = _batch_stats(params, cfg, batch, ds, fam)
    return _assemble_estimator(params, cfg, stats, stats.gbar)


def simclr_batch_loss(params, cfg: GlobalObjectiveConfig, batch: MiniBatch,
                      ds: Dataset, fam: AugmentationFamily) -> float:
    """Symmetrized averaged batch loss
    (1/B) sum_t [ -sim(pos_t) + 1/2 (f(gbar_a[t]) + f(gbar_b[t])) ]
    with f(g) = tau ln(eps0 + g)."""
    stats = _batch_stats(params, cfg, batch, ds, fam)
    f = cfg.tau * np.log(cfg.eps0 + stats.gbar)
    return float(np.mean(-stats.pos + 0.5 * (f[0] + f[1])))


def simclr_step(state: OptimizerState, params, cfg: GlobalObjectiveConfig,
                batch: MiniBatch, ds: Dataset, fam: AugmentationFamily):
    """Apply the step rule (momentum; beta = 1 is the plain update) along the
    in-batch estimator."""
    est = simclr_estimator(params, cfg, batch, ds, fam)
    w = state.apply(encoder.flatten_params(params), est)
    return encoder.step_params(params, w)


def sogclr_update_u(state: OptimizerState, params, cfg: GlobalObjectiveConfig,
                    batch: MiniBatch, ds: Dataset, fam: AugmentationFamily) -> np.ndarray:
    """u_i <- (1-gamma) u_i + gamma (gbar_a + gbar_b)/2 for batch members only.

    Returns the new values in slot order and writes them into state.u. When a
    with-replacement batch repeats an index, the last slot's value wins.
    """
    stats = _batch_stats(params, cfg, batch, ds, fam)
    _, u_new = state.refresh(batch.indices, stats.gbar)
    state.u[batch.indices] = u_new
    return u_new


def _surrogate_value(S: np.ndarray, W: np.ndarray, cnt: np.ndarray) -> float:
    """The surrogate at similarities S, which it overwrites with W * S."""
    B = cnt.shape[0] // 2
    pos = S.diagonal(B).copy()
    S *= W
    neg = S.sum(axis=1) / cnt
    return float(np.mean(-pos + 0.5 * (neg[:B] + neg[B:])))


def sogclr_estimator(state: OptimizerState, params, cfg: GlobalObjectiveConfig,
                     batch: MiniBatch, ds: Dataset,
                     fam: AugmentationFamily) -> StepReport:
    """Moving-average-corrected gradient estimate m_t. Does not mutate state."""
    stats = _batch_stats(params, cfg, batch, ds, fam)
    denom, u_new = state.refresh(batch.indices, stats.gbar)
    est = _assemble_estimator(params, cfg, stats, denom)
    return StepReport(estimator=est, u_batch_values=u_new)


def dcl_surrogate(state: OptimizerState, params, cfg: GlobalObjectiveConfig,
                  batch: MiniBatch, ds: Dataset, fam: AugmentationFamily):
    """Frozen-weight scalar surrogate loss.

    Returns (value, eval_fn). eval_fn re-evaluates the surrogate at other
    params while keeping the member weights p = exp(sim/tau)/(eps0 + u) frozen
    at their current values, so the params-gradient of eval_fn equals the
    estimator m_t of sogclr_estimator for the same state and batch.
    """
    stats = _batch_stats(params, cfg, batch, ds, fam)
    denom, _ = state.refresh(batch.indices, stats.gbar)
    W = stats.P
    W /= (cfg.eps0 + denom).reshape(-1, 1)
    cnt = stats.cnt
    X = stats.cache.X
    value = _surrogate_value(stats.E @ stats.E.T, W, cnt)

    def eval_fn(other_params) -> float:
        E2, _ = encoder.encode_batch(other_params, X)
        return _surrogate_value(E2 @ E2.T, W, cnt)

    return value, eval_fn


def sogclr_step(state: OptimizerState, params, cfg: GlobalObjectiveConfig,
                batch: MiniBatch, ds: Dataset, fam: AugmentationFamily):
    """Update u from this batch, form m_t, then apply the configured step rule."""
    report = sogclr_estimator(state, params, cfg, batch, ds, fam)
    state.u[batch.indices] = report.u_batch_values
    w = state.apply(encoder.flatten_params(params), report.estimator)
    return encoder.step_params(params, w)
