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

The batch kernel computes all 2B anchor views as one stacked block: gbar and
D are (2B,) vectors, with the first views' values in the first half.

The stored statistic after a sogclr step is (u1 + u2)/2, i.e.
u <- (1-gamma) u + gamma (gbar_a + gbar_b)/2. With gamma = 1 the fresh mode
reproduces the simclr denominators exactly, so sogclr(gamma=1, beta=1)
degenerates to simclr(beta=1) bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import encoder
from .embed_core import (AugmentationFamily, Dataset, MiniBatch, batch_views)
from .objective import GlobalObjectiveConfig

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

STEP_RULES = ("momentum", "adam_style")
U_LAG_MODES = ("fresh", "lagged")


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
        if not self.eta >= 0:
            raise ValueError("eta must be nonnegative")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")
        if not 0 < self.beta <= 1:
            raise ValueError("beta must lie in (0, 1]")
        if self.step_rule not in STEP_RULES:
            raise ValueError(f"unknown step rule: {self.step_rule!r}")
        if self.u_lag not in U_LAG_MODES:
            raise ValueError(f"unknown u_lag mode: {self.u_lag!r}")
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
    views stacked as first views then second views."""

    E: np.ndarray               # (2B, m)
    cache: object
    S: np.ndarray               # (2B, 2B) similarities
    P: np.ndarray               # (2B, 2B) exp(sim/tau) on member slots, else 0
    cnt: np.ndarray             # (2B,) member counts |B_t|
    gbar: np.ndarray            # (2B,) averaged in-batch masses


def _batch_stats(params, cfg: GlobalObjectiveConfig, batch: MiniBatch,
                 ds: Dataset, fam: AugmentationFamily) -> _BatchStats:
    B = batch.B
    E, cache = encoder.encode_batch(params, batch_views(ds, fam, batch))
    # Not the gemm form E @ ascontiguousarray(E.T): on OpenBLAS it differs from
    # this syrk form in the last bit for most 2B not a multiple of 8. Its 21 us
    # at 2B = 128 are not syrk's but numpy's mirror of the triangle at a 1 KiB
    # row stride, hitting the same L1 sets every row (ROADMAP item 3).
    S = E @ E.T
    idx = batch.indices
    member = idx[:, None] != idx[None, :]            # (B, B) slot mask
    half = member.sum(axis=1)
    if not half.all():
        bad = int(np.argmin(half))
        raise ValueError(f"batch slot {bad} has no negatives (all indices equal)")
    P = S / cfg.tau
    np.exp(P, out=P)
    blocks = P.reshape(2, B, 2, B)    # each (B, B) view block takes the slot mask
    blocks *= member[:, None, :]
    cnt = 2 * np.concatenate((half, half))
    return _BatchStats(E=E, cache=cache, S=S, P=P, cnt=cnt,
                       gbar=P.sum(axis=1) / cnt)


def _assemble_estimator(params, cfg, stats: _BatchStats,
                        denom: np.ndarray) -> np.ndarray:
    B = stats.cnt.shape[0] // 2
    C = stats.P / ((cfg.eps0 + denom)[:, None] * stats.cnt[:, None] * 2 * B)
    sl = np.arange(B)
    C[sl, B + sl] = -1.0 / B
    cot = (C + C.T) @ stats.E
    return encoder.backward_batch(params, stats.cache, cot)


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
    B = batch.B
    pos = stats.S[np.arange(B), B + np.arange(B)]
    f = cfg.tau * np.log(cfg.eps0 + stats.gbar)
    return float(np.mean(-pos + 0.5 * (f[:B] + f[B:])))


def simclr_step(state: OptimizerState, params, cfg: GlobalObjectiveConfig,
                batch: MiniBatch, ds: Dataset, fam: AugmentationFamily):
    """Apply the step rule (momentum; beta = 1 is the plain update) along the
    in-batch estimator."""
    est = simclr_estimator(params, cfg, batch, ds, fam)
    w = state.apply(encoder.flatten_params(params), est)
    return encoder.unflatten_params(params, w)


def _sogclr_denoms(state: OptimizerState, stats: _BatchStats, batch: MiniBatch):
    """Estimator denominators of the 2B anchor views and the post-update
    stored u values of the B slots."""
    B = batch.B
    u_prev = state.u[batch.indices]
    if state.u_lag == "fresh":
        # u1 (first views) and u2 (second views), stacked.
        denom = ((1.0 - state.gamma) * np.concatenate((u_prev, u_prev))
                 + state.gamma * stats.gbar)
        u_new = 0.5 * (denom[:B] + denom[B:])
    else:
        est = 0.5 * (stats.gbar[:B] + stats.gbar[B:])
        seeded = np.where(u_prev > 0, u_prev, est)   # cold entries take the batch estimate
        denom = np.concatenate((seeded, seeded))
        u_new = (1.0 - state.gamma) * seeded + state.gamma * est
    if (denom <= 0).any():
        raise NumericError("nonpositive u statistic at use time (update ordering bug)")
    return denom, u_new


def sogclr_update_u(state: OptimizerState, params, cfg: GlobalObjectiveConfig,
                    batch: MiniBatch, ds: Dataset, fam: AugmentationFamily) -> np.ndarray:
    """u_i <- (1-gamma) u_i + gamma (gbar_a + gbar_b)/2 for batch members only.

    Returns the new values in slot order and writes them into state.u. When a
    with-replacement batch repeats an index, the last slot's value wins.
    """
    stats = _batch_stats(params, cfg, batch, ds, fam)
    _, u_new = _sogclr_denoms(state, stats, batch)
    state.u[batch.indices] = u_new
    return u_new


def _surrogate_value(S: np.ndarray, W: np.ndarray, cnt: np.ndarray) -> float:
    B = cnt.shape[0] // 2
    sl = np.arange(B)
    neg = (W * S).sum(axis=1) / cnt
    return float(np.mean(-S[sl, B + sl] + 0.5 * (neg[:B] + neg[B:])))


def sogclr_estimator(state: OptimizerState, params, cfg: GlobalObjectiveConfig,
                     batch: MiniBatch, ds: Dataset,
                     fam: AugmentationFamily) -> StepReport:
    """Moving-average-corrected gradient estimate m_t. Does not mutate state."""
    stats = _batch_stats(params, cfg, batch, ds, fam)
    denom, u_new = _sogclr_denoms(state, stats, batch)
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
    denom, _ = _sogclr_denoms(state, stats, batch)
    W = stats.P / (cfg.eps0 + denom)[:, None]
    cnt = stats.cnt
    X = stats.cache.X
    value = _surrogate_value(stats.S, W, cnt)

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
    return encoder.unflatten_params(params, w)
