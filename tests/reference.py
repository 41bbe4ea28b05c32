"""Reference implementations kept verbatim from earlier versions of the
package, as yardsticks for the code that replaced them.

- The enumeration oracle and the augmentation-consistency diagnostic from
  before they were fused into one pass over one similarity matrix. They are
  deliberately slow and wasteful (two encodes, a boolean n*K x n*K mask, a
  per-sample loop).
- The three optimizer state classes and three step functions (with the
  two-way statistics update and estimator they call) from before they were
  folded into one OptimizerState and one step rule. A two-way step here
  encodes its batch twice, or three times on a cold lagged step.
- The simclr and sogclr batch kernel (statistics, denominators, estimator
  assembly, the two estimators, batch_views and encode_batch) from before
  it was computed as one stacked block over the 2B anchor views. Here the
  first-view and second-view anchors are two halves, and S = E @ E.T.
  The one edit is that _batch_stats calls the encode_batch copied here.
- The one-shot mini-batch sampler from before it drew through a fresh
  MinibatchSampler, and the two per-pair global losses that average to
  the enumeration oracle's value, with the g_exact they call from before
  it was read off the oracle's pass.
- The augmentation-consistency diagnostic in exact rational arithmetic on
  the float64 embeddings, straight from its definition, as the yardstick
  for its rounding error when the views of a sample nearly coincide.
- The tiled oracle from before its row tiles ran on a thread pool: one
  serial loop over the tiles, adding each tile's cotangent terms as it
  goes, with its tile budget. Renamed to serial_tile_core.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from gcobench import encoder
from gcobench.bimodal import (PairedDataset, _paired_stats, flat_to_pair,
                              pair_to_flat)
from gcobench.embed_core import (SAMPLING_MODES, AugmentationFamily, Dataset,
                                 MiniBatch, all_views, apply_augmentation)
from gcobench.encoder import (DegenerateEmbeddingError, EncoderParams,
                              ForwardCache)
from gcobench.objective import (ORACLE_GUARD, GlobalObjectiveConfig,
                                OracleSizeError, _consistency, _embeddings)
from gcobench.optimizers import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, STEP_RULES,
                                 U_LAG_MODES, NumericError, OptimizerState,
                                 StepReport, _check_finite)


def _oracle_core(params, cfg: GlobalObjectiveConfig, ds: Dataset,
                 fam: AugmentationFamily, want_grad: bool):
    n, K = ds.n, fam.K
    if n * K > ORACLE_GUARD:
        raise OracleSizeError(f"oracle enumeration needs n*K <= {ORACLE_GUARD}, got {n * K}")
    X = all_views(ds, fam)
    E, cache = encoder.encode_batch(params, X)
    S = E @ E.T
    block = np.repeat(np.arange(n), K)
    same = block[:, None] == block[None, :]
    neg_exp = np.where(same, 0.0, np.exp(S / cfg.tau))
    set_size = (n - 1) * K
    gbar = neg_exp.sum(axis=1) / set_size            # (nK,)
    per_sample_g = gbar.reshape(n, K)
    ubar = per_sample_g.mean(axis=1)                 # (n,)

    align = -(S * same).sum() / (n * K * K)
    if cfg.version == "v1":
        contrast = cfg.tau * float(np.mean(np.log(cfg.eps0 + gbar)))
        denom_row = cfg.eps0 + gbar
    else:
        contrast = cfg.tau * float(np.mean(np.log(cfg.eps0 + ubar)))
        denom_row = cfg.eps0 + ubar[block]
    value = float(align + contrast)
    if not want_grad:
        return value, None, per_sample_g

    C = np.where(same, -1.0 / (n * K * K), 0.0)
    C += neg_exp / (denom_row[:, None] * set_size * n * K)
    cot = (C + C.T) @ E
    grad = encoder.backward_batch(params, cache, cot)
    return value, grad, per_sample_g


def aug_consistency_eps_mean(params, ds: Dataset, fam: AugmentationFamily) -> float:
    """Mean of aug_consistency_eps over all samples (one shared embedding pass)."""
    X = all_views(ds, fam)
    E, _ = encoder.encode_batch(params, X)
    n, K = ds.n, fam.K
    S = E @ E.T
    total = 0.0
    for i in range(n):
        rows = S[i * K:(i + 1) * K]
        mask = np.ones(n * K, dtype=bool)
        mask[i * K:(i + 1) * K] = False
        total += float(np.mean(2.0 * rows[:, mask].var(axis=0)))
    return total / n


def batch_views(ds: Dataset, fam: AugmentationFamily, batch: MiniBatch) -> np.ndarray:
    """The 2B batch view rows: first all first views, then all second views."""
    pts = ds.points[batch.indices]
    va = pts + fam.deltas[batch.aug_a]
    vb = pts + fam.deltas[batch.aug_b]
    return np.concatenate([va, vb], axis=0)


def encode_batch(params: EncoderParams, X: np.ndarray):
    """Encode N input rows; returns (E, cache) with unit-norm rows in E."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if params.architecture == "linear":
        H = None
        raw = X @ params.W1.T
    else:
        H = np.tanh(X @ params.W1.T)
        raw = H @ params.W2.T
    with np.errstate(over="ignore"):    # an overflowing norm is reported below
        norms = np.linalg.norm(raw, axis=1)
    # min and max propagate NaN, so this also rejects NaN norms.
    if not (norms.min() >= 1e-12 and norms.max() < np.inf):
        finite = np.isfinite(norms)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise DegenerateEmbeddingError(
                f"pre-normalization norm is not finite (row {bad}, norm {norms[bad]})")
        bad = int(np.argmin(norms))
        raise DegenerateEmbeddingError(
            f"pre-normalization output collapsed (row {bad}, norm {norms[bad]:.3e})")
    E = raw / norms[:, None]
    return E, ForwardCache(X=X, H=H, norms=norms, E=E)


@dataclass
class _BatchStats:
    """Shared per-batch quantities for estimator assembly."""

    E: np.ndarray               # (2B, m)
    cache: object
    S: np.ndarray               # (2B, 2B) similarities
    EA: np.ndarray              # (B, 2B) masked exp(sim/tau), first-view anchors
    EB: np.ndarray              # (B, 2B) same for second-view anchors
    cnt: np.ndarray             # (B,) member counts |B_t|
    gbar_a: np.ndarray          # (B,)
    gbar_b: np.ndarray          # (B,)
    X: np.ndarray               # (2B, d_in) view rows


def _batch_stats(params, cfg: GlobalObjectiveConfig, batch: MiniBatch,
                 ds: Dataset, fam: AugmentationFamily) -> _BatchStats:
    B = batch.B
    X = batch_views(ds, fam, batch)
    E, cache = encode_batch(params, X)   # the copy above, not the package's
    S = E @ E.T
    idx = batch.indices
    member = idx[:, None] != idx[None, :]            # (B, B) slot mask
    M = np.concatenate([member, member], axis=1)     # (B, 2B)
    cnt = M.sum(axis=1)
    if np.any(cnt == 0):
        bad = int(np.argmin(cnt))
        raise ValueError(f"batch slot {bad} has no negatives (all indices equal)")
    expS = np.exp(S / cfg.tau)
    EA = expS[:B] * M
    EB = expS[B:] * M
    gbar_a = EA.sum(axis=1) / cnt
    gbar_b = EB.sum(axis=1) / cnt
    return _BatchStats(E=E, cache=cache, S=S, EA=EA, EB=EB, cnt=cnt,
                       gbar_a=gbar_a, gbar_b=gbar_b, X=X)


def _assemble_estimator(params, cfg, stats: _BatchStats,
                        denom_a: np.ndarray, denom_b: np.ndarray) -> np.ndarray:
    B = stats.cnt.shape[0]
    C = np.zeros((2 * B, 2 * B))
    sl = np.arange(B)
    C[sl, B + sl] = -1.0 / B
    C[:B] += stats.EA / ((cfg.eps0 + denom_a)[:, None] * stats.cnt[:, None] * 2 * B)
    C[B:] += stats.EB / ((cfg.eps0 + denom_b)[:, None] * stats.cnt[:, None] * 2 * B)
    cot = (C + C.T) @ stats.E
    return encoder.backward_batch(params, stats.cache, cot)


def simclr_estimator(params, cfg: GlobalObjectiveConfig, batch: MiniBatch,
                     ds: Dataset, fam: AugmentationFamily) -> np.ndarray:
    """Symmetrized in-batch gradient estimate; the exact params-gradient of
    simclr_batch_loss."""
    stats = _batch_stats(params, cfg, batch, ds, fam)
    return _assemble_estimator(params, cfg, stats, stats.gbar_a, stats.gbar_b)


def _sogclr_denoms(state: OptimizerState, stats: _BatchStats, batch: MiniBatch):
    """Per-view estimator denominators and the post-update stored u values."""
    u_prev = state.u[batch.indices]
    est = 0.5 * (stats.gbar_a + stats.gbar_b)
    if state.u_lag == "fresh":
        u1 = (1.0 - state.gamma) * u_prev + state.gamma * stats.gbar_a
        u2 = (1.0 - state.gamma) * u_prev + state.gamma * stats.gbar_b
        denom_a, denom_b = u1, u2
        u_new = 0.5 * (u1 + u2)
    else:
        seeded = np.where(u_prev > 0, u_prev, est)   # cold entries take the batch estimate
        denom_a = denom_b = seeded
        u_new = (1.0 - state.gamma) * seeded + state.gamma * est
    if np.any(denom_a <= 0) or np.any(denom_b <= 0):
        raise NumericError("nonpositive u statistic at use time (update ordering bug)")
    return denom_a, denom_b, u_new


def sogclr_estimator(state: OptimizerState, params, cfg: GlobalObjectiveConfig,
                     batch: MiniBatch, ds: Dataset,
                     fam: AugmentationFamily) -> StepReport:
    """Moving-average-corrected gradient estimate m_t. Does not mutate state."""
    stats = _batch_stats(params, cfg, batch, ds, fam)
    denom_a, denom_b, u_new = _sogclr_denoms(state, stats, batch)
    est = _assemble_estimator(params, cfg, stats, denom_a, denom_b)
    return StepReport(estimator=est, u_batch_values=u_new)


@dataclass
class SimclrState:
    """Step size, momentum coefficient, and the momentum buffer."""

    eta: float
    beta: float = 1.0
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        if not self.eta >= 0:
            raise ValueError("eta must be nonnegative")
        if not 0 < self.beta <= 1:
            raise ValueError("beta must lie in (0, 1]")


def make_simclr_state(d: int, eta: float, beta: float = 1.0) -> SimclrState:
    return SimclrState(eta=eta, beta=beta, v=np.zeros(d))


@dataclass
class SogclrState:
    """Per-sample moving averages u plus the shared step machinery."""

    u: np.ndarray
    eta: float
    gamma: float = 0.8
    beta: float = 0.9
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    step_rule: str = "momentum"
    u_lag: str = "fresh"
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
        if np.any(~np.isfinite(u)) or np.any(u < 0):
            raise ValueError("u entries must be finite and nonnegative")
        self.u = u


def make_sogclr_state(n: int, d: int, eta: float, gamma: float = 0.8,
                      beta: float = 0.9, step_rule: str = "momentum",
                      u_lag: str = "fresh") -> SogclrState:
    """Zero-initialized statistics and buffers for n samples and d parameters."""
    state = SogclrState(u=np.zeros(n), eta=eta, gamma=gamma, beta=beta,
                        v=np.zeros(d), step_rule=step_rule, u_lag=u_lag)
    if step_rule == "adam_style":
        state.adam_m = np.zeros(d)
        state.adam_v = np.zeros(d)
    return state


def simclr_step(state: SimclrState, params, cfg: GlobalObjectiveConfig,
                batch: MiniBatch, ds: Dataset, fam: AugmentationFamily):
    """v <- (1-beta) v + beta estimator; w <- w - eta v. beta = 1 is the plain update."""
    est = simclr_estimator(params, cfg, batch, ds, fam)
    _check_finite(est, "simclr estimator")
    state.v = (1.0 - state.beta) * state.v + state.beta * est
    w = encoder.flatten_params(params) - state.eta * state.v
    return encoder.unflatten_params(params, w)


def sogclr_step(state: SogclrState, params, cfg: GlobalObjectiveConfig,
                batch: MiniBatch, ds: Dataset, fam: AugmentationFamily):
    """Update u from this batch, form m_t, then apply the configured step rule."""
    report = sogclr_estimator(state, params, cfg, batch, ds, fam)
    state.u[batch.indices] = report.u_batch_values
    est = report.estimator
    _check_finite(est, "sogclr estimator")
    w = encoder.flatten_params(params)
    if state.step_rule == "momentum":
        state.v = (1.0 - state.beta) * state.v + state.beta * est
        w = w - state.eta * state.v
    else:
        # Bias-corrected moments on the estimator itself; the momentum buffer
        # is unused under this rule.
        state.adam_t += 1
        state.adam_m = ADAM_BETA1 * state.adam_m + (1.0 - ADAM_BETA1) * est
        state.adam_v = ADAM_BETA2 * state.adam_v + (1.0 - ADAM_BETA2) * est ** 2
        m_hat = state.adam_m / (1.0 - ADAM_BETA1 ** state.adam_t)
        v_hat = state.adam_v / (1.0 - ADAM_BETA2 ** state.adam_t)
        w = w - state.eta * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    _check_finite(w, "parameter vector")
    return encoder.unflatten_params(params, w)


@dataclass
class BimodalState:
    """Dual per-sample statistics plus the shared step machinery. The
    momentum buffer v spans the concatenated (image, text) parameters."""

    u_image: np.ndarray
    u_text: np.ndarray
    eta: float
    gamma: float = 0.8
    beta: float = 0.9
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    step_rule: str = "momentum"
    u_lag: str = "fresh"
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
        for name in ("u_image", "u_text"):
            u = np.asarray(getattr(self, name), dtype=float)
            if np.any(~np.isfinite(u)) or np.any(u < 0):
                raise ValueError(f"{name} entries must be finite and nonnegative")
            setattr(self, name, u)
        if self.u_image.shape != self.u_text.shape:
            raise ValueError("u_image and u_text must have the same length")


def make_bimodal_state(n: int, d: int, eta: float, gamma: float = 0.8,
                       beta: float = 0.9, step_rule: str = "momentum",
                       u_lag: str = "fresh") -> BimodalState:
    """Zero-initialized statistics for n pairs and d = d_image + d_text
    concatenated parameters."""
    state = BimodalState(u_image=np.zeros(n), u_text=np.zeros(n), eta=eta,
                         gamma=gamma, beta=beta, v=np.zeros(d),
                         step_rule=step_rule, u_lag=u_lag)
    if step_rule == "adam_style":
        state.adam_m = np.zeros(d)
        state.adam_v = np.zeros(d)
    return state


def _batch_indices(indices) -> np.ndarray:
    idx = np.asarray(indices, dtype=int)
    if idx.ndim != 1 or idx.shape[0] < 2:
        raise ValueError("a bimodal batch needs at least 2 indices")
    return idx


def twoway_update_u(state: BimodalState, params_image, params_text,
                    cfg: GlobalObjectiveConfig, indices,
                    ds: PairedDataset) -> tuple[np.ndarray, np.ndarray]:
    """u_i <- (1-gamma) u_i + gamma gbar(batch) on both sides, batch entries
    only. Returns the new (u_image, u_text) values in slot order."""
    idx = _batch_indices(indices)
    stats = _paired_stats(params_image, params_text, cfg,
                          ds.image[idx], ds.text[idx])
    u_i = (1.0 - state.gamma) * state.u_image[idx] + state.gamma * stats.g_image
    u_t = (1.0 - state.gamma) * state.u_text[idx] + state.gamma * stats.g_text
    state.u_image[idx] = u_i
    state.u_text[idx] = u_t
    return u_i, u_t


def twoway_estimator(state: BimodalState, params_image, params_text,
                     cfg: GlobalObjectiveConfig, indices,
                     ds: PairedDataset) -> np.ndarray:
    """Gradient estimate over concatenated (image, text) parameters, using the
    statistics exactly as stored in state."""
    idx = _batch_indices(indices)
    B = idx.shape[0]
    u_i = state.u_image[idx]
    u_t = state.u_text[idx]
    if np.any(u_i <= 0) or np.any(u_t <= 0):
        raise NumericError("nonpositive u statistic at use time "
                           "(update u before estimating)")
    stats = _paired_stats(params_image, params_text, cfg,
                          ds.image[idx], ds.text[idx])
    C = stats.expS / B ** 2 * (1.0 / (cfg.eps0 + u_i)[:, None]
                               + 1.0 / (cfg.eps0 + u_t)[None, :])
    sl = np.arange(B)
    C[sl, sl] -= 2.0 / B
    grad_i = encoder.backward_batch(params_image, stats.cache_image,
                                    C @ stats.ET)
    grad_t = encoder.backward_batch(params_text, stats.cache_text,
                                    C.T @ stats.EI)
    return np.concatenate([grad_i, grad_t])


def twoway_step(state: BimodalState, params_image, params_text,
                cfg: GlobalObjectiveConfig, indices, ds: PairedDataset):
    """One optimizer step over both parameter blocks jointly.

    Fresh mode refreshes u from this batch before forming the estimator;
    lagged mode estimates with the previous u (seeding zero entries with the
    current batch masses so the first step is well defined) and refreshes
    afterwards.
    """
    idx = _batch_indices(indices)
    if state.u_lag == "fresh":
        twoway_update_u(state, params_image, params_text, cfg, idx, ds)
        est = twoway_estimator(state, params_image, params_text, cfg, idx, ds)
    else:
        cold_i = state.u_image[idx] == 0
        cold_t = state.u_text[idx] == 0
        if cold_i.any() or cold_t.any():
            stats = _paired_stats(params_image, params_text, cfg,
                                  ds.image[idx], ds.text[idx])
            ui = state.u_image[idx]
            ut = state.u_text[idx]
            state.u_image[idx] = np.where(cold_i, stats.g_image, ui)
            state.u_text[idx] = np.where(cold_t, stats.g_text, ut)
        est = twoway_estimator(state, params_image, params_text, cfg, idx, ds)
        twoway_update_u(state, params_image, params_text, cfg, idx, ds)
    if not np.isfinite(est).all():
        raise NumericError("non-finite two-way estimator")
    w = pair_to_flat(params_image, params_text)
    if state.step_rule == "momentum":
        state.v = (1.0 - state.beta) * state.v + state.beta * est
        w = w - state.eta * state.v
    else:
        state.adam_t += 1
        state.adam_m = ADAM_BETA1 * state.adam_m + (1.0 - ADAM_BETA1) * est
        state.adam_v = ADAM_BETA2 * state.adam_v + (1.0 - ADAM_BETA2) * est ** 2
        m_hat = state.adam_m / (1.0 - ADAM_BETA1 ** state.adam_t)
        v_hat = state.adam_v / (1.0 - ADAM_BETA2 ** state.adam_t)
        w = w - state.eta * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    if not np.isfinite(w).all():
        raise NumericError("non-finite parameter vector")
    return flat_to_pair(params_image, params_text, w)


def sample_minibatch(ds: Dataset, fam: AugmentationFamily, B: int,
                     rng: np.random.Generator,
                     mode: str = "epoch_shuffle") -> MiniBatch:
    """Draw a single mini-batch.

    epoch_shuffle takes the first B entries of a fresh permutation (B = n gives
    a full permutation). The two augmentation choices per index are independent
    uniform draws and may coincide. Reproducible given the generator state.
    """
    if mode not in SAMPLING_MODES:
        raise ValueError(f"unknown sampling mode: {mode!r}")
    if B < 2:
        raise ValueError("batch size must be at least 2 (no negatives otherwise)")
    if mode == "epoch_shuffle":
        if B > ds.n:
            raise ValueError(f"epoch_shuffle needs B <= n, got B={B}, n={ds.n}")
        idx = rng.permutation(ds.n)[:B]
    else:
        idx = rng.integers(0, ds.n, size=B)
    aug_a = rng.integers(0, fam.K, size=B)
    aug_b = rng.integers(0, fam.K, size=B)
    return MiniBatch(indices=idx, aug_a=aug_a, aug_b=aug_b)


def g_exact(params, cfg: GlobalObjectiveConfig, i: int, aug_k: int,
            ds: Dataset, fam: AugmentationFamily) -> float:
    """Exact averaged exp-similarity mass over all (n-1)*K negative views."""
    X = all_views(ds, fam)
    E, _ = encoder.encode_batch(params, X)
    anchor = E[i * fam.K + aug_k]
    sims = E @ anchor
    block = np.zeros(ds.n * fam.K, dtype=bool)
    block[i * fam.K:(i + 1) * fam.K] = True
    return float(np.mean(np.exp(sims[~block] / cfg.tau)))


def global_loss_v1(params, cfg: GlobalObjectiveConfig, i: int, aug_a: int, aug_b: int,
                   ds: Dataset, fam: AugmentationFamily) -> float:
    """Tau-scaled per-pair global loss with the augmentation average outside the log."""
    va = apply_augmentation(fam, aug_a, ds.points[i])
    vb = apply_augmentation(fam, aug_b, ds.points[i])
    E, _ = encoder.encode_batch(params, np.stack([va, vb]))
    pos = float(E[0] @ E[1])
    g = g_exact(params, cfg, i, aug_a, ds, fam)
    return -pos + cfg.tau * float(np.log(cfg.eps0 + g))


def global_loss_v2(params, cfg: GlobalObjectiveConfig, i: int, aug_a: int, aug_b: int,
                   ds: Dataset, fam: AugmentationFamily) -> float:
    """As global_loss_v1 but the log argument averages g over all K views first."""
    va = apply_augmentation(fam, aug_a, ds.points[i])
    vb = apply_augmentation(fam, aug_b, ds.points[i])
    E, _ = encoder.encode_batch(params, np.stack([va, vb]))
    pos = float(E[0] @ E[1])
    gmean = np.mean([g_exact(params, cfg, i, k, ds, fam) for k in range(fam.K)])
    return -pos + cfg.tau * float(np.log(cfg.eps0 + gmean))


def aug_consistency_eps_exact(params, ds: Dataset,
                              fam: AugmentationFamily) -> list[Fraction]:
    """Every sample's aug_consistency_eps, exact on the package's float64
    embeddings: (1/K^2) sum_{k,k'} (1/|S_i|) sum_z (sim(e_ik, z) - sim(e_ik', z))^2
    over the (n - 1) * K negative views z. For tiny instances only."""
    E, _ = encoder.encode_batch(params, all_views(ds, fam))
    n, K = ds.n, fam.K
    rows = [[Fraction(float(x)) for x in row] for row in E]
    S = [[sum((x * y for x, y in zip(u, v)), Fraction(0)) for v in rows]
         for u in rows]
    eps = []
    for i in range(n):
        own = range(i * K, (i + 1) * K)
        negatives = [z for z in range(n * K) if z not in own]
        total = sum(((S[k][z] - S[l][z]) ** 2 for k in own for l in own
                     for z in negatives), Fraction(0))
        eps.append(total / (K * K * len(negatives)))
    return eps


# Entries per row tile of S: 1 MiB of float64 stays in L2 across the tile's
# sweeps, and 2^17 was the fastest of 2^15..2^20 at n = 256, 1024 and 5000.
# Tiles hold whole samples, so one sample's tile exceeds it if K * n*K does.
_TILE_BUDGET = 1 << 17


def serial_tile_core(params, cfg: GlobalObjectiveConfig, ds: Dataset,
                     fam: AugmentationFamily, want_grad: bool):
    """One pass over row tiles of S = E E^T that hold whole samples.

    Sample i's own block sums to |sum_k e_ik|^2, the alignment term. Each
    tile becomes its negative masses P = exp(S[rows] / tau), own blocks
    zeroed. The contrast weights are W = a * P for the row scale
    a = 1 / (denominator * |S_i| * n*K), row-local since a tile holds all K
    views of its samples, so the tile adds a * (P E) to its rows of the
    cotangent and P^T (a * E) to all rows: (W + W^T) E without forming W.
    """
    n, K = ds.n, fam.K
    nK = n * K
    E, cache = _embeddings(params, ds, fam)
    Es = E / cfg.tau
    set_size = (n - 1) * K
    step = max(1, _TILE_BUDGET // (K * nK))       # samples per tile
    gbar, denom = np.empty(nK), np.empty(nK)
    cot = np.zeros_like(E) if want_grad else None
    for a in range(0, n, step):
        c = min(step, n - a)
        rows = slice(a * K, (a + c) * K)
        # Twice as fast here as against a contiguous E.T, and never syrk.
        P = E[rows] @ Es.T
        np.exp(P, out=P)
        P.reshape(c, K, n, K)[np.arange(c), :, np.arange(a, a + c), :] = 0.0
        gbar[rows] = g = P.sum(axis=1) / set_size
        if cfg.version == "v2":
            g = np.repeat(g.reshape(c, K).mean(axis=1), K)
        denom[rows] = cfg.eps0 + g
        if want_grad:
            scale = (1.0 / (denom[rows] * (set_size * nK)))[:, None]
            cot[rows] += scale * (P @ E)
            cot += P.T @ (scale * E[rows])

    block_sums = E.reshape(n, K, -1).sum(axis=1)
    align = -float(np.einsum("im,im->", block_sums, block_sums)) / (n * K * K)
    per_sample_g = gbar.reshape(n, K)
    value = float(align + cfg.tau * float(np.mean(np.log(denom))))
    if not want_grad:
        return value, None, per_sample_g, None

    cot -= np.repeat(block_sums * (2.0 / (n * K * K)), K, axis=0)
    grad = encoder.backward_batch(params, cache, cot)
    return value, grad, per_sample_g, float(np.mean(_consistency(E, K)))
