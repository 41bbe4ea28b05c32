"""Two-way contrastive objective over paired data with separate encoders.

Each pair (x_i, t_i) is embedded by its own encoder and scored against every
candidate on the other side. With S_ij = sim(EI_i, ET_j) and f(g) = tau
ln(eps0 + g), the exact objective over n pairs is

  F = -(2/n) sum_i S_ii
      + (1/n) sum_i f(gI_i) + (1/n) sum_j f(gT_j),

  gI_i = (1/n) sum_j exp(S_ij / tau)   (row masses, image -> text)
  gT_j = (1/n) sum_i exp(S_ij / tau)   (column masses, text -> image)

Unlike the unimodal objective the pair's own score S_ii is included in both
masses. The mini-batch estimator mirrors the same expression over a batch of
B rows and columns, with the stored per-sample statistics u_image, u_text in
the two denominators. Batch masses average over the B in-batch candidates,
again including the diagonal.

twoway_estimator consumes the statistics exactly as stored. The step and
twoway_update_u take theirs from OptimizerState.refresh, the u rule the
unimodal optimizer uses too, with the (2, B) batch masses (row masses, then
column masses) of _paired_stats, the kernel the oracle runs over all n pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder
from .embed_core import index_array, row_array
from .objective import GlobalObjectiveConfig, OracleSizeError
from .optimizers import _BLOCK, NumericError, OptimizerState

DEFAULT_TAU = 0.07
TWOWAY_ORACLE_GUARD = 1000


@dataclass(frozen=True)
class PairedDataset:
    """n aligned rows on two sides; the sides may have different widths."""

    image: np.ndarray
    text: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "image", row_array("image", self.image, 2))
        object.__setattr__(self, "text", row_array("text", self.text, 2))
        if self.image.shape[0] != self.text.shape[0]:
            raise ValueError("paired sides must have the same number of rows")

    @property
    def n(self) -> int:
        return self.image.shape[0]


@dataclass(frozen=True)
class TwowayOracleResult:
    """Exact objective value, gradient over concatenated (image, text)
    parameters, and the per-row / per-column masses."""

    value: float
    grad: np.ndarray | None
    g_image: np.ndarray
    g_text: np.ndarray


def make_bimodal_state(n: int, d: int, eta: float, gamma: float = 0.8,
                       beta: float = 0.9,
                       u_lag: str = "fresh") -> OptimizerState:
    """Zero-initialized statistics (rows u_image, u_text) for n pairs and
    d = d_image + d_text concatenated parameters, under the momentum rule."""
    return OptimizerState(eta=eta, beta=beta, gamma=gamma, u_lag=u_lag,
                          u=np.zeros((2, n)), v=np.zeros(d))


def pair_to_flat(params_image, params_text) -> np.ndarray:
    """Concatenate both encoders' flat parameter vectors (image first)."""
    return np.concatenate([encoder.flatten_params(params_image),
                           encoder.flatten_params(params_text)])


def flat_to_pair(params_image, params_text, vec: np.ndarray):
    """Split a concatenated vector back into two parameter sets shaped like
    the given templates."""
    d_image = encoder.flatten_params(params_image).shape[0]
    d_text = encoder.flatten_params(params_text).shape[0]
    if vec.shape != (d_image + d_text,):
        raise ValueError(f"expected a vector of length {d_image + d_text}, "
                         f"got shape {vec.shape}")
    return (encoder.unflatten_params(params_image, vec[:d_image]),
            encoder.unflatten_params(params_text, vec[d_image:]))


@dataclass
class _PairStats:
    EI: np.ndarray
    ET: np.ndarray
    cache_image: object
    cache_text: object
    trace: float            # sum of the pairs' own scores S_ii
    expS: np.ndarray        # exp(S / tau); _pair_grad overwrites it
    g: np.ndarray           # (2, B) row masses, then column masses


def _paired_stats(params_image, params_text, cfg: GlobalObjectiveConfig,
                  image: np.ndarray, text: np.ndarray) -> _PairStats:
    """The batch kernel: statistics of the aligned rows image and text."""
    EI, cache_i = encoder.encode_batch(params_image, image)
    ET, cache_t = encoder.encode_batch(params_text, text)
    expS = EI @ ET.T
    trace = np.trace(expS)
    np.divide(expS, cfg.tau, out=expS)
    np.exp(expS, out=expS)
    g = np.array((expS.mean(axis=1), expS.mean(axis=0)))
    return _PairStats(EI=EI, ET=ET, cache_image=cache_i,
                      cache_text=cache_t, trace=trace, expS=expS, g=g)


def _pair_grad(params_image, params_text, cfg: GlobalObjectiveConfig,
               stats: _PairStats, denom: np.ndarray) -> np.ndarray:
    """Gradient over concatenated (image, text) parameters of the two-way
    expression over the rows of stats, with row and column denominators
    eps0 + denom, denom (2, B) masses or statistics. Consumes stats.expS:
    the contrast matrix is written over it, and one block of rows of the
    grid of reciprocal sums is the one other array."""
    B = stats.expS.shape[0]
    r0, r1 = 1.0 / (cfg.eps0 + denom)
    C = stats.expS
    C /= B ** 2
    step = _BLOCK // B or 1
    for r in range(0, B, step):
        C[r:r + step] *= r0[r:r + step, None] + r1
    C.reshape(-1)[::B + 1] -= 2.0 / B
    grad_i = encoder.backward_batch(params_image, stats.cache_image,
                                    C @ stats.ET)
    grad_t = encoder.backward_batch(params_text, stats.cache_text,
                                    C.T @ stats.EI)
    return np.concatenate([grad_i, grad_t])


def _oracle_core(params_image, params_text, cfg: GlobalObjectiveConfig,
                 ds: PairedDataset, want_grad: bool) -> TwowayOracleResult:
    n = ds.n
    if n > TWOWAY_ORACLE_GUARD:
        raise OracleSizeError(
            f"two-way oracle enumeration over n = {n} exceeds the guard "
            f"({TWOWAY_ORACLE_GUARD})")
    stats = _paired_stats(params_image, params_text, cfg, ds.image, ds.text)
    d = cfg.eps0 + stats.g
    value = float(-2.0 * stats.trace / n
                  + cfg.tau * np.mean(np.log(d[0]))
                  + cfg.tau * np.mean(np.log(d[1])))
    grad = (_pair_grad(params_image, params_text, cfg, stats, stats.g)
            if want_grad else None)
    return TwowayOracleResult(value=value, grad=grad,
                              g_image=stats.g[0], g_text=stats.g[1])


def twoway_oracle_F(params_image, params_text, cfg: GlobalObjectiveConfig,
                    ds: PairedDataset) -> TwowayOracleResult:
    """Exact value and gradient by full enumeration of the n x n score grid."""
    return _oracle_core(params_image, params_text, cfg, ds, want_grad=True)


def twoway_oracle_value(params_image, params_text, cfg: GlobalObjectiveConfig,
                        ds: PairedDataset) -> float:
    """Value-only oracle for finite differencing."""
    return _oracle_core(params_image, params_text, cfg, ds,
                        want_grad=False).value


def twoway_update_u(state: OptimizerState, params_image, params_text,
                    cfg: GlobalObjectiveConfig, indices,
                    ds: PairedDataset) -> tuple[np.ndarray, np.ndarray]:
    """u_i <- (1-gamma) u_i + gamma gbar(batch) on both sides, batch entries
    only, under the state's u_lag rule (refresh). Returns the new (u_image,
    u_text) values in slot order; a repeated index keeps its last slot."""
    idx = index_array("indices", indices)
    stats = _paired_stats(params_image, params_text, cfg, ds.image[idx],
                          ds.text[idx])
    _, u_new = state.refresh(idx, stats.g)
    state.u[:, idx] = u_new
    return u_new[0], u_new[1]


def twoway_estimator(state: OptimizerState, params_image, params_text,
                     cfg: GlobalObjectiveConfig, indices,
                     ds: PairedDataset) -> np.ndarray:
    """Gradient estimate over concatenated (image, text) parameters, using the
    statistics exactly as stored in state."""
    idx = index_array("indices", indices)
    stats = _paired_stats(params_image, params_text, cfg, ds.image[idx],
                          ds.text[idx])
    u = state.u[:, idx]
    if np.any(u <= 0):
        raise NumericError("nonpositive u statistic at use time "
                           "(update u before estimating)")
    return _pair_grad(params_image, params_text, cfg, stats, u)


def twoway_step(state: OptimizerState, params_image, params_text,
                cfg: GlobalObjectiveConfig, indices, ds: PairedDataset):
    """One optimizer step over both parameter blocks jointly, from one pass
    over the batch: the denominators and new u of the state's u_lag rule
    (refresh), the estimator, the stored u, then the step rule."""
    idx = index_array("indices", indices)
    stats = _paired_stats(params_image, params_text, cfg, ds.image[idx],
                          ds.text[idx])
    denom, u_new = state.refresh(idx, stats.g)
    est = _pair_grad(params_image, params_text, cfg, stats, denom)
    state.u[:, idx] = u_new
    w = state.apply(pair_to_flat(params_image, params_text), est)
    d_image = params_image.d
    return (encoder.step_params(params_image, w[:d_image]),
            encoder.step_params(params_text, w[d_image:]))
