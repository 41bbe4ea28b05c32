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

The estimator consumes the statistics exactly as stored; whether they were
refreshed from the current batch first is the step's choice (u_lag fresh vs
lagged), mirroring the unimodal optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder
from .embed_core import create_text
from .objective import GlobalObjectiveConfig, OracleSizeError
from .optimizers import NumericError, OptimizerState

DEFAULT_TAU = 0.07
TWOWAY_ORACLE_GUARD = 1000


@dataclass(frozen=True)
class PairedDataset:
    """n aligned rows on two sides; the sides may have different widths."""

    image: np.ndarray
    text: np.ndarray
    labels: tuple[int, ...] | None = None

    def __post_init__(self):
        image = np.asarray(self.image, dtype=float)
        text = np.asarray(self.text, dtype=float)
        if image.ndim != 2 or text.ndim != 2:
            raise ValueError("paired sides must be 2-d arrays")
        if image.shape[0] != text.shape[0]:
            raise ValueError("paired sides must have the same number of rows")
        if image.shape[0] < 2:
            raise ValueError("a paired dataset needs at least 2 pairs")
        if not (np.isfinite(image).all() and np.isfinite(text).all()):
            raise ValueError("paired entries must be finite")
        if self.labels is not None and len(self.labels) != image.shape[0]:
            raise ValueError("labels length must match the number of pairs")
        object.__setattr__(self, "image", image)
        object.__setattr__(self, "text", text)

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
                       beta: float = 0.9, step_rule: str = "momentum",
                       u_lag: str = "fresh") -> OptimizerState:
    """Zero-initialized statistics (rows u_image, u_text) for n pairs and
    d = d_image + d_text concatenated parameters."""
    return OptimizerState(eta=eta, beta=beta, gamma=gamma, step_rule=step_rule,
                          u_lag=u_lag, u=np.zeros((2, n)), v=np.zeros(d))


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
    S: np.ndarray
    expS: np.ndarray
    g_image: np.ndarray     # row masses over the candidates present
    g_text: np.ndarray      # column masses


def _paired_stats(params_image, params_text, cfg: GlobalObjectiveConfig,
                  X_image: np.ndarray, X_text: np.ndarray) -> _PairStats:
    EI, cache_i = encoder.encode_batch(params_image, X_image)
    ET, cache_t = encoder.encode_batch(params_text, X_text)
    S = EI @ ET.T
    expS = np.exp(S / cfg.tau)
    return _PairStats(EI=EI, ET=ET, cache_image=cache_i, cache_text=cache_t,
                      S=S, expS=expS,
                      g_image=expS.mean(axis=1), g_text=expS.mean(axis=0))


def _pair_grad(params_image, params_text, stats: _PairStats,
               denom_image: np.ndarray, denom_text: np.ndarray) -> np.ndarray:
    """Gradient over concatenated (image, text) parameters of the two-way
    expression over the rows of stats, with the given row and column
    denominators eps0 + (mass or statistic)."""
    B = stats.S.shape[0]
    C = stats.expS / B ** 2 * (1.0 / denom_image[:, None]
                               + 1.0 / denom_text[None, :])
    sl = np.arange(B)
    C[sl, sl] -= 2.0 / B
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
    di = cfg.eps0 + stats.g_image
    dt = cfg.eps0 + stats.g_text
    value = float(-2.0 * np.trace(stats.S) / n
                  + cfg.tau * np.mean(np.log(di))
                  + cfg.tau * np.mean(np.log(dt)))
    grad = (_pair_grad(params_image, params_text, stats, di, dt)
            if want_grad else None)
    return TwowayOracleResult(value=value, grad=grad,
                              g_image=stats.g_image, g_text=stats.g_text)


def twoway_oracle_F(params_image, params_text, cfg: GlobalObjectiveConfig,
                    ds: PairedDataset) -> TwowayOracleResult:
    """Exact value and gradient by full enumeration of the n x n score grid."""
    return _oracle_core(params_image, params_text, cfg, ds, want_grad=True)


def twoway_oracle_value(params_image, params_text, cfg: GlobalObjectiveConfig,
                        ds: PairedDataset) -> float:
    """Value-only oracle for finite differencing."""
    return _oracle_core(params_image, params_text, cfg, ds,
                        want_grad=False).value


def _batch_stats(params_image, params_text, cfg: GlobalObjectiveConfig,
                 indices, ds: PairedDataset) -> tuple[np.ndarray, _PairStats]:
    """The batch's indices as an array, and the paired statistics of its rows."""
    idx = np.asarray(indices, dtype=int)
    if idx.ndim != 1 or idx.shape[0] < 2:
        raise ValueError("a bimodal batch needs at least 2 indices")
    return idx, _paired_stats(params_image, params_text, cfg,
                              ds.image[idx], ds.text[idx])


def _blend_u(state: OptimizerState, idx: np.ndarray,
             stats: _PairStats) -> np.ndarray:
    """u <- (1-gamma) u + gamma gbar(batch) on both sides, batch entries only;
    returns the new (2, B) values. A repeated index keeps its last slot."""
    u_new = ((1.0 - state.gamma) * state.u[:, idx]
             + state.gamma * np.stack([stats.g_image, stats.g_text]))
    state.u[:, idx] = u_new
    return u_new


def _estimate(params_image, params_text, cfg: GlobalObjectiveConfig,
              state: OptimizerState, idx: np.ndarray,
              stats: _PairStats) -> np.ndarray:
    """Gradient estimate with the statistics exactly as stored in state."""
    u = state.u[:, idx]
    if np.any(u <= 0):
        raise NumericError("nonpositive u statistic at use time "
                           "(update u before estimating)")
    return _pair_grad(params_image, params_text, stats,
                      cfg.eps0 + u[0], cfg.eps0 + u[1])


def twoway_update_u(state: OptimizerState, params_image, params_text,
                    cfg: GlobalObjectiveConfig, indices,
                    ds: PairedDataset) -> tuple[np.ndarray, np.ndarray]:
    """u_i <- (1-gamma) u_i + gamma gbar(batch) on both sides, batch entries
    only. Returns the new (u_image, u_text) values in slot order."""
    idx, stats = _batch_stats(params_image, params_text, cfg, indices, ds)
    u_new = _blend_u(state, idx, stats)
    return u_new[0], u_new[1]


def twoway_estimator(state: OptimizerState, params_image, params_text,
                     cfg: GlobalObjectiveConfig, indices,
                     ds: PairedDataset) -> np.ndarray:
    """Gradient estimate over concatenated (image, text) parameters, using the
    statistics exactly as stored in state."""
    idx, stats = _batch_stats(params_image, params_text, cfg, indices, ds)
    return _estimate(params_image, params_text, cfg, state, idx, stats)


def twoway_step(state: OptimizerState, params_image, params_text,
                cfg: GlobalObjectiveConfig, indices, ds: PairedDataset):
    """One optimizer step over both parameter blocks jointly, from one pass
    over the batch.

    Fresh mode refreshes u from this batch before forming the estimator;
    lagged mode estimates with the previous u (seeding zero entries with the
    current batch masses so the first step is well defined) and refreshes
    afterwards.
    """
    idx, stats = _batch_stats(params_image, params_text, cfg, indices, ds)
    if state.u_lag == "fresh":
        _blend_u(state, idx, stats)
        est = _estimate(params_image, params_text, cfg, state, idx, stats)
    else:
        u = state.u[:, idx]
        state.u[:, idx] = np.where(u == 0, np.stack([stats.g_image,
                                                     stats.g_text]), u)
        est = _estimate(params_image, params_text, cfg, state, idx, stats)
        _blend_u(state, idx, stats)
    w = state.apply(pair_to_flat(params_image, params_text), est)
    return flat_to_pair(params_image, params_text, w)


def save_paired(ds: PairedDataset, path: str) -> None:
    """One line per pair: image coordinates, text coordinates, and the label
    when present, comma separated under a width header."""
    labeled = ds.labels is not None
    with create_text(path) as fh:
        fh.write(f"paired {ds.n} {ds.image.shape[1]} {ds.text.shape[1]} "
                 f"{int(labeled)}\n")
        for i in range(ds.n):
            cells = [repr(float(x)) for x in ds.image[i]]
            cells += [repr(float(x)) for x in ds.text[i]]
            if labeled:
                cells.append(str(ds.labels[i]))
            fh.write(",".join(cells) + "\n")


def load_paired(path: str) -> PairedDataset:
    """Read a file written by save_paired."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if not header or header[0] != "paired":
            raise ValueError(f"not a paired dataset file: {path}")
        n, d_x, d_t, labeled = (int(x) for x in header[1:5])
        image = np.zeros((n, d_x))
        text = np.zeros((n, d_t))
        labels = [] if labeled else None
        for i in range(n):
            cells = fh.readline().rstrip("\n").split(",")
            expect = d_x + d_t + (1 if labeled else 0)
            if len(cells) != expect:
                raise ValueError(f"row {i} of {path} has {len(cells)} cells, "
                                 f"expected {expect}")
            image[i] = [float(c) for c in cells[:d_x]]
            text[i] = [float(c) for c in cells[d_x:d_x + d_t]]
            if labeled:
                labels.append(int(cells[-1]))
    return PairedDataset(image=image, text=text,
                         labels=tuple(labels) if labeled else None)
