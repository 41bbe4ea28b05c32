"""Small analytically differentiable encoders producing unit-norm embeddings.

Two architectures: a linear map and a one-hidden-layer tanh network. Gradients
are hand-coded vector-Jacobian products, exact through the final
l2-normalization (projection Jacobian (I - e e^T) / ||raw||). A central
finite-difference checker serves as the ground-truth oracle for every analytic
gradient in the package.

Parameter flattening order: row-major W1, then row-major W2 when present.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed_core import create_text

ARCHITECTURES = ("linear", "one_hidden")


class DegenerateEmbeddingError(ValueError):
    """The pre-normalization encoder output collapsed to (near) zero or its
    norm is not finite."""


@dataclass(frozen=True)
class EncoderParams:
    """Encoder weights.

    linear:     embedding = normalize(W1 @ x),         W1 is (m, d_in)
    one_hidden: embedding = normalize(W2 @ tanh(W1 @ x)), W1 is (d_h, d_in),
                W2 is (m, d_h)
    """

    architecture: str
    W1: np.ndarray
    W2: np.ndarray | None = None

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture: {self.architecture!r}")
        W1 = np.asarray(self.W1, dtype=float)
        if W1.ndim != 2 or not np.isfinite(W1).all():
            raise ValueError("W1 must be a finite matrix")
        object.__setattr__(self, "W1", W1)
        if self.architecture == "linear":
            if self.W2 is not None:
                raise ValueError("linear encoder takes no W2")
            if W1.shape[0] < 2:
                raise ValueError("embedding dimension must be at least 2")
        else:
            if self.W2 is None:
                raise ValueError("one_hidden encoder needs W2")
            W2 = np.asarray(self.W2, dtype=float)
            if W2.ndim != 2 or not np.isfinite(W2).all():
                raise ValueError("W2 must be a finite matrix")
            if W2.shape[1] != W1.shape[0]:
                raise ValueError("W2 columns must match W1 rows")
            if W2.shape[0] < 2:
                raise ValueError("embedding dimension must be at least 2")
            object.__setattr__(self, "W2", W2)

    @property
    def d_in(self) -> int:
        return self.W1.shape[1]

    @property
    def m(self) -> int:
        return self.W1.shape[0] if self.architecture == "linear" else self.W2.shape[0]

    @property
    def d(self) -> int:
        """Total flattened parameter count."""
        return self.W1.size + (0 if self.W2 is None else self.W2.size)


def init_encoder(architecture: str, d_in: int, m: int, d_hidden: int = 8,
                 seed: int = 0, scale: float = 1.0) -> EncoderParams:
    """Seeded Gaussian init, scaled by 1/sqrt(fan_in) per layer."""
    rng = np.random.default_rng(seed)
    if architecture == "linear":
        W1 = scale * rng.standard_normal((m, d_in)) / np.sqrt(d_in)
        return EncoderParams(architecture="linear", W1=W1)
    W1 = scale * rng.standard_normal((d_hidden, d_in)) / np.sqrt(d_in)
    W2 = scale * rng.standard_normal((m, d_hidden)) / np.sqrt(d_hidden)
    return EncoderParams(architecture="one_hidden", W1=W1, W2=W2)


def flatten_params(params: EncoderParams) -> np.ndarray:
    """Row-major W1 followed by row-major W2."""
    if params.W2 is None:
        return params.W1.ravel().copy()
    return np.concatenate([params.W1.ravel(), params.W2.ravel()])


def unflatten_params(template: EncoderParams, vec: np.ndarray) -> EncoderParams:
    """Rebuild params with template's shapes from a flat vector."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (template.d,):
        raise ValueError(f"expected flat vector of length {template.d}, got {vec.shape}")
    n1 = template.W1.size
    W1 = vec[:n1].reshape(template.W1.shape)
    if template.W2 is None:
        return EncoderParams(architecture=template.architecture, W1=W1)
    W2 = vec[n1:].reshape(template.W2.shape)
    return EncoderParams(architecture=template.architecture, W1=W1, W2=W2)


@dataclass
class ForwardCache:
    """Per-row forward intermediates needed by backward_batch."""

    X: np.ndarray               # (N, d_in) inputs
    H: np.ndarray | None        # (N, d_h) tanh activations, one_hidden only
    norms: np.ndarray           # (N,) pre-normalization norms
    E: np.ndarray               # (N, m) unit embeddings


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
        # np.linalg.norm(raw, axis=1), the same sums without its wrapper
        norms = np.sqrt(np.add.reduce(raw * raw, axis=1))
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


def backward_batch(params: EncoderParams, cache: ForwardCache,
                   cotangents: np.ndarray) -> np.ndarray:
    """Accumulate d(sum_r cot_r . E_r)/d(params) over all rows, flattened.

    The normalization pullback projects each cotangent onto the tangent space
    of the unit sphere before dividing by the pre-normalization norm.
    """
    C = np.atleast_2d(np.asarray(cotangents, dtype=float))
    inner = np.sum(C * cache.E, axis=1, keepdims=True)
    c_raw = (C - inner * cache.E) / cache.norms[:, None]
    if params.architecture == "linear":
        return (c_raw.T @ cache.X).ravel()
    gW2 = c_raw.T @ cache.H
    c_hidden = (c_raw @ params.W2) * (1.0 - cache.H ** 2)
    gW1 = c_hidden.T @ cache.X
    return np.concatenate([gW1.ravel(), gW2.ravel()])


def encode(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    """Unit-norm embedding of a single input vector."""
    E, _ = encode_batch(params, np.asarray(x, dtype=float)[None, :])
    return E[0]


def _central_diff(f_flat, x0: np.ndarray, h: float) -> np.ndarray:
    """Central differences of a scalar function of a flat vector."""
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    grad = np.zeros_like(x0)
    for j in range(x0.shape[0]):
        xp = x0.copy()
        xp[j] += h
        fp = float(f_flat(xp))
        xm = x0.copy()
        xm[j] -= h
        fm = float(f_flat(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite function value at coordinate {j}")
        grad[j] = (fp - fm) / (2.0 * h)
    return grad


def finite_diff_grad(f, params: EncoderParams, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of the encoder params."""
    x0 = flatten_params(params)
    return _central_diff(lambda x: f(unflatten_params(params, x)), x0, h)


def finite_diff_flat(f, x0: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    Useful for functions over concatenations of several parameter sets."""
    return _central_diff(f, np.asarray(x0, dtype=float).copy(), h)


def save_encoder(params: EncoderParams, path: str) -> None:
    """Header line with architecture and shapes, then one flat value per line."""
    try:
        with create_text(path) as fh:
            if params.architecture == "linear":
                fh.write(f"linear {params.d_in} {params.m}\n")
            else:
                fh.write(f"one_hidden {params.d_in} {params.W1.shape[0]} {params.m}\n")
            for v in flatten_params(params):
                fh.write(repr(float(v)) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write checkpoint to {path}: {exc}") from exc


def load_encoder(path: str) -> EncoderParams:
    """Read a checkpoint written by save_encoder."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        values = [float(line) for line in fh if line.strip()]
    vec = np.array(values)
    if not header:
        raise ValueError(f"empty encoder checkpoint {path}")
    if header[0] == "linear":
        d_in, m = int(header[1]), int(header[2])
        template = EncoderParams(architecture="linear", W1=np.zeros((m, d_in)))
    elif header[0] == "one_hidden":
        d_in, d_h, m = int(header[1]), int(header[2]), int(header[3])
        template = EncoderParams(architecture="one_hidden",
                                 W1=np.zeros((d_h, d_in)), W2=np.zeros((m, d_h)))
    else:
        raise ValueError(f"unknown architecture in checkpoint header: {header[0]!r}")
    return unflatten_params(template, vec)
