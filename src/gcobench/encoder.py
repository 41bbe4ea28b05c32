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

from .embed_core import check_setting, row_array, unchecked, write_text

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
        check_setting("architecture", self.architecture, ARCHITECTURES)
        linear = self.architecture == "linear"
        # The output layer (W1 when linear, else W2) has one row per
        # embedding dimension, and at least 2.
        object.__setattr__(self, "W1", row_array("W1", self.W1, 1 + linear))
        if linear:
            if self.W2 is not None:
                raise ValueError("linear encoder takes no W2")
        else:
            if self.W2 is None:
                raise ValueError("one_hidden encoder needs W2")
            W2 = row_array("W2", self.W2, 2)
            if W2.shape[1] != self.W1.shape[0]:
                raise ValueError("W2 columns must match W1 rows")
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
        return EncoderParams(architecture=architecture, W1=W1)
    W1 = scale * rng.standard_normal((d_hidden, d_in)) / np.sqrt(d_in)
    W2 = scale * rng.standard_normal((m, d_hidden)) / np.sqrt(d_hidden)
    return EncoderParams(architecture=architecture, W1=W1, W2=W2)


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
    params = step_params(template, vec)
    return EncoderParams(params.architecture, params.W1, params.W2)


def step_params(template: EncoderParams, vec: np.ndarray) -> EncoderParams:
    """template's shapes over the flat vector vec, without EncoderParams'
    checks: for the step rule's output, which has template's length and
    which OptimizerState.apply has checked to be finite."""
    n1 = template.W1.size
    W2 = None if template.W2 is None else vec[n1:].reshape(template.W2.shape)
    return unchecked(EncoderParams, architecture=template.architecture,
                     W1=vec[:n1].reshape(template.W1.shape), W2=W2)


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
    inner = np.add.reduce(C * cache.E, 1, keepdims=True)   # np.sum, unwrapped
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
    """Central differences of a function of a flat vector. A scalar function
    gives a vector; one that returns a 1-D array gives a column per output."""
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    rows = []
    for j in range(x0.shape[0]):
        xp = x0.copy()
        xp[j] += h
        fp = np.asarray(f_flat(xp), dtype=float)
        xm = x0.copy()
        xm[j] -= h
        fm = np.asarray(f_flat(xm), dtype=float)
        if not (np.isfinite(fp).all() and np.isfinite(fm).all()):
            raise ValueError(f"non-finite function value at coordinate {j}")
        rows.append((fp - fm) / (2.0 * h))
    return np.array(rows)


def finite_diff_grad(f, params: EncoderParams, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a function of the encoder params: a
    column per output if f returns a 1-D array."""
    x0 = flatten_params(params)
    return _central_diff(lambda x: f(unflatten_params(params, x)), x0, h)


def finite_diff_flat(f, x0: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    Useful for functions over concatenations of several parameter sets."""
    return _central_diff(f, np.asarray(x0, dtype=float).copy(), h)


def _encoder_text(params: EncoderParams) -> str:
    """Header line with architecture, input size and each layer's output
    size, then one flat value per line, via repr."""
    dims = [params.d_in, *(W.shape[0] for W in (params.W1, params.W2)
                           if W is not None)]
    lines = [" ".join(map(str, [params.architecture, *dims])),
             *map(repr, flatten_params(params).tolist())]
    return "".join(line + "\n" for line in lines)


def save_encoder(params: EncoderParams, path: str) -> None:
    """Write params as _encoder_text."""
    write_text(path, _encoder_text(params), "checkpoint")


def load_encoder(path: str) -> EncoderParams:
    """Read a checkpoint written by save_encoder. Any other text, even one
    that parses to the same parameters, is a ValueError naming the path."""
    try:
        with open(path, "r", encoding="ascii", newline="") as fh:
            text = fh.read()
        lines = text.splitlines()
        if not lines:
            raise ValueError("empty file")
        arch, *dims = lines[0].split()
        dims = [int(x) for x in dims]
        shapes = list(zip(dims[1:], dims[:-1]))     # (out, in) per layer
        if not 1 <= len(shapes) <= 2:
            raise ValueError(f"{len(dims)} sizes in the header")
        vec = np.array([float(v) for v in lines[1:]])
        # Counted before the template is allocated: a header can claim any size.
        if vec.shape[0] != sum(a * b for a, b in shapes):
            raise ValueError(f"{vec.shape[0]} values for the shapes {shapes}")
        # EncoderParams refuses an unknown architecture or a layer count
        # that is not its architecture's, and unflatten_params a non-finite
        # value.
        params = unflatten_params(EncoderParams(arch, *map(np.zeros, shapes)), vec)
        if text != _encoder_text(params):
            raise ValueError("not the text save_encoder writes for its parameters")
        return params
    except ValueError as exc:
        raise ValueError(f"bad encoder checkpoint {path}: {exc}") from exc
