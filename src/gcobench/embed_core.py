"""Datasets, finite augmentation families, similarity primitives, and mini-batch sampling.

Every other module consumes these types. Augmentations are a fixed finite set of
additive perturbations, so expectations over the augmentation draw are exact sums
and brute-force oracles stay computable.
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass

import numpy as np


class DegenerateInputError(ValueError):
    """A vector has collapsed below usable norm."""


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale v to Euclidean norm 1, preserving direction.

    Raises DegenerateInputError when the norm is below 1e-30.
    """
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm < 1e-30:
        raise DegenerateInputError("cannot normalize a zero vector")
    return v / norm


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float:
    """Dot product of two unit vectors, clamped to [-1, 1].

    Callers are expected to pass unit-norm inputs; only the dimension is checked.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(np.clip(u @ v, -1.0, 1.0))


@dataclass(frozen=True)
class Dataset:
    """n input vectors of shared dimension, with optional integer labels."""

    points: np.ndarray          # (n, d_in)
    labels: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise ValueError("dataset needs a (n, d_in) array with n >= 2")
        if not np.isfinite(pts).all():
            raise ValueError("dataset points must be finite")
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=int)
            if lab.shape != (pts.shape[0],):
                raise ValueError("labels must have one entry per point")
            object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d_in(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class AugmentationFamily:
    """K fixed additive perturbations; view k of x is x + deltas[k].

    The family is enumerable, so averaging over augmentations is an exact
    K-term sum. K = 1 is allowed (the identity-like single-view family).
    """

    deltas: np.ndarray          # (K, d_in)
    seed: int = 0

    def __post_init__(self):
        d = np.asarray(self.deltas, dtype=float)
        if d.ndim != 2 or d.shape[0] < 1:
            raise ValueError("deltas must be a (K, d_in) array with K >= 1")
        if not np.isfinite(d).all():
            raise ValueError("deltas must be finite")
        object.__setattr__(self, "deltas", d)

    @property
    def K(self) -> int:
        return self.deltas.shape[0]

    @property
    def d_in(self) -> int:
        return self.deltas.shape[1]


def make_augmentation_family(d_in: int, K: int = 4, scale: float = 0.1,
                             seed: int = 0) -> AugmentationFamily:
    """Draw K Gaussian perturbation vectors once from the given seed."""
    rng = np.random.default_rng(seed)
    deltas = scale * rng.standard_normal((K, d_in))
    return AugmentationFamily(deltas=deltas, seed=seed)


def apply_augmentation(fam: AugmentationFamily, k: int, x: np.ndarray) -> np.ndarray:
    """Return x + deltas[k]. k is a 0-based view index in [0, K)."""
    if not 0 <= k < fam.K:
        raise IndexError(f"augmentation index {k} out of range [0, {fam.K})")
    return np.asarray(x, dtype=float) + fam.deltas[k]


def negative_members(ds: Dataset, fam: AugmentationFamily, i: int):
    """Lazily yield the (j, k) pairs of the negative set of sample i.

    The set contains every augmented view of every other sample and none of
    sample i's own views, so it has exactly (n - 1) * K members.
    """
    for j in range(ds.n):
        if j == i:
            continue
        for k in range(fam.K):
            yield (j, k)


@dataclass(frozen=True)
class MiniBatch:
    """B sampled dataset indices plus two independent augmentation choices per index."""

    indices: np.ndarray         # (B,)
    aug_a: np.ndarray           # (B,)
    aug_b: np.ndarray           # (B,)

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        a = np.asarray(self.aug_a, dtype=int)
        b = np.asarray(self.aug_b, dtype=int)
        if idx.ndim != 1 or idx.shape[0] < 2:
            raise ValueError("a mini-batch needs at least 2 indices")
        if a.shape != idx.shape or b.shape != idx.shape:
            raise ValueError("aug_a and aug_b must match indices in length")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "aug_a", a)
        object.__setattr__(self, "aug_b", b)

    @property
    def B(self) -> int:
        return self.indices.shape[0]


SAMPLING_MODES = ("epoch_shuffle", "with_replacement")


class IndexSampler:
    """Stateful index stream for one training loop.

    epoch_shuffle walks a fresh permutation per epoch and carries any
    remainder into the next permutation, so within each permutation block
    every index appears exactly once. with_replacement draws B iid uniform
    indices per batch.
    """

    def __init__(self, n: int, B: int, rng: np.random.Generator,
                 mode: str = "epoch_shuffle"):
        if mode not in SAMPLING_MODES:
            raise ValueError(f"unknown sampling mode: {mode!r}")
        if B < 2:
            raise ValueError("batch size must be at least 2 (no negatives otherwise)")
        if mode == "epoch_shuffle" and B > n:
            raise ValueError(f"epoch_shuffle needs B <= n, got B={B}, n={n}")
        self.n = n
        self.B = B
        self.rng = rng
        self.mode = mode
        self._pending = np.empty(0, dtype=int)

    def next_indices(self) -> np.ndarray:
        if self.mode == "with_replacement":
            return self.rng.integers(0, self.n, size=self.B)
        while self._pending.shape[0] < self.B:
            self._pending = np.concatenate([self._pending, self.rng.permutation(self.n)])
        out = self._pending[:self.B]
        self._pending = self._pending[self.B:]
        return out


class MinibatchSampler:
    """IndexSampler plus uniform independent augmentation draws per slot."""

    def __init__(self, ds: Dataset, fam: AugmentationFamily, B: int,
                 rng: np.random.Generator, mode: str = "epoch_shuffle"):
        self._indices = IndexSampler(ds.n, B, rng, mode)
        self._fam = fam
        self.rng = rng

    def next_batch(self) -> MiniBatch:
        idx = self._indices.next_indices()
        aug_a = self.rng.integers(0, self._fam.K, size=idx.shape[0])
        aug_b = self.rng.integers(0, self._fam.K, size=idx.shape[0])
        return MiniBatch(indices=idx, aug_a=aug_a, aug_b=aug_b)


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


def all_views(ds: Dataset, fam: AugmentationFamily) -> np.ndarray:
    """All n*K augmented views, row i*K + k holding x_i + deltas[k]."""
    views = ds.points[:, None, :] + fam.deltas[None, :, :]
    return views.reshape(ds.n * fam.K, ds.d_in)


def batch_views(ds: Dataset, fam: AugmentationFamily, batch: MiniBatch) -> np.ndarray:
    """The 2B batch view rows: first all first views, then all second views."""
    pts = ds.points[batch.indices]
    X = np.concatenate((pts, pts))
    X += fam.deltas[np.concatenate((batch.aug_a, batch.aug_b))]
    return X


def create_text(path: str, newline: str | None = None):
    """Open path for writing ASCII text as a new file.

    An existing regular file that this process may write and that has no
    other hard link is unlinked first rather than truncated: on ext4,
    truncating a file whose old data is on disk forces that data out,
    35-55 ms a rewrite against 0.2 ms for unlink and create. Any other path
    (a symlink, device, FIFO, read-only or hard-linked file) is opened as
    before, so it is written through or refused with the same error.

    The replacement gets a new file's default mode and owner. It also gives
    up ext4's flush-on-replace: after a crash the path may be missing or
    empty. Every output here is a deterministic function of its config
    (apart from the optional timing column), so a rerun restores it.
    """
    try:
        st = os.lstat(path)
        if (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
                and os.access(path, os.W_OK)):
            os.unlink(path)
    except OSError:
        pass        # missing or not removable: open() creates, truncates or reports
    return open(path, "w", encoding="ascii", newline=newline)


def save_dataset(ds: Dataset, path: str) -> None:
    """Write one comma-separated row per point, label appended as a trailing integer."""
    with create_text(path) as fh:
        for i in range(ds.n):
            row = ",".join(repr(float(v)) for v in ds.points[i])
            if ds.labels is not None:
                row += f",{int(ds.labels[i])}"
            fh.write(row + "\n")


def load_dataset(path: str, labeled: bool | None = None) -> Dataset:
    """Read a dataset written by save_dataset.

    labeled=None autodetects a trailing integer label column.
    """
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rows.append(line.split(","))
    if not rows:
        raise ValueError(f"no rows in dataset file {path}")
    if labeled is None:
        tail = rows[0][-1]
        labeled = len(rows[0]) > 1 and ("." not in tail and "e" not in tail and "E" not in tail)
    if labeled:
        points = np.array([[float(v) for v in r[:-1]] for r in rows])
        labels = np.array([int(r[-1]) for r in rows])
        return Dataset(points=points, labels=labels)
    points = np.array([[float(v) for v in r] for r in rows])
    return Dataset(points=points)
