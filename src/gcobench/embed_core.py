"""Datasets, finite augmentation families, mini-batch sampling, and output files.

Every other module consumes these types. Augmentations are a fixed finite set of
additive perturbations, so expectations over the augmentation draw are exact sums
and brute-force oracles stay computable.
"""

from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass

import numpy as np


def row_array(name: str, values, min_rows: int) -> np.ndarray:
    """values as a finite 2-d float array of at least min_rows rows and at
    least one column."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 2 or a.shape[0] < min_rows:
        raise ValueError(f"{name} must be a 2-d array of {min_rows} or more "
                         f"rows")
    if a.shape[1] == 0:
        raise ValueError(f"{name} must have 1 or more columns")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def index_array(name: str, values) -> np.ndarray:
    """values as a 1-d int array of 2 or more nonnegative integers. numpy
    would truncate a float index and wrap a negative one: the wrong sample's
    u written, the wrong negatives masked."""
    a = np.asarray(values)
    if a.ndim != 1 or a.shape[0] < 2:
        raise ValueError(f"{name} must be a 1-d array of 2 or more entries")
    if a.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, not {a.dtype}")
    a = a.astype(int, copy=False)   # first: a huge uint64 entry wraps negative
    if a.min() < 0:
        raise ValueError(f"{name} must be nonnegative")
    return a


def check_index(what: str, j: int, size: int) -> None:
    """Refuse a scalar index outside [0, size)."""
    if not 0 <= j < size:
        raise IndexError(f"{what} index {j} out of range [0, {size})")


def check_setting(name: str, value, rule) -> None:
    """Refuse a setting that breaks its rule with ValueError("<name> must
    ..."). rule is a tuple of choices, or the text of a bound on a number:
    ">= low", "> low" or "(0, 1]". "int >= low" and "int > low" bound an
    integer, which a float or a bool breaks. A float must be finite first."""
    if isinstance(rule, tuple):
        if value not in rule:
            raise ValueError(f"{name} must be one of {rule}")
        return
    if rule.startswith("int "):
        rule = rule[4:]
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer")
    elif not isinstance(value, int) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    if rule == "(0, 1]":
        if not 0 < value <= 1:
            raise ValueError(f"{name} must lie in {rule}")
    else:
        op, low = rule.split()
        if not (value > int(low) if op == ">" else value >= int(low)):
            raise ValueError(f"{name} must be {rule}")


def unchecked(cls, **values):
    """An instance of the frozen dataclass cls holding values as its fields,
    without the checks of its __post_init__: for arrays the package drew or
    computed itself and has checked already, on the step path."""
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


@dataclass(frozen=True)
class Dataset:
    """n input vectors of shared dimension."""

    points: np.ndarray          # (n, d_in)

    def __post_init__(self):
        object.__setattr__(self, "points",
                           row_array("dataset points", self.points, 2))

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

    def __post_init__(self):
        object.__setattr__(self, "deltas", row_array("deltas", self.deltas, 1))

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
    return AugmentationFamily(deltas=deltas)


def _check_width(what: str, shape: tuple, fam: AugmentationFamily) -> None:
    """Refuse data whose last axis is not the deltas' width, which numpy
    would broadcast: a one-column delta over every coordinate, or one-column
    data over every delta column."""
    if shape[-1:] != (fam.d_in,):
        raise ValueError(f"{what} of shape {shape} and deltas of width "
                         f"{fam.d_in} differ in width")


def apply_augmentation(fam: AugmentationFamily, k: int, x: np.ndarray) -> np.ndarray:
    """Return x + deltas[k]. k is a 0-based view index in [0, K)."""
    check_index("augmentation", k, fam.K)
    x = np.asarray(x, dtype=float)
    _check_width("x", x.shape, fam)
    return x + fam.deltas[k]


@dataclass(frozen=True)
class MiniBatch:
    """B sampled dataset indices plus two independent augmentation choices per index."""

    indices: np.ndarray         # (B,)
    aug_a: np.ndarray           # (B,)
    aug_b: np.ndarray           # (B,)

    def __post_init__(self):
        for name in ("indices", "aug_a", "aug_b"):
            object.__setattr__(self, name, index_array(name, getattr(self, name)))
        if not self.indices.shape == self.aug_a.shape == self.aug_b.shape:
            raise ValueError("aug_a and aug_b must match indices in length")

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
        check_setting("sampling mode", mode, SAMPLING_MODES)
        check_setting("dataset size", n, "int >= 2")
        check_setting("batch size", B, "int >= 2")  # no negatives otherwise
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


class MinibatchSampler(IndexSampler):
    """IndexSampler plus uniform independent augmentation draws per slot."""

    def __init__(self, ds: Dataset, fam: AugmentationFamily, B: int,
                 rng: np.random.Generator, mode: str = "epoch_shuffle"):
        super().__init__(ds.n, B, rng, mode)
        self.K = fam.K

    def next_batch(self) -> MiniBatch:
        idx = self.next_indices()
        aug_a, aug_b = self.rng.integers(0, self.K, (2, self.B))
        # Drawn here as int arrays in range, which MiniBatch's checks would
        # only confirm.
        return unchecked(MiniBatch, indices=idx, aug_a=aug_a, aug_b=aug_b)


def sample_minibatch(ds: Dataset, fam: AugmentationFamily, B: int,
                     rng: np.random.Generator,
                     mode: str = "epoch_shuffle") -> MiniBatch:
    """Draw a single mini-batch, the first batch of a fresh MinibatchSampler.

    epoch_shuffle takes the first B entries of a fresh permutation (B = n gives
    a full permutation). The two augmentation choices per index are independent
    uniform draws and may coincide. Reproducible given the generator state.
    """
    return MinibatchSampler(ds, fam, B, rng, mode).next_batch()


def all_views(ds: Dataset, fam: AugmentationFamily) -> np.ndarray:
    """All n*K augmented views, row i*K + k holding x_i + deltas[k]."""
    _check_width("dataset points", ds.points.shape, fam)
    views = ds.points[:, None, :] + fam.deltas[None, :, :]
    return views.reshape(ds.n * fam.K, ds.d_in)


def batch_views(ds: Dataset, fam: AugmentationFamily, batch: MiniBatch) -> np.ndarray:
    """The 2B batch view rows: first all first views, then all second views."""
    _check_width("dataset points", ds.points.shape, fam)
    pts = ds.points[batch.indices]
    X = np.concatenate((pts, pts))
    X += fam.deltas[np.concatenate((batch.aug_a, batch.aug_b))]
    return X


def write_text(path: str, text: str, what: str) -> None:
    """Write text to path as ASCII into a new file, with no newline
    translation, so the bytes written are the same on every platform. An
    OSError is raised again as "cannot write <what> to <path>: ...".

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
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc
