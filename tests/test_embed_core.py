"""Datasets, augmentation families, samplers, and similarity primitives."""

import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcobench import (AugmentationFamily, Dataset, DegenerateInputError,
                      MiniBatch, MinibatchSampler, all_views,
                      apply_augmentation, batch_views, cosine_sim,
                      l2_normalize, load_dataset, make_augmentation_family,
                      negative_members, sample_minibatch, save_dataset)
from gcobench.embed_core import SAMPLING_MODES, IndexSampler, create_text

finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1, max_size=8).map(np.array)


@given(finite_vectors)
def test_l2_normalize_unit_norm(v):
    if np.linalg.norm(v) < 1e-20:
        return
    out = l2_normalize(v)
    assert math.isclose(float(np.linalg.norm(out)), 1.0, rel_tol=1e-12)


@given(finite_vectors, st.floats(min_value=1e-3, max_value=1e3))
def test_l2_normalize_scale_invariant(v, c):
    if np.linalg.norm(v) < 1e-10:
        return
    np.testing.assert_allclose(l2_normalize(c * v), l2_normalize(v),
                               rtol=1e-10, atol=1e-12)


def test_l2_normalize_direction():
    out = l2_normalize(np.array([3.0, 4.0]))
    np.testing.assert_allclose(out, [0.6, 0.8], rtol=1e-15)


def test_l2_normalize_zero_vector_raises():
    with pytest.raises(DegenerateInputError):
        l2_normalize(np.zeros(3))


@given(st.integers(0, 10_000))
def test_cosine_sim_symmetric_and_clamped(seed):
    rng = np.random.default_rng(seed)
    u = l2_normalize(rng.standard_normal(5))
    v = l2_normalize(rng.standard_normal(5))
    assert cosine_sim(u, v) == cosine_sim(v, u)
    assert -1.0 <= cosine_sim(u, v) <= 1.0
    assert cosine_sim(u, u) == pytest.approx(1.0, abs=1e-12)


def test_cosine_sim_dimension_mismatch():
    with pytest.raises(ValueError):
        cosine_sim(np.ones(3), np.ones(4))


def test_dataset_properties_and_validation():
    ds = Dataset(points=np.arange(6.0).reshape(3, 2), labels=[0, 1, 0])
    assert ds.n == 3 and ds.d_in == 2
    with pytest.raises(ValueError):
        Dataset(points=np.ones((1, 2)))
    with pytest.raises(ValueError):
        Dataset(points=np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        Dataset(points=np.ones((3, 2)), labels=[0, 1])


def test_augmentation_family_validation():
    fam = AugmentationFamily(deltas=np.zeros((1, 4)))
    assert fam.K == 1 and fam.d_in == 4
    with pytest.raises(ValueError):
        AugmentationFamily(deltas=np.zeros((0, 4)))
    with pytest.raises(ValueError):
        AugmentationFamily(deltas=np.array([[np.inf, 0.0]]))


def test_make_augmentation_family_seeded_and_scaled():
    a = make_augmentation_family(3, K=4, scale=0.2, seed=9)
    b = make_augmentation_family(3, K=4, scale=0.2, seed=9)
    np.testing.assert_array_equal(a.deltas, b.deltas)
    half = make_augmentation_family(3, K=4, scale=0.1, seed=9)
    np.testing.assert_allclose(half.deltas, 0.5 * a.deltas, rtol=1e-15)
    zero = make_augmentation_family(3, K=4, scale=0.0, seed=9)
    np.testing.assert_array_equal(zero.deltas, np.zeros((4, 3)))


def test_apply_augmentation_adds_delta_and_checks_range():
    fam = make_augmentation_family(3, K=2, seed=1)
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(apply_augmentation(fam, 1, x),
                                  x + fam.deltas[1])
    with pytest.raises(IndexError):
        apply_augmentation(fam, 2, x)
    with pytest.raises(IndexError):
        apply_augmentation(fam, -1, x)


def test_negative_members_excludes_own_views():
    ds = Dataset(points=np.random.default_rng(0).standard_normal((5, 3)))
    fam = make_augmentation_family(3, K=2)
    members = list(negative_members(ds, fam, 2))
    assert len(members) == (ds.n - 1) * fam.K
    assert len(set(members)) == len(members)
    assert all(j != 2 for j, _ in members)
    assert all(0 <= k < fam.K for _, k in members)


def test_minibatch_validation():
    batch = MiniBatch(indices=[0, 1, 2], aug_a=[0, 1, 0], aug_b=[1, 1, 0])
    assert batch.B == 3
    with pytest.raises(ValueError):
        MiniBatch(indices=[0], aug_a=[0], aug_b=[0])
    with pytest.raises(ValueError):
        MiniBatch(indices=[0, 1], aug_a=[0], aug_b=[0, 1])


def test_index_sampler_epoch_shuffle_is_permutation_with_carry():
    rng = np.random.default_rng(3)
    sampler = IndexSampler(5, 2, rng, "epoch_shuffle")
    draws = np.concatenate([sampler.next_indices() for _ in range(10)])
    assert draws.shape == (20,)
    for start in range(0, 20, 5):
        assert sorted(draws[start:start + 5]) == list(range(5))


def test_index_sampler_with_replacement_allows_large_batches():
    rng = np.random.default_rng(3)
    sampler = IndexSampler(4, 10, rng, "with_replacement")
    idx = sampler.next_indices()
    assert idx.shape == (10,)
    assert ((0 <= idx) & (idx < 4)).all()


def test_index_sampler_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        IndexSampler(4, 8, rng, "epoch_shuffle")
    with pytest.raises(ValueError):
        IndexSampler(4, 1, rng, "epoch_shuffle")
    with pytest.raises(ValueError):
        IndexSampler(4, 2, rng, "bogus")
    assert SAMPLING_MODES == ("epoch_shuffle", "with_replacement")


def test_sample_minibatch_shapes_and_determinism():
    ds = Dataset(points=np.random.default_rng(1).standard_normal((6, 3)))
    fam = make_augmentation_family(3, K=3)
    a = sample_minibatch(ds, fam, 4, np.random.default_rng(7))
    b = sample_minibatch(ds, fam, 4, np.random.default_rng(7))
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.aug_a, b.aug_a)
    np.testing.assert_array_equal(a.aug_b, b.aug_b)
    assert len(set(a.indices.tolist())) == 4
    assert ((0 <= a.aug_a) & (a.aug_a < 3)).all()
    full = sample_minibatch(ds, fam, 6, np.random.default_rng(7))
    assert sorted(full.indices.tolist()) == list(range(6))
    with pytest.raises(ValueError):
        sample_minibatch(ds, fam, 7, np.random.default_rng(7))


def test_minibatch_sampler_stream_matches_modes():
    ds = Dataset(points=np.random.default_rng(1).standard_normal((4, 2)))
    fam = make_augmentation_family(2, K=2)
    sampler = MinibatchSampler(ds, fam, 2, np.random.default_rng(5))
    batches = [sampler.next_batch() for _ in range(4)]
    seen = np.concatenate([b.indices for b in batches])
    for start in (0, 4):
        assert sorted(seen[start:start + 4]) == list(range(4))


def test_all_views_layout():
    ds = Dataset(points=np.random.default_rng(2).standard_normal((3, 2)))
    fam = make_augmentation_family(2, K=2, seed=4)
    views = all_views(ds, fam)
    assert views.shape == (6, 2)
    for i in range(3):
        for k in range(2):
            np.testing.assert_array_equal(views[i * 2 + k],
                                          ds.points[i] + fam.deltas[k])


def test_batch_views_layout():
    ds = Dataset(points=np.random.default_rng(2).standard_normal((5, 3)))
    fam = make_augmentation_family(3, K=2, seed=4)
    batch = MiniBatch(indices=[3, 0, 4], aug_a=[1, 0, 1], aug_b=[0, 0, 1])
    views = batch_views(ds, fam, batch)
    assert views.shape == (6, 3)
    for t in range(3):
        i = batch.indices[t]
        np.testing.assert_array_equal(views[t],
                                      ds.points[i] + fam.deltas[batch.aug_a[t]])
        np.testing.assert_array_equal(views[3 + t],
                                      ds.points[i] + fam.deltas[batch.aug_b[t]])


def test_create_text_replaces_a_regular_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("older and longer content\n")
    with create_text(str(path)) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"


def test_create_text_writes_through_a_symlink(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("older and longer content\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    with create_text(str(link)) as fh:
        fh.write("new\n")
    assert link.is_symlink()
    assert target.read_text() == "new\n"


def test_create_text_writes_through_a_hard_link(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("older and longer content\n")
    other = tmp_path / "other.txt"
    os.link(path, other)
    with create_text(str(path)) as fh:
        fh.write("new\n")
    assert other.read_text() == "new\n"


def test_create_text_keeps_a_file_it_may_not_write(tmp_path, monkeypatch):
    # A file created anew would get mode 0o644 under this umask; the kept
    # one keeps 0o600. (Root may still open it, so the write succeeds.)
    path = tmp_path / "out.txt"
    path.write_text("older and longer content\n")
    path.chmod(0o600)
    monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
    umask = os.umask(0o022)
    try:
        with create_text(str(path)) as fh:
            fh.write("new\n")
    finally:
        os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert path.read_text() == "new\n"


def test_dataset_roundtrip_labeled(tmp_path):
    pts = np.random.default_rng(6).standard_normal((4, 3))
    ds = Dataset(points=pts, labels=[1, 0, 2, 1])
    path = str(tmp_path / "data.csv")
    save_dataset(ds, path)
    back = load_dataset(path)
    np.testing.assert_array_equal(back.points, ds.points)
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_dataset_roundtrip_unlabeled(tmp_path):
    pts = np.array([[1.0, 2.0], [3.0, -4.0]])
    ds = Dataset(points=pts)
    path = str(tmp_path / "data.csv")
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.labels is None
    np.testing.assert_array_equal(back.points, pts)
    forced = load_dataset(path, labeled=False)
    np.testing.assert_array_equal(forced.points, pts)


def test_load_dataset_empty_file_raises(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        load_dataset(str(path))
