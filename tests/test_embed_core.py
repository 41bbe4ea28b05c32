"""Datasets, augmentation families, samplers, and output files."""

import os
import re
import stat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcobench import (AugmentationFamily, Dataset, EncoderParams,
                      GlobalObjectiveConfig, MiniBatch, MinibatchSampler,
                      PairedDataset, all_views, apply_augmentation,
                      batch_views, g_minibatch, generate_synthetic,
                      init_encoder, make_augmentation_family, oracle_F,
                      sample_minibatch, simclr_estimator)
import gcobench
from gcobench.embed_core import SAMPLING_MODES, IndexSampler, write_text

import reference


def test_dataset_properties_and_validation():
    ds = Dataset(points=np.arange(6.0).reshape(3, 2))
    assert ds.n == 3 and ds.d_in == 2
    with pytest.raises(ValueError):
        Dataset(points=np.ones((1, 2)))
    with pytest.raises(ValueError):
        Dataset(points=np.array([[1.0, np.nan], [0.0, 1.0]]))


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


def test_zero_width_arrays_are_refused():
    """A (rows, 0) array would pass every other check and fail only later,
    with an error that names no argument."""
    for name, make in (
            ("dataset points", lambda a: Dataset(points=a)),
            ("deltas", lambda a: AugmentationFamily(deltas=a)),
            ("image", lambda a: PairedDataset(image=a, text=np.eye(3))),
            ("text", lambda a: PairedDataset(image=np.eye(3), text=a)),
            ("W1", lambda a: EncoderParams("linear", a))):
        with pytest.raises(ValueError,
                           match=f"^{name} must have 1 or more columns$"):
            make(np.zeros((3, 0)))


def test_deltas_of_another_width_than_the_data_are_refused():
    """numpy would add a one-column delta to every coordinate, or a row of
    one-column data to every delta column, and give finite numbers."""
    cfg = GlobalObjectiveConfig(tau=0.2)
    batch = MiniBatch(indices=[1, 2, 3], aug_a=[0, 1, 0], aug_b=[1, 1, 0])
    wide = generate_synthetic(8, 4, 2, 3.0, 7)
    narrow = Dataset(points=wide.points[:, :1])
    for ds, fam, width in (
            (wide, AugmentationFamily(deltas=[[0.1], [-0.2]]), 1),
            (narrow, make_augmentation_family(4, K=2, seed=1), 4)):
        params = init_encoder("linear", ds.d_in, 3, seed=3)
        shape = re.escape(str(ds.points.shape))
        for call in (lambda: all_views(ds, fam),
                     lambda: batch_views(ds, fam, batch),
                     lambda: oracle_F(params, cfg, ds, fam),
                     lambda: simclr_estimator(params, cfg, batch, ds, fam)):
            with pytest.raises(ValueError, match=(
                    f"^dataset points of shape {shape} and deltas of width "
                    f"{width} differ in width$")):
                call()
        for call in (lambda: apply_augmentation(fam, 0, ds.points[0]),
                     lambda: g_minibatch(params, cfg, 0, 0, batch, ds, fam)):
            with pytest.raises(ValueError, match=(
                    rf"^x of shape \({ds.d_in},\) and deltas of width "
                    f"{width} differ in width$")):
                call()


def test_minibatch_validation():
    batch = MiniBatch(indices=[0, 1, 2], aug_a=[0, 1, 0], aug_b=[1, 1, 0])
    assert batch.B == 3
    with pytest.raises(ValueError):
        MiniBatch(indices=[0], aug_a=[0], aug_b=[0])
    with pytest.raises(ValueError):
        MiniBatch(indices=[0, 1], aug_a=[0], aug_b=[0, 1])
    for aug_a, aug_b in (([0, 1], [0, 1, 0]), ([0, 1, 0], [0, 1])):
        with pytest.raises(ValueError, match="^aug_a and aug_b must match "
                                             "indices in length"):
            MiniBatch(indices=[0, 1, 2], aug_a=aug_a, aug_b=aug_b)
    # Mixed integer dtypes, which numpy promotes to float64 when they are
    # combined, are each kept with their values as np.int_ arrays.
    mixed = MiniBatch(indices=np.array([3, 0, 2], dtype=np.uint64),
                      aug_a=np.array([1, 0, 1], dtype=np.int32),
                      aug_b=[0, 0, 1])
    for got, want in zip((mixed.indices, mixed.aug_a, mixed.aug_b),
                         ([3, 0, 2], [1, 0, 1], [0, 0, 1])):
        assert got.dtype == np.int_
        np.testing.assert_array_equal(got, want)
    # numpy would wrap -1 to the last sample, and masking by index value
    # would then let sample n - 1 be its own negative.
    with pytest.raises(ValueError, match="^indices must be nonnegative"):
        MiniBatch(indices=[-1, 3], aug_a=[0, 1], aug_b=[1, 0])
    # An unsigned entry past np.int_'s range would wrap to a negative index.
    for big in (2**64 - 1, 2**63 + 1):
        with pytest.raises(ValueError, match="^indices must be nonnegative"):
            MiniBatch(indices=np.array([big, 0], dtype=np.uint64),
                      aug_a=[0, 1], aug_b=[0, 1])
    # numpy would truncate 0.5 and 2.7 to samples 0 and 2, and 1.9 to view
    # 1; a negative view would wrap to view K - 1.
    with pytest.raises(ValueError, match="^indices must hold integers"):
        MiniBatch(indices=[0.5, 2.7], aug_a=[0, 1], aug_b=[1, 0])
    with pytest.raises(ValueError, match="^aug_a must hold integers"):
        MiniBatch(indices=[0, 1], aug_a=[0, 1.9], aug_b=[1, 0])
    with pytest.raises(ValueError, match="^aug_a must be nonnegative"):
        MiniBatch(indices=[0, 1], aug_a=[0, -1], aug_b=[1, 0])
    with pytest.raises(ValueError, match="^aug_b must hold integers"):
        MiniBatch(indices=[0, 1], aug_a=[0, 1], aug_b=[1.0, 0.0])
    with pytest.raises(ValueError, match="^aug_b must be nonnegative"):
        MiniBatch(indices=[0, 1], aug_a=[0, 1], aug_b=[-2, 0])
    # Stacked with integer rows, a mask would read as sample indices 1, 0, 1.
    with pytest.raises(ValueError,
                       match="^indices must hold integers, not bool"):
        MiniBatch(indices=np.array([True, False, True]), aug_a=[0, 1, 0],
                  aug_b=[1, 0, 1])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), B=st.integers(2, 6))
def test_minibatch_keeps_integer_triples_and_refuses_others(data, B):
    """A nonnegative integer triple is kept as given; one float or negative
    entry in any of the three, or a bool mask for one, is refused, naming
    its argument."""
    names = ("indices", "aug_a", "aug_b")
    triple = [data.draw(st.lists(st.integers(0, 2**62), min_size=B,
                                 max_size=B), label=name) for name in names]
    batch = MiniBatch(*triple)
    for name, values in zip(names, triple):
        np.testing.assert_array_equal(getattr(batch, name), values)
    field = data.draw(st.integers(0, 2), label="field")
    slot = data.draw(st.integers(0, B - 1), label="slot")
    if data.draw(st.booleans(), label="mask"):
        triple[field] = np.array(data.draw(
            st.lists(st.booleans(), min_size=B, max_size=B), label="mask values"))
    else:
        triple[field][slot] = data.draw(st.integers(-2**63, -1) | st.floats(),
                                        label="bad entry")
    with pytest.raises(ValueError, match=f"^{names[field]} must"):
        MiniBatch(*triple)


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
    # Integer settings refuse a float or a bool when the sampler is built,
    # not at its first draw (rng.integers would take n = 8.5 silently).
    for n, B in ((8, 2.5), (8, 2.0), (8, True), (8.5, 2), (np.float64(8), 2)):
        with pytest.raises(ValueError, match="must be an integer"):
            IndexSampler(n, B, rng, "with_replacement")
    IndexSampler(np.int64(8), np.int32(2), rng, "with_replacement")
    assert SAMPLING_MODES == ("epoch_shuffle", "with_replacement")


@pytest.mark.parametrize("mode", SAMPLING_MODES)
def test_sampler_batches_equal_checked_minibatches(mode):
    """The sampler builds its batches without MiniBatch's checks, through a
    path the package does not export. Each batch equals the MiniBatch built
    with the checks from the same arrays, in dtype, shape and values; the
    public MiniBatch still refuses a bool mask, a negative and a float."""
    ds = Dataset(points=np.arange(14.0).reshape(7, 2))
    fam = AugmentationFamily(deltas=np.zeros((3, 2)))
    sampler = MinibatchSampler(ds, fam, 5, np.random.default_rng(8), mode)
    names = ("indices", "aug_a", "aug_b")
    for _ in range(6):          # epoch_shuffle carries a remainder across
        batch = sampler.next_batch()
        checked = MiniBatch(*(getattr(batch, name) for name in names))
        for name in names:
            a, b = getattr(batch, name), getattr(checked, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape) == (np.int_, (5,))
            np.testing.assert_array_equal(a, b)
    assert not hasattr(gcobench, "unchecked")
    for bad in (np.ones(5, dtype=bool), [0, 1, -1, 2, 3], [0, 1, 2.0, 3, 4]):
        with pytest.raises(ValueError, match="^indices must"):
            MiniBatch(indices=bad, aug_a=batch.aug_a, aug_b=batch.aug_b)


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


@pytest.mark.parametrize("mode", SAMPLING_MODES)
@pytest.mark.parametrize("B", [2, 7])
@pytest.mark.parametrize("K", [1, 3])
def test_sample_minibatch_matches_reference_stream(mode, B, K):
    # Criteria 3 and 6 consume this stream: every draw and the generator
    # state after it must match the one-shot sampler bit for bit.
    ds = Dataset(points=np.random.default_rng(1).standard_normal((7, 3)))
    fam = make_augmentation_family(3, K=K)
    rng, rng_ref = np.random.default_rng(13), np.random.default_rng(13)
    for _ in range(20):
        got = sample_minibatch(ds, fam, B, rng, mode)
        want = reference.sample_minibatch(ds, fam, B, rng_ref, mode)
        for name in ("indices", "aug_a", "aug_b"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


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


def test_write_text_replaces_a_regular_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("older and longer content\n")
    with open(path) as old:
        write_text(str(path), "new\n", "test output")
        # Unlinked, not truncated: the open old file keeps its text.
        assert os.fstat(old.fileno()).st_nlink == 0
        assert old.read() == "older and longer content\n"
    assert path.read_text() == "new\n"


def test_write_text_writes_through_a_symlink(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("older and longer content\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_text(str(link), "new\n", "test output")
    assert link.is_symlink()
    assert target.read_text() == "new\n"


def test_write_text_writes_through_a_hard_link(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("older and longer content\n")
    other = tmp_path / "other.txt"
    os.link(path, other)
    write_text(str(path), "new\n", "test output")
    assert other.read_text() == "new\n"


def test_write_text_keeps_a_file_it_may_not_write(tmp_path, monkeypatch):
    # A file created anew would get mode 0o644 under this umask; the kept
    # one keeps 0o600. (Root may still open it, so the write succeeds.)
    path = tmp_path / "out.txt"
    path.write_text("older and longer content\n")
    path.chmod(0o600)
    monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
    umask = os.umask(0o022)
    try:
        write_text(str(path), "new\n", "test output")
    finally:
        os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert path.read_text() == "new\n"
