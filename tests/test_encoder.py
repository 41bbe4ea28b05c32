"""Encoder forward passes, hand-coded backward passes, and the
finite-difference checker that anchors every gradient test."""

import re

import numpy as np
import pytest

from gcobench import (DegenerateEmbeddingError, EncoderParams, backward_batch,
                      encode, encode_batch, finite_diff_flat,
                      finite_diff_grad, flatten_params, init_encoder,
                      load_encoder, save_encoder, unflatten_params)
import gcobench
from gcobench.encoder import ARCHITECTURES, step_params


def test_init_encoder_shapes_and_determinism():
    lin = init_encoder("linear", 5, 3, seed=4)
    assert lin.W1.shape == (3, 5) and lin.W2 is None
    assert lin.d == 15 and lin.m == 3 and lin.d_in == 5
    hid = init_encoder("one_hidden", 5, 3, d_hidden=6, seed=4)
    assert hid.W1.shape == (6, 5) and hid.W2.shape == (3, 6)
    assert hid.d == 48 and hid.m == 3
    again = init_encoder("one_hidden", 5, 3, d_hidden=6, seed=4)
    np.testing.assert_array_equal(hid.W1, again.W1)
    np.testing.assert_array_equal(hid.W2, again.W2)
    assert ARCHITECTURES == ("linear", "one_hidden")


def test_encoder_params_validation():
    with pytest.raises(ValueError):
        EncoderParams(architecture="mlp", W1=np.eye(2))
    # init_encoder passes its architecture on, so an unknown one is refused
    # rather than built as one_hidden.
    with pytest.raises(ValueError, match="^architecture must be one of"):
        init_encoder("resnet", 4, 3)
    with pytest.raises(ValueError):
        EncoderParams(architecture="linear", W1=np.eye(2), W2=np.eye(2))
    with pytest.raises(ValueError):
        EncoderParams(architecture="one_hidden", W1=np.eye(2))
    with pytest.raises(ValueError):
        EncoderParams(architecture="one_hidden", W1=np.eye(3),
                      W2=np.ones((2, 2)))
    with pytest.raises(ValueError):
        EncoderParams(architecture="linear", W1=np.ones((1, 4)))
    with pytest.raises(ValueError):
        EncoderParams(architecture="linear", W1=np.array([[np.nan, 0.0],
                                                          [0.0, 1.0]]))


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_flatten_unflatten_roundtrip(arch):
    params = init_encoder(arch, 4, 3, d_hidden=5, seed=2)
    vec = flatten_params(params)
    assert vec.shape == (params.d,)
    back = unflatten_params(params, vec)
    np.testing.assert_array_equal(back.W1, params.W1)
    if params.W2 is not None:
        np.testing.assert_array_equal(back.W2, params.W2)
    with pytest.raises(ValueError):
        unflatten_params(params, vec[:-1])


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_encode_batch_unit_norms(arch):
    params = init_encoder(arch, 4, 3, d_hidden=5, seed=2)
    X = np.random.default_rng(3).standard_normal((7, 4))
    E, cache = encode_batch(params, X)
    assert E.shape == (7, 3)
    np.testing.assert_allclose(np.linalg.norm(E, axis=1), np.ones(7),
                               rtol=1e-12)
    np.testing.assert_allclose(encode(params, X[2]), E[2], rtol=1e-15)
    assert cache.norms.shape == (7,)


def test_encode_degenerate_raises():
    params = EncoderParams(architecture="linear", W1=np.zeros((2, 3)))
    with pytest.raises(DegenerateEmbeddingError):
        encode(params, np.ones(3))


@pytest.mark.parametrize("scale", [1e300, np.nan])
def test_encode_non_finite_norm_raises(scale):
    # 1e300 keeps the weights finite but overflows the norm to inf.
    params = EncoderParams(architecture="linear", W1=np.eye(2))
    with pytest.raises(DegenerateEmbeddingError, match="not finite"):
        encode_batch(params, np.array([[1.0, 0.0], [scale, scale]]))


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_backward_batch_matches_finite_differences(arch):
    params = init_encoder(arch, 4, 3, d_hidden=5, seed=6)
    rng = np.random.default_rng(7)
    X = rng.standard_normal((5, 4))
    cot = rng.standard_normal((5, 3))

    def f(p):
        E, _ = encode_batch(p, X)
        return float(np.sum(cot * E))

    _, cache = encode_batch(params, X)
    analytic = backward_batch(params, cache, cot)
    fd = finite_diff_grad(f, params)
    err = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
    assert err < 1e-7


def test_finite_diff_grad_exact_on_quadratic():
    params = init_encoder("linear", 3, 2, seed=5)

    def f(p):
        return float(np.sum(p.W1 ** 2))

    fd = finite_diff_grad(f, params)
    np.testing.assert_allclose(fd, 2.0 * flatten_params(params),
                               rtol=1e-9, atol=1e-9)


def test_finite_diff_flat_exact_on_quadratic():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((5, 5))
    A = A + A.T
    x0 = rng.standard_normal(5)
    fd = finite_diff_flat(lambda x: float(x @ A @ x), x0)
    np.testing.assert_allclose(fd, 2.0 * A @ x0, rtol=1e-8, atol=1e-9)


def test_finite_diff_flat_of_a_vector_function():
    """A column per output, exact for quadratics at these dyadic points; a
    non-finite second output names its coordinate."""
    x0 = np.array([1.0, -2.0, 3.0])
    fd = finite_diff_flat(
        lambda x: np.array([x @ x, x[0] * x[1] + 2 * x[2] ** 2]), x0, h=0.5)
    assert np.array_equal(fd, [[2.0, -2.0], [-4.0, 1.0], [6.0, 12.0]])
    with pytest.raises(ValueError,
                       match="^non-finite function value at coordinate 1$"):
        finite_diff_flat(lambda x: np.array([x.sum(), np.nan if x[1] else 0.0]),
                         np.zeros(3), h=0.5)


def test_finite_diff_flat_validation():
    with pytest.raises(ValueError):
        finite_diff_flat(lambda x: float(x.sum()), np.zeros(2), h=0.0)
    with pytest.raises(ValueError):
        finite_diff_flat(lambda x: float("nan"), np.zeros(2))


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_encoder_checkpoint_roundtrip(arch, tmp_path):
    params = init_encoder(arch, 4, 3, d_hidden=5, seed=11)
    path = str(tmp_path / "enc.txt")
    save_encoder(params, path)
    back = load_encoder(path)
    assert back.architecture == arch
    np.testing.assert_array_equal(back.W1, params.W1)
    if params.W2 is not None:
        np.testing.assert_array_equal(back.W2, params.W2)


@pytest.mark.parametrize("arch", ARCHITECTURES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_public_rebuilds_refuse_non_finite_values(arch, bad, tmp_path):
    """The step rebuilds its params through step_params, unchecked, because
    its rule has checked w. unflatten_params and load_encoder keep the
    check, which is the only one a checkpoint of 'nan' or 'inf' meets:
    save_encoder writes such a value as that text. The value sits in the
    output layer, W1 when linear, else W2."""
    params = init_encoder(arch, 3, 2, d_hidden=4, seed=1)
    layer = "W1" if arch == "linear" else "W2"
    vec = flatten_params(params)
    np.testing.assert_array_equal(flatten_params(step_params(params, vec)),
                                  vec)
    assert not hasattr(gcobench, "step_params")
    vec[-1] = bad
    with pytest.raises(ValueError, match=f"^{layer} must be finite"):
        unflatten_params(params, vec)
    path = tmp_path / "enc.txt"
    save_encoder(params, str(path))
    *head, _ = path.read_text().splitlines(keepends=True)
    path.write_text("".join(head) + repr(bad) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: {layer} must")):
        load_encoder(str(path))


def test_load_encoder_rejects_bad_files(tmp_path):
    """Each error names the file. Sizes past memory are refused before
    anything of that size is allocated. int and float read the last six
    files, but save_encoder would write the parameters they give as other
    text."""
    bad = tmp_path / "bad.txt"
    save_encoder(init_encoder("linear", 2, 2, seed=1), str(bad))
    head, first, *rest = bad.read_text().splitlines(keepends=True)
    rest = "".join(rest)
    for text in ("resnet 3 4\n0.0\n",              # unknown architecture
                 "",                                # empty file
                 "linear 4\n0.0\n",                 # header without sizes
                 "linear 4 3\n" + "0.5\n" * 11,     # one value short
                 "linear 100000000000 3\n0.5\n",    # sizes past memory
                 "linear 0 3\n",                    # a layer of width 0
                 "one_hidden 0 2 3\n" + "0.5\n" * 6,
                 head + first + "\n" + rest,        # a blank line
                 head + "1_0\n" + rest,
                 head + " " + first + rest,         # a leading space
                 head + "+0.5\n" + rest,
                 head.replace(" ", "  ", 1) + first + rest,
                 (head + first + rest).replace("\n", "\r\n")):
        bad.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            load_encoder(str(bad))

