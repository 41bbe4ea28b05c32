"""Encoder forward passes, hand-coded backward passes, and the
finite-difference checker that anchors every gradient test."""

import numpy as np
import pytest

from gcobench import (DegenerateEmbeddingError, EncoderParams, backward_batch,
                      encode, encode_batch, finite_diff_flat,
                      finite_diff_grad, flatten_params, init_encoder,
                      load_encoder, save_encoder, unflatten_params, vjp_sim)
from gcobench.encoder import ARCHITECTURES, _central_diff


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


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_vjp_sim_matches_finite_differences(arch):
    params = init_encoder(arch, 4, 3, d_hidden=5, seed=8)
    rng = np.random.default_rng(9)
    xa, xb = rng.standard_normal(4), rng.standard_normal(4)

    def sim(p):
        return float(encode(p, xa) @ encode(p, xb))

    analytic = vjp_sim(params, xa, xb, 1.0)
    fd = finite_diff_grad(sim, params)
    err = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
    assert err < 1e-7


def test_vjp_sim_linear_in_cotangent():
    params = init_encoder("linear", 3, 2, seed=1)
    xa, xb = np.array([1.0, 0.2, -0.5]), np.array([0.3, -1.0, 0.8])
    base = vjp_sim(params, xa, xb, 1.0)
    np.testing.assert_allclose(vjp_sim(params, xa, xb, 2.5), 2.5 * base,
                               rtol=1e-14)
    np.testing.assert_allclose(vjp_sim(params, xa, xb, -1.0), -base,
                               rtol=1e-14)


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


def test_central_diff_validation():
    with pytest.raises(ValueError):
        _central_diff(lambda x: float(x.sum()), np.zeros(2), h=0.0)
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


def test_load_encoder_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("resnet 3 4\n0.0\n")
    with pytest.raises(ValueError):
        load_encoder(str(bad))
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_encoder(str(empty))
