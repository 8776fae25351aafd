import numpy as np
import pytest

from tin import nets
from tin.blocks import OffsetNet, ReLU, WeightNet
from tin.errors import NonFiniteError, ShapeError
from tin.nets import (offsetnet_forward, pool_descriptor, pool_descriptor_vjp, rescale_offsets,
                      rescale_offsets_vjp, weightnet_forward)
from tin.tensors import Rng


# ---------------------------------------------------------------------------
# pooling

def test_pool_constant_input():
    u = np.full((5, 3, 4, 4), 2.5)
    z = pool_descriptor(u)
    assert z.shape == (3, 5)
    assert np.all(z == 2.5)


def test_pool_degenerate_spatial_extent_is_transpose():
    u = Rng(0).uniform([6, 4, 1, 1], -1.0, 1.0)
    z = pool_descriptor(u)
    assert np.array_equal(z, u[:, :, 0, 0].T)


def test_pool_matches_double_loop():
    u = Rng(1).uniform([4, 3, 5, 6], -1.0, 1.0)
    z = pool_descriptor(u)
    for t in range(4):
        for c in range(3):
            acc = 0.0
            for a in range(5):
                for b in range(6):
                    acc += u[t, c, a, b]
            assert abs(z[c, t] - acc / 30.0) < 1e-12


def test_pool_batched_matches_per_clip():
    u = Rng(2).uniform([3, 4, 2, 3, 3], -1.0, 1.0)
    z = pool_descriptor(u)
    assert z.shape == (3, 2, 4)
    for i in range(3):
        assert np.array_equal(z[i], pool_descriptor(u[i]))


def test_pool_vjp_spreads_uniformly():
    gz = Rng(3).uniform([2, 5], -1.0, 1.0)
    gu = pool_descriptor_vjp(gz, 4, 4)
    assert gu.shape == (5, 2, 4, 4)
    assert abs(gu[3, 1, 2, 2] - gz[1, 3] / 16.0) < 1e-15


def test_pool_invariant_to_spatial_permutation():
    # integer-valued data keeps the mean exact, so outputs match bit for bit
    rng = Rng(4)
    u = np.round(rng.uniform([4, 3, 4, 4], 0.0, 9.0))
    perm = rng.child("p").permutation(16)
    u_perm = u.reshape(4, 3, 16)[:, :, perm].reshape(4, 3, 4, 4)
    assert np.array_equal(pool_descriptor(u), pool_descriptor(u_perm))


# ---------------------------------------------------------------------------
# offset net

def test_offsetnet_initial_raw_is_half():
    p = OffsetNet(8, 16, 4, Rng(5))
    z = Rng(6).uniform([3, 16, 8], -3.0, 3.0)
    raw, _ = offsetnet_forward(z, p)
    assert np.all(raw == 0.5)


def test_offsetnet_output_strictly_inside_unit_interval():
    rng = Rng(7)
    p = OffsetNet(8, 16, 4, rng)
    p.fc2_w[:] = rng.child("w2").uniform([4, 8], -2.0, 2.0)
    for i in range(10):
        z = rng.child(f"z{i}").uniform([1, 16, 8], -5.0, 5.0)
        raw, _ = offsetnet_forward(z, p)
        assert np.all(raw > 0.0) and np.all(raw < 1.0)


def test_offsetnet_matches_straight_line_recomputation():
    rng = Rng(8)
    p = OffsetNet(6, 5, 3, rng)
    p.fc2_w[:] = rng.child("w2").uniform([3, 6], -1.0, 1.0)
    p.fc2_b[:] = rng.child("b2").uniform([3], -1.0, 1.0)
    z = rng.child("z").uniform([5, 6], -1.0, 1.0)
    (raw,), _ = offsetnet_forward(z[None], p)

    zp = np.zeros((5, 8))
    zp[:, 1:-1] = z
    s = np.zeros(6)
    for t in range(6):
        for c in range(5):
            for k in range(3):
                s[t] += p.conv[0, c, k] * zp[c, t + k]
    h = np.maximum(p.fc1_w @ s + p.fc1_b, 0.0)
    ref = 1.0 / (1.0 + np.exp(-(p.fc2_w @ h + p.fc2_b)))
    assert np.max(np.abs(raw - ref)) < 1e-12


def test_offsetnet_invariant_to_spatial_permutation_of_input():
    rng = Rng(9)
    p = OffsetNet(4, 3, 2, rng)
    p.fc2_w[:] = rng.child("w2").uniform([2, 4], -1.0, 1.0)
    u = np.round(rng.child("u").uniform([1, 4, 3, 3, 3], 0.0, 9.0))
    perm = rng.child("perm").permutation(9)
    u_perm = u.reshape(1, 4, 3, 9)[..., perm].reshape(1, 4, 3, 3, 3)
    a, _ = offsetnet_forward(pool_descriptor(u), p)
    b, _ = offsetnet_forward(pool_descriptor(u_perm), p)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# rescale

def test_rescale_center_maps_to_zero():
    assert np.all(rescale_offsets(np.array([0.5, 0.5]), 8, False) == 0.0)


def test_rescale_paper_arithmetic():
    out = rescale_offsets(np.array([0.75]), 8, False)
    assert out[0] == 2.0


def test_rescale_range_property():
    raw = Rng(10).uniform([10**4], 1e-12, 1.0)
    for t in (4, 8, 16):
        off = rescale_offsets(raw, t, False)
        assert np.all(off > -t / 2) and np.all(off < t / 2)


def test_rescale_mirror_consumes_half():
    raw = np.array([0.75, 0.625, 0.1, 0.9])  # second half ignored
    off = rescale_offsets(raw, 8, True)
    assert np.array_equal(off[:2], [2.0, 1.0])
    assert np.array_equal(off[2:], [-2.0, -1.0])


def test_rescale_mirror_exact_antisymmetry():
    raw = Rng(11).uniform([6], 0.01, 0.99)
    off = rescale_offsets(raw, 16, True)
    assert np.array_equal(off[3:], -off[:3])


def test_rescale_rejects_out_of_range():
    with pytest.raises(ShapeError):
        rescale_offsets(np.array([0.0]), 8, False)
    with pytest.raises(ShapeError):
        rescale_offsets(np.array([1.0]), 8, False)


def test_rescale_rejects_non_finite_raw_offsets():
    for bad in (np.nan, np.inf):
        for mirror in (False, True):
            with pytest.raises(NonFiniteError):
                rescale_offsets(np.array([bad, 0.5]), 8, mirror)


def test_rescale_vjp_plain_and_mirror():
    g = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(rescale_offsets_vjp(g, 8, False), g * 8)
    gm = rescale_offsets_vjp(g, 8, True)
    assert np.array_equal(gm, [(1.0 - 3.0) * 8, (2.0 - 4.0) * 8, 0.0, 0.0])


# ---------------------------------------------------------------------------
# weight net

def test_weightnet_initial_output_is_one():
    p = WeightNet(8, 16, 4, Rng(12))
    z = Rng(13).uniform([3, 16, 8], -3.0, 3.0)
    w, _ = weightnet_forward(z, p)
    assert np.all(w == 1.0)


def test_weightnet_range():
    rng = Rng(14)
    p = WeightNet(8, 16, 4, rng)
    p.conv[:] = rng.child("k").uniform(p.conv.shape, -2.0, 2.0)
    p.bias[:] = rng.child("b").uniform([4], -2.0, 2.0)
    for i in range(10):
        z = rng.child(f"z{i}").uniform([1, 16, 8], -5.0, 5.0)
        w, _ = weightnet_forward(z, p)
        assert np.all(w > 0.0) and np.all(w < 2.0)


def test_weightnet_matches_loop_conv_oracle():
    rng = Rng(15)
    p = WeightNet(6, 4, 3, rng)
    p.conv[:] = rng.child("k").uniform([3, 4, 3], -1.0, 1.0)
    p.bias[:] = rng.child("b").uniform([3], -1.0, 1.0)
    z = rng.child("z").uniform([4, 6], -1.0, 1.0)
    (w,), _ = weightnet_forward(z[None], p)

    zp = np.zeros((4, 8))
    zp[:, 1:-1] = z
    for g in range(3):
        for t in range(6):
            acc = p.bias[g]
            for c in range(4):
                for k in range(3):
                    acc += p.conv[g, c, k] * zp[c, t + k]
            assert abs(w[g, t] - 2.0 / (1.0 + np.exp(-acc))) < 1e-12


def test_weightnet_channel_mean_mode():
    rng = Rng(16)
    p = WeightNet(6, 4, 2, rng, input_mode="channel_mean")
    assert p.conv.shape == (2, 1, 3)
    p.conv[:] = rng.child("k").uniform([2, 1, 3], -1.0, 1.0)
    z = rng.child("z").uniform([1, 4, 6], -1.0, 1.0)
    w, _ = weightnet_forward(z, p)
    zm = z.mean(axis=1, keepdims=True)
    p2 = WeightNet(6, 1, 2, rng, input_mode="descriptor")
    p2.conv[:], p2.bias[:] = p.conv, p.bias
    w2, _ = weightnet_forward(zm, p2)
    assert np.max(np.abs(w - w2)) < 1e-15


def test_nets_backward_zero_upstream_gives_zero_param_grads():
    rng = Rng(17)
    op = OffsetNet(6, 4, 2, rng.child("o"))
    wp = WeightNet(6, 4, 2, rng.child("w"))
    z = rng.child("z").uniform([1, 4, 6], -1.0, 1.0)
    _, otape = offsetnet_forward(z, op)
    _, wtape = weightnet_forward(z, wp)
    ograds, wgrads, gz = nets.nets_backward(np.zeros((1, 2)), np.zeros((1, 2, 6)),
                                            otape, wtape, op, wp, mirror=False)
    assert all(not g.any() for g in ograds.values())
    assert all(not g.any() for g in wgrads.values())
    assert not gz.any()


def test_relu_vjp_zeroes_negative_preactivations():
    pre = np.array([-1.0, 0.0, 2.0, -0.5])
    _, tape = ReLU().forward(pre)
    g, _ = ReLU().backward(np.ones(4), tape)
    assert np.array_equal(g, [0.0, 0.0, 1.0, 0.0])


def test_sigmoid_saturation_stays_inside_open_interval():
    x = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])
    s = nets.sigmoid(x)
    assert np.all(np.isfinite(s))
    assert np.all(s > 0.0) and np.all(s < 1.0)
    assert s[2] == 0.5


def test_sigmoid_keeps_float32_strictly_inside_the_open_intervals():
    x = np.array([-800.0, 0.0, 800.0], dtype=np.float32)
    s = nets.sigmoid(x)
    assert s.dtype == np.float32
    assert np.all(s > 0.0) and np.all(s < 1.0)
    assert s[1] == 0.5
    for t in (4, 7, 8, 16):
        off = rescale_offsets(s, t, False)
        assert off.dtype == np.float32
        assert np.all(off > -t / 2) and np.all(off < t / 2)


def test_descriptor_of_the_wrong_shape_is_rejected():
    p = OffsetNet(6, 4, 2, Rng(18))
    for shape in ([4, 6], [1, 4, 5], [1, 3, 6]):
        with pytest.raises(ShapeError):
            offsetnet_forward(np.zeros(shape), p)
    with pytest.raises(ShapeError):
        weightnet_forward(np.zeros([1, 4, 5]), WeightNet(6, 4, 2, Rng(19)))
