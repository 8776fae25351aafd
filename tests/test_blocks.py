import math
import tracemalloc

import numpy as np
import pytest

from tin import blocks
from tin.blocks import (Layer, Linear, PointwiseConv2d, PointwiseConv2dMaxPool,
                        PointwiseConv2dReLU, ReLU, TemporalConv, TinBlock, Chain,
                        cross_entropy, make_toy_net)
from tin.errors import ShapeError
from tin.interlace import InterlaceConfig, interlace_forward
from tin.tcn import DenseTemporalKernel, dense_tconv
from tin.tensors import Rng


def fresh_block(t=8, c=16, rng_seed=0, **cfg_kwargs):
    cfg = InterlaceConfig(t=t, c=c, **cfg_kwargs)
    return TinBlock(cfg, Rng(rng_seed))


def test_block_fresh_init_is_bit_exact_identity():
    block = fresh_block()
    u = Rng(1).uniform([8, 16, 5, 5], -2.0, 2.0)
    v, _ = block.forward(u)
    assert np.array_equal(v, u)


def test_block_fresh_init_identity_batched():
    block = fresh_block()
    u = Rng(2).uniform([3, 8, 16, 4, 4], -2.0, 2.0)
    v, _ = block.forward(u)
    assert np.array_equal(v, u)


def test_block_frozen_nets_reduce_to_temporal_sample():
    # nets pinned to emit offset 1.3 on a full-channel single group
    from tin.interlace import temporal_sample

    cfg = InterlaceConfig(t=8, c=4, g=1, shift_fraction=1.0, mirror=False)
    block = TinBlock(cfg, Rng(3))
    raw = 0.5 + 1.3 / 8  # rescale inverse for offset 1.3
    block.onet.fc2_b[:] = math.log(raw / (1 - raw))
    u = Rng(4).uniform([8, 4, 3, 3], -1.0, 1.0)
    v, tape = block.forward(u)
    assert abs(tape["offsets"][0, 0] - 1.3) < 1e-12
    assert np.max(np.abs(v - temporal_sample(u, tape["offsets"][0, 0]))) < 1e-12


def test_block_backward_zero_grad():
    block = fresh_block()
    u = Rng(5).uniform([8, 16, 3, 3], -1.0, 1.0)
    v, tape = block.forward(u)
    gu, grads = block.backward(np.zeros_like(v), tape)
    assert not gu.any()
    assert all(not g.any() for g in grads.values())


def test_temporal_conv_identity_init():
    layer = TemporalConv(4, "tc")
    x = Rng(7).uniform([2, 6, 4, 3, 3], -1.0, 1.0)
    y, _ = layer.forward(x)
    assert np.array_equal(y, x)


def test_temporal_conv_matches_loop():
    layer = TemporalConv(2, "tc")
    rng = Rng(8)
    layer.taps[:] = rng.uniform([2, 3], -1.0, 1.0)
    x = rng.child("x").uniform([1, 5, 2, 2, 2], -1.0, 1.0)
    y, _ = layer.forward(x)
    for t in range(5):
        for c in range(2):
            acc = np.zeros((2, 2))
            for j, s in enumerate((-1, 0, 1)):
                if 0 <= t + s < 5:
                    acc += layer.taps[c, j] * x[0, t + s, c]
            assert np.max(np.abs(y[0, t, c] - acc)) < 1e-12


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("t", [1, 2, 8])
def test_temporal_conv_matches_dense_oracle(k, t):
    rng = Rng(10 * k + t)
    layer = TemporalConv(3, "tc", k=k)
    layer.taps[:] = rng.uniform([3, k], -1.0, 1.0)
    x = rng.child("x").uniform([2, t, 3, 2, 2], -1.0, 1.0)
    y, _ = layer.forward(x)
    kernel = DenseTemporalKernel.stationary(layer.taps, t)
    for n in range(2):
        assert np.max(np.abs(y[n] - dense_tconv(x[n], kernel))) < 1e-12


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("t", [1, 2, 8])
def test_temporal_conv_backward_is_the_adjoint(k, t):
    # <B x, g> = <x, B^T g>; the output is also linear in the taps, so
    # <y(taps'), g> = <taps', grad_taps> for any other taps'
    rng = Rng(100 + 10 * k + t)
    layer = TemporalConv(3, "tc", k=k)
    layer.taps[:] = rng.uniform([3, k], -1.0, 1.0)
    x = rng.child("x").uniform([2, t, 3, 2, 2], -1.0, 1.0)
    g = rng.child("g").uniform([2, t, 3, 2, 2], -1.0, 1.0)
    y, tape = layer.forward(x)
    grad_x, grads = layer.backward(g, tape)
    assert abs(np.sum(y * g) - np.sum(x * grad_x)) < 1e-12
    other = rng.child("taps").uniform([3, k], -1.0, 1.0)
    layer.taps[:] = other
    y_other, _ = layer.forward(x)
    assert abs(np.sum(y_other * g) - np.sum(other * grads["taps"])) < 1e-12


def test_temporal_conv_reads_its_live_taps():
    # training and the benchmark's central differences write through
    # named_params() in place; the next forward and backward must see it
    layer = TemporalConv(3, "tc")
    rng = Rng(12)
    x = rng.uniform([2, 8, 3, 2, 2], -1.0, 1.0)
    y0, _ = layer.forward(x)
    flat = layer.named_params()["taps"].reshape(-1)
    flat[0] += 0.5                                     # channel 0, frame t - 1
    y1, tape = layer.forward(x)
    want = np.zeros_like(x)
    want[:, 1:, 0] = 0.5 * x[:, :-1, 0]
    assert np.max(np.abs(y1 - y0 - want)) < 1e-15
    kernel = DenseTemporalKernel.stationary(layer.taps, 8)
    for n in range(2):
        assert np.max(np.abs(y1[n] - dense_tconv(x[n], kernel))) < 1e-12
    g = rng.child("g").uniform([2, 8, 3, 2, 2], -1.0, 1.0)
    grad_x, _ = layer.backward(g, tape)
    assert abs(np.sum(y1 * g) - np.sum(x * grad_x)) < 1e-12


def _conv1d_loop(x, w, b):
    """y[n, o, t] = b[o] + sum over c, j of w[o, c, j] x[n, c, t + j - 1], zero outside the clip."""
    n, cin, t = x.shape
    y = np.zeros((n, w.shape[0], t))
    for i in range(n):
        for o in range(w.shape[0]):
            for s in range(t):
                acc = 0.0 if b is None else b[o]
                for c in range(cin):
                    for j in range(3):
                        if 0 <= s + j - 1 < t:
                            acc += w[o, c, j] * x[i, c, s + j - 1]
                y[i, o, s] = acc
    return y


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("cin, cout", [(1, 2), (5, 1), (5, 4)])
@pytest.mark.parametrize("t", [1, 2, 8])
def test_conv1d_matches_loop_oracle_and_its_backward_is_the_adjoint(t, cin, cout, bias):
    rng = Rng(1000 + 100 * t + 10 * cin + cout)
    conv = blocks.Conv1d(cin, cout, rng.child("w"), "conv", bias=bias, scale=1.0)
    if bias:
        conv.b[:] = rng.child("b").uniform([cout], -1.0, 1.0)
    x = rng.child("x").uniform([3, cin, t], -1.0, 1.0)
    g = rng.child("g").uniform([3, cout, t], -1.0, 1.0)
    y, tape = conv.forward(x)
    assert np.max(np.abs(y - _conv1d_loop(x, conv.w, conv.b))) < 1e-12
    grad_x, grads = conv.backward(g, tape)
    assert grads.keys() == ({"w", "b"} if bias else {"w"})
    # the bias-free map is linear in x and in w: <y, g> = <x, grad_x> = <w, grad_w>
    y0 = y - (conv.b[None, :, None] if bias else 0.0)
    assert abs(np.sum(y0 * g) - np.sum(x * grad_x)) < 1e-12
    assert abs(np.sum(y0 * g) - np.sum(conv.w * grads["w"])) < 1e-12
    if bias:
        assert np.max(np.abs(grads["b"] - g.sum(axis=(0, 2)))) < 1e-12


def test_conv1d_reads_its_live_weights():
    # the generator nets and the gradient checker write through
    # named_params() in place; the next forward and backward must see it
    rng = Rng(21)
    conv = blocks.Conv1d(3, 2, rng.child("w"), "conv")
    x = rng.child("x").uniform([2, 3, 8], -1.0, 1.0)
    y0, _ = conv.forward(x)
    conv.named_params()["w"][1, 2, 0] += 0.5          # output 1, input 2, frame t - 1
    y1, tape = conv.forward(x)
    want = np.zeros_like(y0)
    want[:, 1, 1:] = 0.5 * x[:, 2, :-1]
    assert np.max(np.abs(y1 - y0 - want)) < 1e-15
    assert np.max(np.abs(y1 - _conv1d_loop(x, conv.w, conv.b))) < 1e-12
    g = rng.child("g").uniform([2, 2, 8], -1.0, 1.0)
    grad_x, _ = conv.backward(g, tape)
    assert abs(np.sum(y1 * g) - np.sum(x * grad_x)) < 1e-12


def _arrays(obj) -> list:
    """Every array held in a tape: in dicts, lists, tuples and object attributes."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif hasattr(obj, "__dict__"):
        obj = list(vars(obj).values())
    if isinstance(obj, (list, tuple)):
        return [a for o in obj for a in _arrays(o)]
    return []


@pytest.mark.parametrize("temporal", ["tin", "tcn", "none"])
def test_no_layer_writes_into_its_input_gradient_or_tape(temporal):
    # a tape can be the next layer's input and tape (ReLU keeps its
    # output), so one in-place write would corrupt another layer's backward
    net = make_toy_net(8, 1, 3, Rng(13), temporal=temporal)
    rng = Rng(14)
    x = rng.uniform([2, 8, 1, 6, 6], -1.0, 1.0)
    tapes, held = [], []
    for layer in net.layers:
        before = x.copy()
        y, tape = layer.forward(x)
        assert x.tobytes() == before.tobytes(), f"{layer.name}.forward wrote into its input"
        x = y
        tapes.append(tape)
        held += [(a, a.copy()) for a in _arrays(tape)]

    def tapes_intact():
        return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in held)

    assert tapes_intact(), "a forward wrote into an earlier layer's tape"
    g = rng.child("g").uniform(list(x.shape), -1.0, 1.0)
    for layer, tape in zip(reversed(net.layers), reversed(tapes)):
        before = g.copy()
        grad_x, _ = layer.backward(g, tape)
        assert g.tobytes() == before.tobytes(), f"{layer.name}.backward wrote into its gradient"
        assert tapes_intact(), f"{layer.name}.backward wrote into a tape"
        g = grad_x


def _step_grads(grad, tapes, backward):
    """backward's input gradient and parameter gradients, as one dict of bytes."""
    grad_x, grads = backward(grad, tapes)
    return {"x": grad_x.tobytes(), **{k: v.tobytes() for k, v in grads.items()}}


def _layer_by_layer(grad, tapes, net):
    # each layer's own backward, which writes into fresh arrays only
    grads = {}
    for layer, tape in zip(reversed(net.layers), reversed(tapes)):
        grad, layer_grads = layer.backward(grad, tape)
        grads.update({f"{layer.name}.{k}": v for k, v in layer_grads.items()})
    return grad, grads


@pytest.mark.parametrize("temporal", ["tin", "tcn", "none"])
def test_chain_backward_matches_the_layers_run_one_by_one(temporal):
    # Chain.backward hands conv2 and the block spent buffers: the bits must
    # be those of the layers' own backward into fresh arrays, and the
    # caller's input, cotangent and logits, and the block's offsets and
    # weights, which the training loop reads after the step, stay unchanged
    rng = Rng(53)
    net = _nudged_toy_net(rng, temporal)
    x = rng.child("x").uniform([4, 8, 1, 6, 6], -1.0, 1.0)
    logits, tapes = net.forward(x)
    g = rng.child("g").uniform(list(logits.shape), -1.0, 1.0)
    kept = [x, g, logits] + [t[k] for t in tapes if isinstance(t, dict) for k in ("offsets", "weights")]
    kept = [(a, a.tobytes()) for a in kept]
    got = _step_grads(g, tapes, net.backward)
    want = _step_grads(g, net.forward(x)[1], lambda g, t: _layer_by_layer(g, t, net))
    assert got == want
    assert all(a.tobytes() == b for a, b in kept)
    # a plain list of tapes does not say where the inputs are: all fresh
    assert _step_grads(g, list(net.forward(x)[1]), net.backward) == want


@pytest.mark.parametrize("temporal", ["tin", "tcn", "none"])
def test_conv2_takes_its_gradient_into_its_input_only_where_no_earlier_tape_holds_it(temporal):
    # on the tin and tcn arms conv2's input is the temporal layer's output,
    # and the block then writes into that gradient; on the blind arm it is
    # conv1's output, which conv1's tape keeps for the ReLU's mask
    net = make_toy_net(8, 1, 3, Rng(55), temporal=temporal)
    seen = {}
    for layer in net.layers:
        if layer.takes_out:
            def spy(grad_y, tape, out=None, inner=layer.backward, name=layer.name):
                seen[name] = out
                return inner(grad_y, tape, out=out)
            layer.backward = spy
    x = Rng(56).uniform([2, 8, 1, 6, 6], -1.0, 1.0)
    logits, tapes = net.forward(x)
    names = [layer.name for layer in net.layers]
    conv2_input = tapes[names.index("conv2")][0]
    net.backward(np.ones_like(logits), tapes)
    assert seen["conv2"] is (None if temporal == "none" else conv2_input)
    if temporal == "tin":
        assert seen["tin"] is conv2_input


MAP_BYTES = 64 * 8 * 16 * 16 * 16 * 8     # one float64 [64, 8, 16, 16, 16] feature map


@pytest.mark.parametrize("temporal, maps", [("tin", 1), ("tcn", 2), ("none", 2)])
def test_backward_allocates_less_than_a_map_per_layer_that_must_make_one(temporal, maps):
    # one 64-clip step at the benchmark's shapes. On the tin arm conv2's
    # gradient goes into its input and the block's into that, so the
    # backward makes no map; tconv makes its own input gradient; on the
    # blind arm conv2 makes one, since its input is conv1's tape
    net = make_toy_net(8, 1, 2, Rng(51), temporal=temporal)
    x = Rng(52).uniform([64, 8, 1, 16, 16], -1.0, 1.0)
    logits, tapes = net.forward(x)
    _, grad, _ = cross_entropy(logits, np.arange(64) % 2)
    tracemalloc.start()
    try:
        net.backward(grad, tapes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < maps * MAP_BYTES, f"{peak / MAP_BYTES:.2f} maps"


@pytest.mark.parametrize("batched", [False, True])
def test_block_and_max_pool_backward_into_out_match_the_fresh_path(batched):
    rng = Rng(57)
    block = fresh_block(rng_seed=58)
    block.onet.fc2_b[:] = rng.child("o").uniform(block.onet.fc2_b.shape, -1.0, 1.0)
    u = rng.child("u").uniform([3, 8, 16, 4, 4] if batched else [8, 16, 4, 4], -1.0, 1.0)
    g = rng.child("g").uniform(list(u.shape), -1.0, 1.0)
    want_u, want = block.backward(g, block.forward(u)[1])
    got_u, got = block.backward(g.copy(), block.forward(u)[1], out=g)
    assert got_u.tobytes() == want_u.tobytes() and np.shares_memory(got_u, g)
    assert all(got[k].tobytes() == want[k].tobytes() for k in want)

    pool = PointwiseConv2dMaxPool(16, 5, rng.child("w"), "conv2")
    x = rng.child("x").uniform([3, 8, 16, 4, 4], -1.0, 1.0)
    gy = rng.child("gy").uniform([3, 8, 5], -1.0, 1.0)
    want_x, want = pool.backward(gy, pool.forward(x)[1])
    x_tape = pool.forward(x.copy())[1]
    got_x, got = pool.backward(gy, x_tape, out=x_tape[0])
    assert got_x is x_tape[0] and got_x.tobytes() == want_x.tobytes()
    assert all(got[k].tobytes() == want[k].tobytes() for k in want)
    with pytest.raises(ShapeError):
        pool.backward(gy, pool.forward(x)[1], out=np.empty(x.shape, np.float32))


class _Conv(Layer):
    """A fused layer's 1x1 conv alone, through PointwiseConv2d's own forward and backward."""

    def __init__(self, fused):
        self.name, self.fused = fused.name, fused

    def named_params(self):
        return self.fused.named_params()

    def forward(self, x):
        return PointwiseConv2d.forward(self.fused, x)

    def backward(self, grad_y, x):
        return PointwiseConv2d.backward(self.fused, grad_y, x)


class _SpatialPool(Layer):
    """The max-pool that conv2 absorbed, kept here as the oracle of the fused one.

    Its backward puts each pooled gradient into a dense zero map at the
    argmax pixel, and conv2's backward then runs over that whole map.
    """
    name = "spool"

    def forward(self, x):
        flat = x.reshape(x.shape[:3] + (-1,))
        idx = np.argmax(flat, axis=3)
        return np.take_along_axis(flat, idx[..., None], axis=3)[..., 0], (x.shape, idx)

    def backward(self, grad_y, tape):
        shape, idx = tape
        g = np.zeros(shape[:3] + (shape[3] * shape[4],))
        np.put_along_axis(g, idx[..., None], grad_y[..., None], axis=3)
        return g.reshape(shape), {}


def _unfused(net: Chain, relu_first: bool = False) -> Chain:
    """The layer chain before the fusion, on the same parameter arrays.

    conv1 -> relu1 -> ... -> conv2 -> spool -> relu2, or conv2 -> relu2 ->
    spool with relu_first.
    """
    layers = []
    for layer in net.layers:
        if isinstance(layer, PointwiseConv2dReLU):
            layers += [_Conv(layer), ReLU("relu1")]
        elif isinstance(layer, PointwiseConv2dMaxPool):
            layers += [_Conv(layer), _SpatialPool()]
        else:
            layers.append(layer)
    if relu_first:
        i = [layer.name for layer in layers].index("spool")
        assert layers[i + 1].name == "relu2"
        layers[i], layers[i + 1] = layers[i + 1], layers[i]
    return Chain(layers)


def test_spatial_pool_takes_the_per_frame_max():
    rng = Rng(9)
    layer = PointwiseConv2dMaxPool(4, 4, rng.child("w"), "conv2")
    layer.w[:] = np.eye(4)                 # the conv is the identity: a pure max-pool
    x = rng.child("x").uniform([2, 3, 4, 5, 5], -1.0, 1.0)
    y, _ = layer.forward(x)
    assert y.shape == (2, 3, 4)
    assert np.array_equal(y, x.max(axis=(3, 4)))


def test_spatial_pool_backward_routes_correctly():
    rng = Rng(10)
    x = rng.uniform([1, 2, 2, 3, 3], -1.0, 1.0)
    pool = PointwiseConv2dMaxPool(2, 2, rng.child("w"), "conv2")
    pool.w[:] = np.eye(2)
    y, tape = pool.forward(x)
    g = rng.child("max").uniform(y.shape, -1.0, 1.0)
    gx, _ = pool.backward(g, tape)
    assert gx.shape == x.shape
    assert abs(gx.sum() - g.sum()) < 1e-12  # the pool conserves total gradient
    for t in range(2):
        for c in range(2):                 # all of it lands on the frame's maximum
            want = np.zeros(9)
            want[np.argmax(x[0, t, c])] = g[0, t, c]
            assert np.array_equal(gx[0, t, c].reshape(-1), want)


def test_toy_net_drop_in_neutrality():
    # identical seed, with and without the block: logits must match exactly
    rng_seed = 11
    x = Rng(12).uniform([4, 8, 2, 16, 16], -1.0, 1.0)
    with_tin = make_toy_net(8, 2, 3, Rng(rng_seed), hidden=16, temporal="tin")
    without = make_toy_net(8, 2, 3, Rng(rng_seed), hidden=16, temporal="none")
    la, _ = with_tin.forward(x)
    lb, _ = without.forward(x)
    assert np.max(np.abs(la - lb)) < 1e-10


def test_toy_net_tcn_drop_in_neutrality():
    x = Rng(13).uniform([2, 8, 2, 8, 8], -1.0, 1.0)
    with_tcn = make_toy_net(8, 2, 2, Rng(14), hidden=16, temporal="tcn")
    without = make_toy_net(8, 2, 2, Rng(14), hidden=16, temporal="none")
    la, _ = with_tcn.forward(x)
    lb, _ = without.forward(x)
    assert np.max(np.abs(la - lb)) < 1e-10


def test_toy_net_initial_loss_near_log_k():
    rng = Rng(15)
    for k in (2, 5):
        net = make_toy_net(8, 1, k, rng.child(f"net{k}"), hidden=16)
        x = rng.child(f"x{k}").uniform([64, 8, 1, 16, 16], 0.0, 1.0)
        labels = np.arange(64) % k
        logits, _ = net.forward(x)
        loss, _, _ = cross_entropy(logits, labels)
        assert abs(loss - math.log(k)) < 0.05


@pytest.mark.parametrize("n, t, cin, cout, h, w", [(3, 4, 5, 6, 6, 6), (2, 3, 1, 16, 4, 5),
                                                   (4, 8, 16, 16, 16, 16)])
def test_conv_max_pool_matches_the_dense_pair(n, t, cin, cout, h, w):
    rng = Rng(100 * n + 10 * t + cin)
    layer = PointwiseConv2dMaxPool(cin, cout, rng.child("w"), "conv2")
    layer.b[:] = rng.child("b").uniform([cout], -0.5, 0.5)
    x = rng.child("x").uniform([n, t, cin, h, w], -1.0, 1.0)
    x[0, 0] = 0.5                          # a constant map: each channel ties at every pixel
    conv, pool = _Conv(layer), _SpatialPool()
    y, tape = layer.forward(x)
    z, _ = conv.forward(x)
    want, pool_tape = pool.forward(z)
    assert y.tobytes() == want.tobytes()
    assert not tape[1][0, 0].any()         # a tie goes to the first pixel, as np.argmax does
    g = rng.child("g").uniform([n, t, cout], -1.0, 1.0)
    grad_x, grads = layer.backward(g, tape)
    dense, _ = pool.backward(g, pool_tape)
    want_x, want_grads = conv.backward(dense, x)
    assert grads.keys() == want_grads.keys()
    for name in grads:
        assert grads[name].tobytes() == want_grads[name].tobytes(), name
    assert not grad_x[0, 0].reshape(cin, -1)[:, 1:].any()
    # grad_x at a pixel sums w[c, k] * g[c] over the channels c whose maximum
    # it is, by a matmul over fewer columns than the dense map's; a BLAS may
    # order that sum otherwise, and any two orders of a sum of at most cout
    # terms differ by at most cout * eps * (the sum of their magnitudes)
    terms = np.matmul(np.abs(layer.w).T, np.abs(dense).reshape(n * t, cout, h * w))
    bound = cout * np.finfo(float).eps * terms.reshape(x.shape)
    assert np.all(np.abs(grad_x - want_x) <= bound)


def test_conv_relu_matches_the_conv_then_relu():
    rng = Rng(20)
    layer = PointwiseConv2dReLU(1, 16, rng.child("w"), "conv1")
    layer.b[:] = rng.child("b").uniform([16], -0.5, 0.5)
    x = rng.child("x").uniform([4, 8, 1, 16, 16], -1.0, 1.0)
    old = _unfused(Chain([layer]))
    y, tape = layer.forward(x)
    want, old_tapes = old.forward(x)
    assert y.tobytes() == want.tobytes()
    g = rng.child("g").uniform(list(y.shape), -1.0, 1.0)
    grad_x, grads = layer.backward(g, tape)
    want_x, want_grads = old.backward(g, old_tapes)
    assert grad_x.tobytes() == want_x.tobytes()
    assert {f"conv1.{k}" for k in grads} == want_grads.keys()
    for name, grad in grads.items():
        assert grad.tobytes() == want_grads[f"conv1.{name}"].tobytes(), name


def _nudged_toy_net(rng: Rng, temporal: str) -> Chain:
    """A toy net whose temporal layer is off its identity init."""
    net = make_toy_net(8, 1, 3, rng.child("net"), temporal=temporal)
    params = net.named_params()
    for name in ("tin.onet.fc2.b", "tin.wnet.conv.b", "tconv.taps"):
        if name in params:
            params[name][...] = rng.child(name).uniform(params[name].shape, -1.0, 1.0)
    return net


@pytest.mark.parametrize("temporal", ["tin", "tcn", "none"])
def test_fused_layers_match_the_unfused_chain(temporal):
    rng = Rng(21)
    net = _nudged_toy_net(rng, temporal)
    assert [layer.name for layer in net.layers] == \
        ["conv1"] + {"tin": ["tin"], "tcn": ["tconv"], "none": []}[temporal] + \
        ["conv2", "relu2", "tmean", "head"]
    old = _unfused(net)
    x = rng.child("x").uniform([4, 8, 1, 6, 6], -1.0, 1.0)
    logits, tapes = net.forward(x)
    old_logits, old_tapes = old.forward(x)
    assert logits.tobytes() == old_logits.tobytes()
    g = rng.child("g").uniform(list(logits.shape), -1.0, 1.0)
    grad_x, grads = net.backward(g, tapes)
    old_grad_x, old_grads = old.backward(g, old_tapes)
    assert grads.keys() == old_grads.keys()
    for name in ("conv2.w", "conv2.b", "head.w", "head.b"):
        assert grads[name].tobytes() == old_grads[name].tobytes(), name
    # below conv2 the gradients may carry the rounding of its input gradient
    # that test_conv_max_pool_matches_the_dense_pair bounds
    for name, grad in list(grads.items()) + [("x", grad_x)]:
        want = old_grad_x if name == "x" else old_grads[name]
        assert np.max(np.abs(grad - want)) <= 1e-13 * np.max(np.abs(want)), name


@pytest.mark.parametrize("temporal", ["tin", "tcn", "none"])
def test_max_pool_before_relu2_matches_relu_then_pool(temporal):
    # ReLU is monotone, so max_p relu(z_p) = relu(max_p z_p): the old
    # order conv2 -> relu2 -> spool is the oracle for the new one
    rng = Rng(19)
    net = _nudged_toy_net(rng, temporal)
    params = net.named_params()
    # clip 0 reaches conv2 as zeros, so its map of channel c is conv2.b[c]
    # at every pixel: channel 0 is all below zero, channel 1 a tie at a
    # positive max
    params["conv2.b"][:2] = [-0.3, 0.2]
    x = rng.child("x").uniform([4, 8, 1, 6, 6], -1.0, 1.0)
    x[0] = 0.0
    new, old = _unfused(net), _unfused(net, relu_first=True)
    logits, tapes = net.forward(x)
    new_logits, new_tapes = new.forward(x)
    old_logits, old_tapes = old.forward(x)
    assert logits.tobytes() == old_logits.tobytes() == new_logits.tobytes()
    relu2_out = tapes[[l.name for l in net.layers].index("relu2")]
    assert relu2_out.shape == (4, 8, 16)       # relu2 runs on the pooled values
    assert np.all(relu2_out[0, :, 0] == 0.0) and np.all(relu2_out[0, :, 1] == 0.2)
    g = rng.child("g").uniform(list(logits.shape), -1.0, 1.0)
    # the order is compared on the dense backward of both; the fused one
    # is test_fused_layers_match_the_unfused_chain
    grad_x, grads = new.backward(g, new_tapes)
    old_grad_x, old_grads = old.backward(g, old_tapes)
    # values, not bytes: where a map's max is <= 0 and its pooled gradient
    # negative, the -0.0 now sits at argmax(z) rather than at pixel 0
    assert np.array_equal(grad_x, old_grad_x)
    assert grads.keys() == old_grads.keys()
    for name, grad in grads.items():
        assert np.array_equal(grad, old_grads[name]), name


def test_toy_net_removing_block_keeps_shapes_valid():
    x = Rng(16).uniform([2, 8, 1, 8, 8], -1.0, 1.0)
    for temporal in ("tin", "tcn", "none"):
        net = make_toy_net(8, 1, 4, Rng(17), hidden=16, temporal=temporal)
        logits, tapes = net.forward(x)
        assert logits.shape == (2, 4)
        _, grads = net.backward(np.ones_like(logits), tapes)
        for name, p in net.named_params().items():
            assert grads[name].shape == p.shape


def test_toy_net_rejects_duplicate_layer_names():
    with pytest.raises(ShapeError):
        Chain([ReLU("a"), ReLU("a")])


def test_cross_entropy_uniform_logits():
    loss, grad, correct = cross_entropy(np.zeros((6, 3)), np.array([0, 1, 2, 0, 1, 2]))
    assert abs(loss - math.log(3)) < 1e-12
    # gradient: (1/K - onehot)/N
    assert abs(grad[0, 0] - (1 / 3 - 1) / 6) < 1e-12
    assert abs(grad[0, 1] - (1 / 3) / 6) < 1e-12


def test_cross_entropy_extreme_logits_stable():
    logits = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
    loss, grad, correct = cross_entropy(logits, np.array([0, 1]))
    assert np.isfinite(loss) and loss < 1e-6
    assert correct == 2


def test_cross_entropy_rejects_out_of_range_labels():
    # numpy indexing would raise IndexError for K, and score -1 as class K - 1
    for labels in ([0, 3], [-1, 0]):
        with pytest.raises(ShapeError):
            cross_entropy(np.zeros((2, 3)), np.array(labels))


def test_offset_gradient_nonzero_on_ordered_data():
    # a direction-labeled batch must push on every offset parameter row:
    # the offset net has no row that only a mirrored group would read
    from tin.synth import SynthTask, generate_task, standardize

    spec = SynthTask(task="direction2", train_clips=64, val_clips=16, seed=3)
    tr, _ = standardize(generate_task(spec, "train"), generate_task(spec, "val"))
    net = make_toy_net(8, 1, 2, Rng(18), hidden=16)
    logits, tapes = net.forward(tr.clips[:32])
    loss, gl, _ = cross_entropy(logits, tr.labels[:32])
    _, grads = net.backward(gl, tapes)
    assert np.all(grads["tin.onet.fc2.b"] != 0.0)
    assert np.all(np.any(grads["tin.onet.fc2.w"] != 0.0, axis=1))

