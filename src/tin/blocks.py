"""The full interlacing block, its two generator nets and the toy nets.

A TinBlock wires pooling, the offset net, the weight net and the interlace
operator together: v = interlace(u, rescale(offsetnet(pool(u))),
weightnet(pool(u))). The toy video classifiers run conv1(+relu) -> [tin |
tconv] -> conv2(+max-pool) -> relu2 -> tmean -> head; their only temporal
mixing is the block under test (tin, or tconv, a per-channel trainable
temporal conv): without it they are provably blind to frame order. Each
per-frame stage is one fused layer, run one clip at a time: conv1 applies
its ReLU in place on its own output, and conv2 keeps only each frame's max
over the pixels, so its backward reads only the argmax pixels. relu2
follows the pool as max(relu(z)) = relu(max(z)). Batches are [N, T, C, H, W].

The generator nets are chains of small layers over descriptors [N, C, T]:
OffsetNet = Conv1d -> Squeeze -> Linear -> ReLU -> Linear -> Sigmoid and
WeightNet = [ChannelMean] -> Conv1d -> Sigmoid x2. Both are DescriptorNets,
which reject a descriptor of any other C or T with ShapeError.

Every layer follows the same protocol: forward(x) -> (y, tape),
backward(grad_y, tape) -> (grad_x, param_grad_dict), named_params().
One Chain runs forward, backward and named_params for the toy nets and
for both generator nets.

Ownership. A tape is read by one backward call, so in Chain.backward,
once a layer's backward runs, its tape and those of the layers after it
are spent. A buffer may take a gradient only when no earlier layer's tape
still holds it, and when it is none of the caller's arrays: the chain's
input and the gradient handed to Chain.backward. Chain.backward alone
applies the rule: a layer with takes_out (conv2 and the TinBlock) gets
as out its own input if the rule allows, or else the gradient it is
handed. So on the tin and tcn arms conv2 writes its gradient into the
temporal layer's output, and the TinBlock then writes into that; on the
blind arm conv2's input is conv1's output, which conv1's tape keeps for
the ReLU's mask, so conv2 makes a fresh one. A layer's backward called
without out writes only into arrays it makes.
"""

from __future__ import annotations

import numpy as np

from . import nets
from .errors import NonFiniteError, ShapeError
from .interlace import InterlaceConfig, interlace_backward, interlace_forward, shifts
from .tensors import Rng, assert_finite


def _uniform(rng: Rng, shape, fan_in: int, scale: float | None) -> np.ndarray:
    """Uniform in +-scale, +-1/sqrt(fan_in) by default; scale 0 gives zeros."""
    k = scale if scale is not None else 1.0 / np.sqrt(fan_in)
    return rng.uniform(shape, -k, k) if k else np.zeros(shape)


class Layer:
    """By default a layer's parameters are its attributes w and b, where it has them.

    A layer with takes_out set has backward(grad_y, tape, out=None): out, when
    given, is a writeable C-ordered float64 array of the input's shape that
    takes the input gradient, and the layer reads what it needs of grad_y
    and its tape before it writes there.
    """
    name = "layer"
    takes_out = False

    def named_params(self) -> dict:
        return {k: getattr(self, k) for k in ("w", "b") if getattr(self, k, None) is not None}

    def forward(self, x):
        raise NotImplementedError

    def backward(self, grad_y, tape):
        raise NotImplementedError


class Linear(Layer):
    def __init__(self, cin: int, cout: int, rng: Rng, name: str, scale: float | None = None):
        self.name = name
        self.w = _uniform(rng, [cout, cin], cin, scale)
        self.b = np.zeros(cout)

    def forward(self, x):
        return x @ self.w.T + self.b[None, :], x

    def backward(self, grad_y, x):
        return grad_y @ self.w, {"w": grad_y.T @ x, "b": grad_y.sum(axis=0)}


class PointwiseConv2d(Linear):
    """The linear map applied at every pixel of every frame: a 1x1 convolution."""

    def _pixels(self, x):
        """x as a [N, T, C, H*W] array, after checking its rank and channels."""
        if x.ndim != 5 or x.shape[2] != self.w.shape[1]:
            raise ShapeError(f"1x1 conv with {self.w.shape[1]} input channels got input {x.shape}")
        return np.ascontiguousarray(x).reshape(x.shape[:3] + (-1,))

    def forward(self, x):
        x4 = self._pixels(x)
        n, t, c, p = x4.shape
        y = np.matmul(self.w, x4.reshape(n * t, c, p))
        y += self.b[None, :, None]
        return y.reshape(n, t, -1, *x.shape[3:]), x

    def backward(self, grad_y, x):
        n, t, c, h, w = x.shape
        x3 = np.ascontiguousarray(x).reshape(n * t, c, h * w)
        g3 = np.ascontiguousarray(grad_y).reshape(n * t, -1, h * w)
        grad_w = np.matmul(g3, x3.swapaxes(1, 2)).sum(axis=0)
        grad_b = g3.sum(axis=(0, 2))
        grad_x = np.matmul(self.w.T, g3).reshape(x.shape)
        return grad_x, {"w": grad_w, "b": grad_b}


class PointwiseConv2dReLU(PointwiseConv2d):
    """A 1x1 convolution, then max(y, 0), both passes one clip at a time.

    A clip's [T, C, H*W] block stays in cache through the matmul, bias and
    ReLU, and through the mask and three products of the backward. Each
    product and sum is formed per frame, and summed over the batch, as
    PointwiseConv2d forms them, so the bits are those of PointwiseConv2d
    then ReLU. The tape is (x, y): x for the conv, y for the ReLU's mask.
    """

    def forward(self, x):
        x4 = self._pixels(x)
        y = np.empty(x4.shape[:2] + (self.w.shape[0], x4.shape[3]))
        for xi, yi in zip(x4, y):
            np.matmul(self.w, xi, out=yi)
            yi += self.b[:, None]
            np.maximum(yi, 0.0, out=yi)
        y = y.reshape(x.shape[:2] + (-1,) + x.shape[3:])
        return y, (x, y)

    def backward(self, grad_y, tape):
        x, y = tape
        x4 = self._pixels(x)
        y4 = y.reshape(y.shape[:3] + (-1,))
        grad_x = np.empty(x4.shape)
        grad_w = np.empty(y4.shape[:3] + (x4.shape[2],))       # [N, T, C, Cin], per frame
        grad_b = np.empty(y4.shape[:3])
        for i, gi in enumerate(grad_y.reshape(y4.shape)):
            gi = gi * (y4[i] > 0.0)
            np.matmul(gi, x4[i].swapaxes(1, 2), out=grad_w[i])
            gi.sum(axis=2, out=grad_b[i])
            np.matmul(self.w.T, gi, out=grad_x[i])
        return grad_x.reshape(x.shape), {"w": grad_w.reshape((-1,) + self.w.shape).sum(axis=0),
                                         "b": grad_b.reshape(-1, self.b.size).sum(axis=0)}


class PointwiseConv2dMaxPool(PointwiseConv2d):
    """A 1x1 convolution, then the per-frame max over the pixels: [N, T, Cin, H, W] -> [N, T, C].

    The max keeps the response of sparse localized patterns at full
    strength, where a mean would dilute it by H x W and starve the
    gradients upstream on blob-like data. It is order-free per frame, so
    it cannot leak temporal information. The forward runs one clip at a
    time, so the conv's map of a clip stays in cache and the map of the
    batch is never built. The tape is (x, idx), with idx [N, T, C] the
    first pixel of each maximum, as np.argmax picks it: the pooled
    gradient reaches those pixels only, so the backward reads x there and
    nowhere else, then zeroes out (x itself, when a Chain finds x spent)
    and writes the input gradient at those pixels.
    """
    takes_out = True

    def forward(self, x):
        x4 = self._pixels(x)
        y = np.empty(x.shape[:2] + (self.w.shape[0],))
        idx = np.empty(y.shape, dtype=np.intp)
        for i, xi in enumerate(x4):
            z = np.matmul(self.w, xi)
            z += self.b[:, None]
            idx[i] = np.argmax(z, axis=2)
            y[i] = np.take_along_axis(z, idx[i][..., None], axis=2)[..., 0]
        return y, (x, idx)

    def backward(self, grad_y, tape, out=None):
        x, idx = tape
        n, t, cin, h, w = x.shape
        x3 = self._pixels(x).reshape(n * t, cin, h * w)
        at = idx.reshape(n * t, -1)
        g = grad_y.reshape(n * t, -1)
        xg = np.take_along_axis(x3, at[:, None, :], axis=2).swapaxes(1, 2)     # [NT, C, Cin]
        grad_w = (g[:, :, None] * xg).sum(axis=0)
        # column c of cols is the pooled gradient at channel c's argmax pixel,
        # so w.T @ cols is grad_x at those pixels, summed as the dense map's
        # matmul sums it; every other pixel gets no gradient
        cols = np.where(at[:, :, None] == at[:, None, :], g[:, :, None], 0.0)  # [NT, C, C]
        rows = np.arange(n * t * cin).reshape(n * t, cin, 1) * (h * w)
        if out is None:
            grad_x = np.zeros(x.shape)
        elif out.shape != x.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ShapeError(f"out must be a C-ordered float64 array shaped {x.shape}")
        else:
            grad_x = out
            grad_x.fill(0.0)
        grad_x.reshape(-1)[(rows + at[:, None, :]).reshape(-1)] = np.matmul(self.w.T, cols).reshape(-1)
        return grad_x, {"w": grad_w, "b": g.sum(axis=0)}


class ReLU(Layer):
    """max(x, 0). The tape is the output y, which is also the next layer's input."""

    def __init__(self, name: str = "relu"):
        self.name = name

    def forward(self, x):
        y = np.maximum(x, 0.0)
        return y, y

    def backward(self, grad_y, y):
        return grad_y * (y > 0.0), {}


def _tap_band(taps: np.ndarray, t: int):
    """The band sum over j of taps[..., j] * E[j - k//2], [..., T, T], and the shifts E [k, T, T].

    taps[..., j] weights relative frame j - k//2, for an odd tap count k.
    """
    k = taps.shape[-1]
    e = shifts(t, np.arange(k) - k // 2, taps.dtype)
    return np.tensordot(taps, e, axes=1), e


class TemporalConv(Layer):
    """Trainable per-channel temporal convolution with zero padding.

    taps[c] holds the kernel over relative frames [-(k//2), ..., k//2].
    Identity initialization (center tap 1) keeps insertion neutral. Channel
    c is the T x T band _tap_band(taps)[c], rebuilt from the live taps on
    every call and applied by matmul on the [N, C, T, H*W] view of x. The
    tape is the input x.
    """

    def __init__(self, c: int, name: str, k: int = 3):
        if k % 2 != 1:
            raise ShapeError(f"temporal kernel size must be odd, got {k}")
        self.name = name
        self.taps = np.zeros((c, k))
        self.taps[:, k // 2] = 1.0

    def named_params(self):
        return {"taps": self.taps}

    def forward(self, x):
        y = np.empty(x.shape, dtype=x.dtype)
        np.matmul(_tap_band(self.taps, x.shape[1])[0], _frames(x), out=_frames(y))
        return y, x

    def backward(self, grad_y, x):
        band, e = _tap_band(self.taps, x.shape[1])
        g = _frames(grad_y)
        grad_x = np.empty(x.shape, dtype=grad_y.dtype)
        np.matmul(band.swapaxes(1, 2), g, out=_frames(grad_x))
        outer = np.matmul(g, _frames(x).swapaxes(2, 3)).sum(axis=0)    # [C, T, T]
        return grad_x, {"taps": np.einsum("crs,jrs->cj", outer, e)}


def _frames(x: np.ndarray) -> np.ndarray:
    """[N, C, T, H*W] view of a C-ordered [N, T, C, H, W] map; writes land in x."""
    return x.reshape(x.shape[:3] + (-1,)).swapaxes(1, 2)


class TemporalMean(Layer):
    """[N, T, C] -> [N, C]; the temporally blind fusion head."""

    def __init__(self, name: str = "tmean"):
        self.name = name

    def forward(self, x):
        return x.mean(axis=1), x.shape

    def backward(self, grad_y, shape):
        n, t, c = shape
        return np.broadcast_to(grad_y[:, None, :] / t, shape).copy(), {}


class Conv1d(Layer):
    """Kernel-3 convolution over time with zero "same" padding.

    [N, Cin, T] -> [N, Cout, T]; w is [Cout, Cin, 3], b (optional) [Cout].
    The kernel is the band _tap_band(w), [Cout, Cin, T, T], laid out as one
    [Cout*T, Cin*T] matrix and rebuilt from the live w on every call, so the
    forward and the input gradient are one matmul each. The tape is x.
    """

    def __init__(self, cin: int, cout: int, rng: Rng, name: str, bias: bool = True,
                 scale: float | None = None):
        self.name = name
        self.w = _uniform(rng, [cout, cin, 3], 3 * cin, scale)
        self.b = np.zeros(cout) if bias else None

    def _matrix(self, t: int):
        band, e = _tap_band(self.w, t)
        cout, cin = self.w.shape[:2]
        return band.swapaxes(1, 2).reshape(cout * t, cin * t), e

    def forward(self, x):
        if x.ndim != 3 or x.shape[1] != self.w.shape[1]:
            raise ShapeError(f"conv kernel {self.w.shape} incompatible with input {x.shape}")
        n, _, t = x.shape
        y = (x.reshape(n, -1) @ self._matrix(t)[0].T).reshape(n, -1, t)
        if self.b is not None:
            y += self.b[None, :, None]
        return y, x

    def backward(self, grad_y, x):
        n, cin, t = x.shape
        a, e = self._matrix(t)
        g = grad_y.reshape(n, -1)
        gram = (g.T @ x.reshape(n, -1)).reshape(-1, t, cin, t)    # [Cout, T, Cin, T]
        grads = {"w": np.einsum("orcs,jrs->ocj", gram, e)}
        if self.b is not None:
            grads["b"] = grad_y.sum(axis=(0, 2))
        return (g @ a).reshape(x.shape), grads


class Sigmoid(Layer):
    """scale * nets.sigmoid(x): (0, 1) for the raw offsets, (0, 2) for the weights."""
    name = "sigmoid"

    def __init__(self, scale: float = 1.0):
        self.scale = scale

    def forward(self, x):
        s = nets.sigmoid(x)
        return self.scale * s, s

    def backward(self, grad_y, s):
        return (self.scale * grad_y) * s * (1.0 - s), {}


class ChannelMean(Layer):
    """[N, C, T] -> [N, 1, T]."""
    name = "channel_mean"

    def forward(self, x):
        return x.mean(axis=1, keepdims=True), x.shape

    def backward(self, grad_y, shape):
        return np.broadcast_to(grad_y / shape[1], shape).copy(), {}


class Squeeze(Layer):
    """[N, 1, T] -> [N, T]."""
    name = "squeeze"

    def forward(self, x):
        return x[:, 0, :], None

    def backward(self, grad_y, _):
        return grad_y[:, None, :], {}


# ---------------------------------------------------------------------------
# layer chains: the toy nets and the generator nets

def _held(obj) -> list:
    """Every array a tape holds, through dicts, lists, tuples and object attributes."""
    if isinstance(obj, np.ndarray):
        return [obj]
    items = list(obj.values()) if isinstance(obj, dict) else \
        list(obj) if isinstance(obj, (list, tuple)) else []
    return [a for o in items + list(getattr(obj, "__dict__", {}).values()) for a in _held(o)]


def _spare(x, candidates, held):
    """The first candidate that can take the input gradient of x, or None.

    That is a writeable C-ordered float64 array of x's shape that shares
    memory with no held array.
    """
    for buf in candidates:
        if (isinstance(buf, np.ndarray) and buf.shape == x.shape and buf.dtype == np.float64
                and buf.flags.c_contiguous and buf.flags.writeable
                and not any(np.may_share_memory(buf, a) for a in held)):
            return buf
    return None


class Tapes(list):
    """The tapes of one Chain.forward, one per layer, in layer order.

    source is the chain's input, and inputs[i] the input of layer i where
    it takes out (None elsewhere): what Chain.backward needs to place the
    gradients.
    """

    def __init__(self, source):
        super().__init__()
        self.source = source
        self.inputs = []


class Chain:
    """A plain layer chain with named parameters and explicit backward."""

    def __init__(self, layers: list):
        names = [l.name for l in layers]
        if len(set(names)) != len(names):
            raise ShapeError(f"duplicate layer names in {names}")
        self.layers = layers

    def named_params(self) -> dict:
        return {f"{l.name}.{k}": v for l in self.layers for k, v in l.named_params().items()}

    def forward(self, x):
        tapes = Tapes(x)
        for layer in self.layers:
            tapes.inputs.append(x if layer.takes_out else None)
            x, tape = layer.forward(x)
            tapes.append(tape)
        return x, tapes

    def backward(self, grad_out, tapes):
        """(gradient w.r.t. the chain's input, parameter gradients by name).

        Each layer that takes out is handed a buffer by the ownership rule
        of the module docstring. Only Tapes from this chain's forward say
        where the inputs are; other tapes get fresh gradients throughout.
        """
        grads = {}
        inputs = getattr(tapes, "inputs", None)
        caller = [grad_out, getattr(tapes, "source", None)]
        for i in reversed(range(len(self.layers))):
            layer, kwargs = self.layers[i], {}
            if inputs is not None and inputs[i] is not None:
                kwargs["out"] = _spare(inputs[i], (inputs[i], grad_out), caller + _held(tapes[:i]))
            grad_out, layer_grads = layer.backward(grad_out, tapes[i], **kwargs)
            grads.update({f"{layer.name}.{k}": v for k, v in layer_grads.items()})
        return grad_out, grads

    def tin_blocks(self) -> list:
        return [l for l in self.layers if isinstance(l, TinBlock)]


class DescriptorNet(Chain):
    """A Chain over descriptors [N, C, T] of its own C and T, any other shape rejected."""

    def forward(self, z):
        z = np.asarray(z)
        if z.ndim != 3 or z.shape[1:] != (self.c, self.t):
            raise ShapeError(f"descriptor {z.shape} does not match the net's "
                             f"[N, C={self.c}, T={self.t}]")
        return super().forward(z)


class OffsetNet(DescriptorNet):
    """Descriptor [N, C, T] -> raw per-group offsets in (0, 1), [N, G].

    A C -> 1 conv over time, then T -> T and T -> G fully connected
    layers. The last layer starts at zero, so the raw output is exactly
    sigmoid(0) = 0.5 per group, i.e. an offset of 0. The attributes conv,
    fc1_w, fc1_b, fc2_w and fc2_b are the layers' live parameter arrays.
    """

    def __init__(self, t: int, c: int, g: int, rng: Rng):
        self.t, self.c = t, c
        conv = Conv1d(c, 1, rng.child("conv"), "conv", bias=False)
        fc1 = Linear(t, t, rng.child("fc1"), "fc1")
        fc2 = Linear(t, g, rng.child("fc2"), "fc2", scale=0.0)
        super().__init__([conv, Squeeze(), fc1, ReLU(), fc2, Sigmoid()])
        self.conv, self.fc1_w, self.fc1_b, self.fc2_w, self.fc2_b = conv.w, fc1.w, fc1.b, fc2.w, fc2.b


class WeightNet(DescriptorNet):
    """Descriptor [N, C, T] -> per-group per-frame weights in (0, 2), [N, G, T].

    One conv over time (G outputs, with bias), then 2 * sigmoid. Kernel
    and bias start at zero, so the first output is exactly 1 everywhere.
    input_mode "channel_mean" feeds the conv the channel mean [N, 1, T]
    in place of the full descriptor. The attributes conv and bias are the
    conv's live parameter arrays.
    """

    def __init__(self, t: int, c: int, g: int, rng: Rng, input_mode: str = "descriptor"):
        if input_mode not in nets.WEIGHTNET_INPUTS:
            raise ShapeError(f"unknown weightnet input mode {input_mode!r}")
        self.t, self.c = t, c
        mean = input_mode == "channel_mean"
        conv = Conv1d(1 if mean else c, g, rng.child("conv"), "conv", scale=0.0)
        super().__init__(([ChannelMean()] if mean else []) + [conv, Sigmoid(2.0)])
        self.conv, self.bias = conv.w, conv.b


class TinBlock(Layer):
    """Pool -> offset net -> rescale, pool -> weight net, then interlace.

    A single clip [T, C, H, W] runs as a batch of one; its tape holds the
    offsets [1, G] and weights [1, G, T]. out, when given, goes to
    interlace_backward, so out=grad_v writes only the shifted channels.
    """
    takes_out = True

    def __init__(self, cfg: InterlaceConfig, rng: Rng, name: str = "tin",
                 weightnet_input: str = "descriptor"):
        self.name = name
        self.cfg = cfg
        self.onet = OffsetNet(cfg.t, cfg.c, cfg.g, rng.child("offsetnet"))
        self.wnet = WeightNet(cfg.t, cfg.c, cfg.g, rng.child("weightnet"), weightnet_input)

    def named_params(self):
        out = {f"onet.{k}": v for k, v in self.onet.named_params().items()}
        out.update({f"wnet.{k}": v for k, v in self.wnet.named_params().items()})
        return out

    def forward(self, u):
        batched = u.ndim == 5
        ub = u if batched else u[None]
        z = nets.pool_descriptor(ub)
        raw, otape = nets.offsetnet_forward(z, self.onet)
        offsets = nets.rescale_offsets(raw, self.cfg.t, self.cfg.mirror)
        weights, wtape = nets.weightnet_forward(z, self.wnet)
        v, itape = interlace_forward(ub, offsets, weights, self.cfg)
        tape = {"itape": itape, "otape": otape, "wtape": wtape, "offsets": offsets,
                "weights": weights, "hw": u.shape[-2:], "batched": batched}
        return (v if batched else v[0]), tape

    def backward(self, grad_v, tape, out=None):
        batched = tape["batched"]
        gb = grad_v if batched else grad_v[None]
        if not (batched or out is None):
            out = gb if out is grad_v else out[None]
        grad_u, grad_off, grad_w = interlace_backward(gb, tape["itape"], out=out)
        ograds, wgrads, grad_z = nets.nets_backward(
            grad_off, grad_w, tape["otape"], tape["wtape"], self.onet, self.wnet, self.cfg.mirror)
        h, w = tape["hw"]
        grad_u += nets.pool_descriptor_vjp(grad_z, h, w)
        grads = {f"onet.{k}": v for k, v in ograds.items()}
        grads.update({f"wnet.{k}": v for k, v in wgrads.items()})
        return (grad_u if batched else grad_u[0]), grads


def make_toy_net(t: int, cin: int, k_classes: int, rng: Rng, hidden: int = 16,
                 temporal: str = "tin", cfg: InterlaceConfig | None = None,
                 weightnet_input: str = "descriptor", head_scale: float = 0.1) -> Chain:
    """Per-frame conv net with one optional temporal-mixing layer.

    conv1(+relu) -> [tin | tconv] -> conv2(+max-pool) -> relu2 -> tmean ->
    head. conv1 is a PointwiseConv2dReLU and conv2 a PointwiseConv2dMaxPool,
    [N, T, C, H, W] -> [N, T, C]; relu2 follows the pool as max(relu(z)) =
    relu(max(z)). temporal selects the layer under test: "tin" (interlace block), "tcn" (trainable
    per-channel 3-tap temporal conv), or "none" (temporally blind baseline).
    Per-name child streams make shared layers identical across the variants.
    """
    if temporal not in ("tin", "tcn", "none"):
        raise ShapeError(f"unknown temporal layer kind {temporal!r}")
    if hidden < 1:
        raise ShapeError(f"hidden width must be at least 1, got {hidden}")
    layers: list[Layer] = [
        PointwiseConv2dReLU(cin, hidden, rng.child("conv1"), "conv1"),
    ]
    if temporal == "tin":
        cfg = cfg or InterlaceConfig(t=t, c=hidden)
        if cfg.c != hidden or cfg.t != t:
            raise ShapeError(f"config [T={cfg.t}, C={cfg.c}] does not match net [T={t}, C={hidden}]")
        layers.append(TinBlock(cfg, rng.child("tin"), "tin", weightnet_input))
    elif temporal == "tcn":
        layers.append(TemporalConv(hidden, "tconv"))
    layers += [
        PointwiseConv2dMaxPool(hidden, hidden, rng.child("conv2"), "conv2"),
        ReLU("relu2"),
        TemporalMean(),
        Linear(hidden, k_classes, rng.child("head"), "head", scale=head_scale),
    ]
    return Chain(layers)


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch.

    Returns (loss, grad_logits, n_correct). The gradient already carries
    the 1/N factor.
    """
    n, k = logits.shape
    if n < 1 or labels.shape != (n,) or labels.dtype.kind not in "iu":
        raise ShapeError(f"need integer labels [N], N >= 1, for logits {logits.shape}, "
                         f"got {labels.dtype} {labels.shape}")
    if not np.all((labels >= 0) & (labels < k)):
        raise ShapeError(f"labels must lie in [0, {k})")
    assert_finite(logits, "logits")
    top = logits.max(axis=1, keepdims=True)
    # halving is exact, so the halves spread past max / 2 exactly where the
    # subtraction below would overflow to -inf
    if np.any(0.5 * top - 0.5 * logits.min(axis=1, keepdims=True) > np.finfo(float).max / 2):
        raise NonFiniteError("logits of one clip lie too far apart to subtract")
    shifted = logits - top
    logz = np.log(np.sum(np.exp(shifted), axis=1))
    loss = float(np.mean(logz - shifted[np.arange(n), labels]))
    probs = np.exp(shifted) / np.exp(logz)[:, None]
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    n_correct = int(np.sum(np.argmax(logits, axis=1) == labels))
    assert_finite(grad, "cross-entropy gradient")
    return loss, grad, n_correct
