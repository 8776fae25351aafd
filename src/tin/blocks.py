"""The full interlacing block and the small per-frame layers around it.

A TinBlock wires pooling, the offset net, the weight net and the interlace
operator together: v = interlace(u, rescale(offsetnet(pool(u))),
weightnet(pool(u))). The remaining layers (pointwise 2D conv, ReLU,
spatial mean pool, temporal mean, linear head, and a per-channel trainable
temporal convolution) exist to build toy video classifiers whose only
temporal mixing is the block under test: without it they are provably
blind to frame order.

Every layer follows the same protocol: forward(x) -> (y, tape),
backward(grad_y, tape) -> (grad_x, param_grad_dict), named_params().
Batches are [N, T, C, H, W].
"""

from __future__ import annotations

import numpy as np

from . import nets
from .errors import ShapeError
from .interlace import InterlaceConfig, interlace_backward, interlace_forward
from .nets import OffsetNetParams, WeightNetParams
from .tensors import Rng, assert_finite


class Layer:
    name = "layer"

    def named_params(self) -> dict:
        return {}

    def forward(self, x):
        raise NotImplementedError

    def backward(self, grad_y, tape):
        raise NotImplementedError


class PointwiseConv2d(Layer):
    """1x1 convolution applied to every frame independently."""

    def __init__(self, cin: int, cout: int, rng: Rng, name: str, scale: float | None = None):
        self.name = name
        k = scale if scale is not None else 1.0 / np.sqrt(cin)
        self.w = rng.uniform([cout, cin], -k, k)
        self.b = np.zeros(cout)

    def named_params(self):
        return {"w": self.w, "b": self.b}

    def forward(self, x):
        n, t, c, h, w = x.shape
        x3 = np.ascontiguousarray(x).reshape(n * t, c, h * w)
        y = np.matmul(self.w, x3)
        y += self.b[None, :, None]
        return y.reshape(n, t, -1, h, w), x

    def backward(self, grad_y, x):
        n, t, c, h, w = x.shape
        x3 = np.ascontiguousarray(x).reshape(n * t, c, h * w)
        g3 = np.ascontiguousarray(grad_y).reshape(n * t, -1, h * w)
        grad_w = np.matmul(g3, x3.swapaxes(1, 2)).sum(axis=0)
        grad_b = g3.sum(axis=(0, 2))
        grad_x = np.matmul(self.w.T, g3).reshape(x.shape)
        return grad_x, {"w": grad_w, "b": grad_b}


class ReLU(Layer):
    def __init__(self, name: str = "relu"):
        self.name = name

    def forward(self, x):
        return np.maximum(x, 0.0), x

    def backward(self, grad_y, x):
        return np.where(x > 0.0, grad_y, 0.0), {}


class TemporalConv(Layer):
    """Trainable per-channel temporal convolution with zero padding.

    taps[c] holds the kernel over relative frames [-(k//2), ..., k//2].
    Identity initialization (center tap 1) keeps insertion neutral.
    """

    def __init__(self, c: int, name: str, k: int = 3):
        if k % 2 != 1:
            raise ShapeError(f"temporal kernel size must be odd, got {k}")
        self.name = name
        self.k = k
        self.taps = np.zeros((c, k))
        self.taps[:, k // 2] = 1.0

    def named_params(self):
        return {"taps": self.taps}

    def forward(self, x):
        n, t, c, h, w = x.shape
        kh = self.k // 2
        xp = np.zeros((n, t + 2 * kh, c, h, w), dtype=x.dtype)
        xp[:, kh:kh + t] = x
        y = np.zeros_like(x)
        for j in range(self.k):
            y += self.taps[None, None, :, j, None, None] * xp[:, j:j + t]
        return y, xp

    def backward(self, grad_y, xp):
        n, t = grad_y.shape[:2]
        kh = self.k // 2
        grad_taps = np.zeros_like(self.taps)
        grad_xp = np.zeros_like(xp)
        for j in range(self.k):
            grad_taps[:, j] = np.sum(grad_y * xp[:, j:j + t], axis=(0, 1, 3, 4))
            grad_xp[:, j:j + t] += self.taps[None, None, :, j, None, None] * grad_y
        return grad_xp[:, kh:kh + t], {"taps": grad_taps}


class SpatialPool(Layer):
    """Per-frame pooling over the pixels: [N, T, C, H, W] -> [N, T, C].

    "max" keeps the response of sparse localized patterns at full
    strength; "mean" dilutes it by H x W, which starves the gradients of
    everything upstream on blob-like data. Both are order-free per frame,
    so neither can leak temporal information.
    """

    def __init__(self, kind: str = "max", name: str = "spool"):
        if kind not in ("mean", "max"):
            raise ShapeError(f"unknown pool kind {kind!r}")
        self.kind = kind
        self.name = name

    def forward(self, x):
        if self.kind == "mean":
            return x.mean(axis=(3, 4)), (x.shape, None)
        n, t, c, h, w = x.shape
        flat = x.reshape(n, t, c, h * w)
        idx = np.argmax(flat, axis=3)
        return np.take_along_axis(flat, idx[..., None], axis=3)[..., 0], (x.shape, idx)

    def backward(self, grad_y, tape):
        shape, idx = tape
        n, t, c, h, w = shape
        if self.kind == "mean":
            g = grad_y / (h * w)
            return np.broadcast_to(g[..., None, None], shape).copy(), {}
        g = np.zeros((n, t, c, h * w))
        np.put_along_axis(g, idx[..., None], grad_y[..., None], axis=3)
        return g.reshape(shape), {}


class TemporalMean(Layer):
    """[N, T, C] -> [N, C]; the temporally blind fusion head."""

    def __init__(self, name: str = "tmean"):
        self.name = name

    def forward(self, x):
        return x.mean(axis=1), x.shape

    def backward(self, grad_y, shape):
        n, t, c = shape
        return np.broadcast_to(grad_y[:, None, :] / t, shape).copy(), {}


class Linear(Layer):
    def __init__(self, cin: int, cout: int, rng: Rng, name: str, scale: float | None = None):
        self.name = name
        k = scale if scale is not None else 1.0 / np.sqrt(cin)
        self.w = rng.uniform([cout, cin], -k, k)
        self.b = np.zeros(cout)

    def named_params(self):
        return {"w": self.w, "b": self.b}

    def forward(self, x):
        return x @ self.w.T + self.b[None, :], x

    def backward(self, grad_y, x):
        return grad_y @ self.w, {"w": grad_y.T @ x, "b": grad_y.sum(axis=0)}


class TinBlock(Layer):
    """Pool -> offset net -> rescale, pool -> weight net, then interlace.

    detach_offsets treats the emitted offsets and weights as constants in
    the backward pass (no gradient flows into the nets or back through the
    pooled descriptor); useful for ablating the parameter-generator path.
    """

    def __init__(self, cfg: InterlaceConfig, rng: Rng, name: str = "tin",
                 weightnet_input: str = "descriptor", detach_offsets: bool = False):
        self.name = name
        self.cfg = cfg
        self.onet = OffsetNetParams(cfg.t, cfg.c, cfg.g, rng.child("offsetnet"))
        self.wnet = WeightNetParams(cfg.t, cfg.c, cfg.g, rng.child("weightnet"), weightnet_input)
        self.detach_offsets = detach_offsets

    def named_params(self):
        out = {f"onet.{k}": v for k, v in self.onet.named_params().items()}
        out.update({f"wnet.{k}": v for k, v in self.wnet.named_params().items()})
        return out

    def forward(self, u):
        z = nets.pool_descriptor(u)
        raw, otape = nets.offsetnet_forward(z, self.onet)
        offsets = nets.rescale_offsets(raw, self.cfg.t, self.cfg.mirror)
        weights, wtape = nets.weightnet_forward(z, self.wnet)
        v, itape = interlace_forward(u, offsets, weights, self.cfg)
        tape = {"itape": itape, "otape": otape, "wtape": wtape,
                "offsets": offsets, "weights": weights, "hw": u.shape[-2:]}
        return v, tape

    def backward(self, grad_v, tape):
        grad_u, grad_off, grad_w = interlace_backward(grad_v, tape["itape"])
        if self.detach_offsets:
            return grad_u, {name: np.zeros_like(p) for name, p in self.named_params().items()}
        ograds, wgrads, grad_z = nets.nets_backward(
            grad_off, grad_w, tape["otape"], tape["wtape"], self.onet, self.wnet, self.cfg.mirror)
        h, w = tape["hw"]
        grad_u = grad_u + nets.pool_descriptor_vjp(grad_z, h, w)
        grads = {f"onet.{k}": v for k, v in ograds.items()}
        grads.update({f"wnet.{k}": v for k, v in wgrads.items()})
        return grad_u, grads


# ---------------------------------------------------------------------------
# toy networks

class ToyNet:
    """A plain layer chain with named parameters and explicit backward."""

    def __init__(self, layers: list):
        names = [l.name for l in layers]
        if len(set(names)) != len(names):
            raise ShapeError(f"duplicate layer names in {names}")
        self.layers = layers

    def named_params(self) -> dict:
        out = {}
        for layer in self.layers:
            for k, v in layer.named_params().items():
                out[f"{layer.name}.{k}"] = v
        return out

    def forward(self, x):
        tapes = []
        for layer in self.layers:
            x, tape = layer.forward(x)
            tapes.append(tape)
        return x, tapes

    def backward(self, grad_out, tapes):
        grads = {}
        for layer, tape in zip(reversed(self.layers), reversed(tapes)):
            grad_out, layer_grads = layer.backward(grad_out, tape)
            for k, v in layer_grads.items():
                grads[f"{layer.name}.{k}"] = v
        return grad_out, grads

    def tin_blocks(self) -> list:
        return [l for l in self.layers if isinstance(l, TinBlock)]


def make_toy_net(t: int, cin: int, k_classes: int, rng: Rng, hidden: int = 16,
                 temporal: str = "tin", cfg: InterlaceConfig | None = None,
                 weightnet_input: str = "descriptor", head_scale: float = 0.1,
                 pool: str = "max") -> ToyNet:
    """Per-frame conv net with one optional temporal-mixing layer.

    temporal selects the layer under test: "tin" (interlace block), "tcn"
    (trainable per-channel 3-tap temporal conv), or "none" (temporally
    blind baseline). Layer parameters draw from per-name child streams, so
    shared layers are identical across the three variants under one seed.
    """
    if temporal not in ("tin", "tcn", "none"):
        raise ShapeError(f"unknown temporal layer kind {temporal!r}")
    layers: list[Layer] = [
        PointwiseConv2d(cin, hidden, rng.child("conv1"), "conv1"),
        ReLU("relu1"),
    ]
    if temporal == "tin":
        cfg = cfg or InterlaceConfig(t=t, c=hidden)
        if cfg.c != hidden or cfg.t != t:
            raise ShapeError(f"config [T={cfg.t}, C={cfg.c}] does not match net [T={t}, C={hidden}]")
        layers.append(TinBlock(cfg, rng.child("tin"), "tin", weightnet_input))
    elif temporal == "tcn":
        layers.append(TemporalConv(hidden, "tconv"))
    layers += [
        PointwiseConv2d(hidden, hidden, rng.child("conv2"), "conv2"),
        ReLU("relu2"),
        SpatialPool(pool),
        TemporalMean(),
        Linear(hidden, k_classes, rng.child("head"), "head", scale=head_scale),
    ]
    return ToyNet(layers)


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch.

    Returns (loss, grad_logits, n_correct). The gradient already carries
    the 1/N factor.
    """
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ShapeError(f"labels {labels.shape} do not match logits {logits.shape}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.sum(np.exp(shifted), axis=1))
    loss = float(np.mean(logz - shifted[np.arange(n), labels]))
    probs = np.exp(shifted) / np.exp(logz)[:, None]
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    n_correct = int(np.sum(np.argmax(logits, axis=1) == labels))
    assert_finite(grad, "cross-entropy gradient")
    return loss, grad, n_correct
