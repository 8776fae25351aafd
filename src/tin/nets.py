"""Pooling, sigmoid, rescale, and the boundary between a TinBlock and its nets.

Global spatial pooling squeezes a feature map into a descriptor z, [C, T]
or [N, C, T]. The offset net (blocks.OffsetNet) maps a batch of
descriptors to raw per-group values in (0, 1), which rescale_offsets turns
into fractional temporal offsets in (-T/2, T/2); the weight net
(blocks.WeightNet) maps it to per-group per-frame weights in (0, 2). Both
are layer chains whose last layer starts at zero, so a fresh block emits
offsets of exactly 0 and weights of exactly 1: the identity.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensors import assert_finite

WEIGHTNET_INPUTS = ("descriptor", "channel_mean")


# ---------------------------------------------------------------------------
# pooling

def pool_descriptor(u: np.ndarray) -> np.ndarray:
    """z[c, t] = spatial mean of u[t, c]; batched input gives [N, C, T]."""
    u = np.asarray(u)
    if u.ndim == 4:
        return u.mean(axis=(2, 3)).T
    if u.ndim == 5:
        return np.swapaxes(u.mean(axis=(3, 4)), 1, 2)
    raise ShapeError(f"feature map must be rank 4 or 5, got {u.shape}")


def pool_descriptor_vjp(grad_z: np.ndarray, h: int, w: int) -> np.ndarray:
    """Spread the descriptor gradient back over the H x W positions.

    Returns a read-only broadcast view, [T, C, H, W] or [N, T, C, H, W];
    add it into a gradient, or copy it before writing.
    """
    grad_z = np.asarray(grad_z)
    scale = grad_z / (h * w)
    if grad_z.ndim == 2:
        return np.broadcast_to(scale.T[:, :, None, None], scale.T.shape + (h, w))
    if grad_z.ndim == 3:
        swapped = np.swapaxes(scale, 1, 2)
        return np.broadcast_to(swapped[..., None, None], swapped.shape + (h, w))
    raise ShapeError(f"descriptor grad must be rank 2 or 3, got {grad_z.shape}")


# ---------------------------------------------------------------------------
# sigmoid and rescale

def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid, clamped into the OPEN unit interval.

    Saturated preactivations would otherwise round to exactly 0 or 1 and
    break the strict range contracts of the offsets and weights. A float
    input keeps its dtype, any other input gives float64. The clamp is
    [epsneg, 1 - epsneg] of that dtype, big enough that (sigmoid(x) - 0.5) * T
    stays strictly inside (-T/2, T/2) after rounding.
    """
    x = np.asarray(x)
    dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
    out = np.empty(x.shape, dtype=dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    eps = np.finfo(dtype).epsneg
    return np.clip(out, eps, 1.0 - eps)


def rescale_offsets(raw: np.ndarray, t: int, mirror: bool) -> np.ndarray:
    """Map raw values in (0, 1) to offsets in (-T/2, T/2).

    offset = (raw - 0.5) * T. With mirroring only the first G/2 raw values
    are consumed; the second half of the result is their exact negation.
    """
    if t < 1:
        raise ShapeError(f"need at least one frame, got t={t}")
    raw = np.asarray(raw)
    if not np.all((raw > 0.0) & (raw < 1.0)):       # False for NaN too
        assert_finite(raw, "raw offsets")
        raise ShapeError("raw offsets must lie strictly inside (0, 1)")
    g = raw.shape[-1]
    if mirror:
        if g % 2 != 0:
            raise ShapeError(f"mirroring needs an even group count, got {g}")
        half = (raw[..., : g // 2] - 0.5) * t
        return np.concatenate([half, -half], axis=-1)
    return (raw - 0.5) * t


def rescale_offsets_vjp(grad_off: np.ndarray, t: int, mirror: bool) -> np.ndarray:
    if t < 1:
        raise ShapeError(f"need at least one frame, got t={t}")
    grad_off = np.asarray(grad_off)
    if not mirror:
        return grad_off * t
    g = grad_off.shape[-1]
    grad_raw = np.zeros_like(grad_off)
    grad_raw[..., : g // 2] = (grad_off[..., : g // 2] - grad_off[..., g // 2:]) * t
    return grad_raw


# ---------------------------------------------------------------------------
# the generator nets, batched

def _descriptor(z: np.ndarray, net) -> np.ndarray:
    z = np.asarray(z)
    if z.ndim != 3 or z.shape[1:] != (net.c, net.t):
        raise ShapeError(f"descriptor {z.shape} does not match the net's [N, C={net.c}, T={net.t}]")
    return z


def offsetnet_forward(z: np.ndarray, net):
    """Returns (raw offsets in (0, 1) shaped [N, G], tape) for z [N, C, T]."""
    return net.forward(_descriptor(z, net))


def weightnet_forward(z: np.ndarray, net):
    """Returns (weights in (0, 2) shaped [N, G, T], tape) for z [N, C, T]."""
    return net.forward(_descriptor(z, net))


def nets_backward(grad_offsets, grad_weights, otape, wtape, onet, wnet, mirror: bool):
    """Chain rule through rescale and both nets; grad_z sums both branches."""
    grad_raw = rescale_offsets_vjp(grad_offsets, onet.t, mirror)
    gz_o, ograds = onet.backward(grad_raw, otape)
    gz_w, wgrads = wnet.backward(grad_weights, wtape)
    for v in list(ograds.values()) + list(wgrads.values()):
        assert_finite(v, "net parameter gradient")
    return ograds, wgrads, gz_o + gz_w
