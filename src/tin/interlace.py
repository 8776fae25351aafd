"""Fractional temporal shift of grouped channels with per-frame attention.

The operator splits the channel axis into G shifted groups plus an
un-shifted remainder, resamples each shifted group along time at a
real-valued offset by linear interpolation (with a zero-padded boundary
buffer, so near-edge samples blend against zero and samples more than one
frame outside the clip are exactly zero), scales each shifted group
per-frame by an attention weight in (0, 2), and reassembles the map.

Sampling convention for a group with offset O, n0 = floor(O), f = O - n0:

    v[t] = (1 - f) * u[t + n0] + f * u[t + n0 + 1]

with out-of-range source frames contributing zero. At integer offsets the
gradient in O is the right-hand sub-derivative (f = 0 convention); that
kink is deliberate and flagged by the gradient checker.

For one (clip, group) the resampling is the T x T matrix with two
diagonals B = (1 - f) E[n0] + f E[n0 + 1], where E[k] = shifts(T, k) has
ones where column = row + k; rows of E that would read outside the clip
are zero, which is the boundary buffer. With D = E[n0 + 1] - E[n0], x the
[N, G, T, gs*H*W] view of the shifted channels, w the weights, g the
output gradient on that view and M = x @ g^T its T x T Gram product:

    v      = w * (B @ x)
    grad_u = B^T @ (w * g)
    grad_w = diag(B @ M)
    grad_O = sum over T of w * diag(D @ M)

since sum over p of g[r, p] (B @ x)[r, p] = sum over s of B[r, s] M[s, r].
The code folds the weights into the band, diag(w) @ B, so the forward and
the input gradient are one matmul each, written straight into the result;
the backward reads x and g once more for M and reduces it through both
bands at T x T cost. The backward can write its input gradient into an
array the caller hands it as out, grad_v itself included: the un-shifted
channels of grad_v are then already in place, and only the shifted
quarter is written (the rest is scaled in place when weight_all_channels
is on), after M and the dots of the scaled channels have read g. Every resampling here, temporal_sample and its VJP
included, goes through that one form.
Integer offsets make B a plain shift matrix (the temporal shift module's
case), and offset 0 makes it the identity.

Feature maps are [T, C, H, W] or [N, T, C, H, W]; offsets are [G] or
[N, G]; weights are [G, T] or [N, G, T]. An unbatched call is the N = 1
case of the batched one. Forward returns a tape holding only the input,
the offsets and the weights, which is consumed by exactly one backward
call. Without out, neither pass writes into an array of the caller's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .tensors import assert_finite


@dataclass
class InterlaceConfig:
    """Channel partitioning and shift behaviour.

    g counts all shifted groups, mirrored ones included: with mirror on,
    groups [0, g/2) carry learned offsets and group g/2 + i carries the
    negation of group i's offset. shift_fraction is the portion of
    channels that shifts at all; the rest pass through untouched.
    weight_all_channels additionally scales the un-shifted block by the
    per-frame mean of the group weights (off by default).
    """

    t: int
    c: int
    g: int = 4
    shift_fraction: float = 0.25
    mirror: bool = True
    weight_all_channels: bool = False

    def __post_init__(self):
        if self.t < 1 or self.c < 1 or self.g < 0:
            raise ShapeError(f"invalid config t={self.t} c={self.c} g={self.g}")
        if self.g == 0:
            return
        if not 0.0 < self.shift_fraction <= 1.0:
            raise ShapeError(f"shift_fraction {self.shift_fraction} outside (0, 1]")
        cs = self.c * self.shift_fraction
        if abs(cs - round(cs)) > 1e-9:
            raise ShapeError(f"c={self.c} times shift_fraction={self.shift_fraction} is not integral")
        if round(cs) % self.g != 0:
            raise ShapeError(f"{round(cs)} shifted channels not divisible into {self.g} groups")
        if self.mirror and self.g % 2 != 0:
            raise ShapeError(f"mirroring needs an even group count, got g={self.g}")

    @property
    def learned_groups(self) -> int:
        """Groups whose offsets are learned: g / 2 with mirroring, else g."""
        return self.g // 2 if self.mirror else self.g

    @property
    def c_shift(self) -> int:
        return 0 if self.g == 0 else round(self.c * self.shift_fraction)

    @property
    def group_size(self) -> int:
        return 0 if self.g == 0 else self.c_shift // self.g


def partition_channels(cfg: InterlaceConfig):
    """Disjoint channel ranges: G equal shifted groups, then the rest.

    Returns (groups, rest) where groups is a list of (lo, hi) pairs and
    rest is the un-shifted (lo, hi) range. Shifted groups sit at the
    lowest channel indices, contiguously, group-major.
    """
    if cfg.g == 0:
        return [], (0, cfg.c)
    gs = cfg.group_size
    groups = [(i * gs, (i + 1) * gs) for i in range(cfg.g)]
    return groups, (cfg.c_shift, cfg.c)


def validate_offsets(offsets: np.ndarray, cfg: InterlaceConfig) -> None:
    if offsets.shape[-1] != cfg.g:
        raise ShapeError(f"offsets have {offsets.shape[-1]} entries, config has g={cfg.g}")
    if not np.all(np.abs(offsets) < cfg.t / 2):       # False for NaN too
        assert_finite(offsets, "offsets")
        raise ShapeError(f"offset out of range (-{cfg.t / 2}, {cfg.t / 2})")
    if cfg.mirror and cfg.g:
        h = cfg.g // 2
        if not np.array_equal(offsets[..., h:], -offsets[..., :h]):
            raise ShapeError("mirror is on but offsets[g + G/2] != -offsets[g]")


def validate_weights(weights: np.ndarray, cfg: InterlaceConfig) -> None:
    if weights.shape[-2:] != (cfg.g, cfg.t):
        raise ShapeError(f"weights shaped {weights.shape}, expected (..., {cfg.g}, {cfg.t})")
    if not np.all((weights > 0.0) & (weights < 2.0)):    # False for NaN too
        assert_finite(weights, "attention weights")
        raise ShapeError("attention weights must lie strictly inside (0, 2)")


@dataclass
class InterlaceTape:
    """The forward inputs, which are all the three VJPs need.

    Nothing derived is stored: the backward pass rebuilds the banded
    matrices from the offsets.
    """

    u: np.ndarray          # batched input [N, T, C, H, W]
    offsets: np.ndarray    # [N, G]
    weights: np.ndarray    # [N, G, T]
    cfg: InterlaceConfig
    batched: bool
    consumed: bool = field(default=False)


def shifts(t: int, lags, dtype=np.float64) -> np.ndarray:
    """The T x T shift matrix E[k] for every lag k: [...] -> [..., T, T].

    E[k][r, r + k] = 1, and rows that would read outside the clip are zero,
    so a lag at or beyond +-T gives the zero matrix. Every band in the fast
    path (interlace, blocks.TemporalConv, blocks.Conv1d) is built from these.
    """
    lag = np.arange(t)[None, :] - np.arange(t)[:, None]    # lag[r, s] = s - r
    return (lag == np.asarray(lags)[..., None, None]).astype(dtype)


def _band(offsets: np.ndarray, t: int) -> np.ndarray:
    """The stacked pair [B, D] for every offset: [...] -> [..., 2, T, T].

    B resamples time at the offset and D is its right-hand derivative in
    the offset (see the module docstring); both in the offsets' dtype.
    """
    n0 = np.floor(offsets)
    f = (offsets - n0)[..., None, None]
    e0 = shifts(t, n0, offsets.dtype)
    e1 = shifts(t, n0 + 1, offsets.dtype)
    return np.stack([(1.0 - f) * e0 + f * e1, e1 - e0], axis=-3)


def _band_rows(bd: np.ndarray, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Row sums of g * (band @ x) for each band of bd: [..., K, T, T] -> [..., K, T].

    Reduces through the Gram product M = x @ g^T ([..., T, T]), so no
    product the size of x is formed: the row r sum is diag(band @ M)[r].
    """
    m = x @ g.swapaxes(-1, -2)
    return np.einsum("...krs,...sr->...kr", bd, m)


def _grouped(x: np.ndarray, cfg: InterlaceConfig) -> np.ndarray:
    """[N, G, T, gs*H*W] view of the shifted channels of a map [N, T, C, H, W].

    On a C-ordered x, writing into the view writes into x.
    """
    n, t, _, h, w = x.shape
    return x[:, :, :cfg.c_shift].reshape(n, t, cfg.g, cfg.group_size * h * w).swapaxes(1, 2)


def _sample_band(u: np.ndarray, offset: float) -> np.ndarray:
    """[B, D] for temporal_sample, in u's float precision."""
    t = u.shape[0]
    if not abs(offset) < t / 2:                       # False for NaN too
        assert_finite(np.asarray(offset), "offset")
        raise ShapeError(f"|offset| = {abs(offset)} must be < T/2 = {t / 2}")
    return _band(np.asarray(offset, dtype=np.result_type(u, 0.0)), t)


def temporal_sample(u: np.ndarray, offset: float) -> np.ndarray:
    """Shift a whole tensor along its leading time axis by a real offset."""
    u = np.asarray(u)
    b = _sample_band(u, offset)[0]
    return (b @ u.reshape(u.shape[0], -1)).reshape(u.shape)


def temporal_sample_vjp(u: np.ndarray, offset: float, grad_v: np.ndarray):
    """Gradients of temporal_sample w.r.t. the input and the offset.

    The input gradient is B^T @ grad_v; the offset gradient is the sum of
    grad_v * (D @ u), taken as trace(D @ M) with M = u @ grad_v^T, and is
    right-hand at integer offsets.
    """
    u = np.asarray(u)
    grad_v = np.asarray(grad_v)
    if grad_v.shape != u.shape:
        raise ShapeError(f"grad shape {grad_v.shape} != input shape {u.shape}")
    b, d = _sample_band(u, offset)
    t = u.shape[0]
    g = grad_v.reshape(t, -1)
    grad_u = (b.T @ g).reshape(u.shape)
    grad_offset = float(np.sum(_band_rows(d[None], u.reshape(t, -1), g)))
    return grad_u, grad_offset


def _batchify(u, offsets, weights, cfg: InterlaceConfig):
    u = np.asarray(u)
    if u.dtype.kind != "f":
        raise ShapeError(f"feature map must be floating point, got dtype {u.dtype}")
    offsets = np.asarray(offsets, dtype=u.dtype)
    weights = np.asarray(weights, dtype=u.dtype)
    if u.ndim == 4:
        batched = False
        ub = u[None]
        if offsets.ndim != 1 or weights.ndim != 2:
            raise ShapeError("unbatched input needs offsets [G] and weights [G, T]")
        ob, wb = offsets[None], weights[None]
    elif u.ndim == 5:
        batched = True
        ub = u
        if offsets.ndim != 2 or weights.ndim != 3 or offsets.shape[0] != u.shape[0] \
                or weights.shape[0] != u.shape[0]:
            raise ShapeError("batched input needs offsets [N, G] and weights [N, G, T]")
        ob, wb = offsets, weights
    else:
        raise ShapeError(f"feature map must be rank 4 or 5, got shape {u.shape}")
    n, t, c = ub.shape[:3]
    if (t, c) != (cfg.t, cfg.c):
        raise ShapeError(f"input [T={t}, C={c}] does not match config [T={cfg.t}, C={cfg.c}]")
    return ub, ob, wb, batched


def _pass_through(out: np.ndarray, x: np.ndarray, weights: np.ndarray, cfg: InterlaceConfig):
    """Write the un-shifted channels of x into out, scaled when weight_all_channels.

    When out is x and nothing is scaled, the channels are already in place.
    """
    cs = cfg.c_shift
    if cfg.g and cfg.weight_all_channels:
        np.multiply(x[:, :, cs:], weights.mean(axis=1)[:, :, None, None, None], out=out[:, :, cs:])
    elif out is not x:
        out[:, :, cs:] = x[:, :, cs:]


def interlace_forward(u, offsets, weights, cfg: InterlaceConfig):
    """Apply the operator; returns (v, tape) with v the same shape as u."""
    ub, ob, wb, batched = _batchify(u, offsets, weights, cfg)
    validate_offsets(ob, cfg)
    validate_weights(wb, cfg)
    v = np.empty(ub.shape, dtype=ub.dtype)
    _pass_through(v, ub, wb, cfg)
    if cfg.g:
        wband = wb[..., None] * _band(ob, cfg.t)[:, :, 0]      # diag(w) @ B
        np.matmul(wband, _grouped(ub, cfg), out=_grouped(v, cfg))
    assert_finite(v, "interlace output")
    tape = InterlaceTape(ub, ob, wb, cfg, batched)
    return (v if batched else v[0]), tape


def interlace_backward(grad_v, tape: InterlaceTape, out=None):
    """Exact VJPs w.r.t. the input, the offsets and the attention weights.

    The tape is single-use; a second call on the same tape is an error.
    A gradient of the wrong shape is rejected without using the tape up.
    The input gradient goes into a fresh array, or into out when given: a
    C-ordered array of grad_v's shape and the input's dtype, which may be
    grad_v itself. Then only the shifted channels are written, and the
    un-shifted ones too if weight_all_channels scales them. grad_v is read
    in full before any write, so the result is the same bits either way.
    """
    if tape.consumed:
        raise ShapeError("interlace tape already consumed by a backward call")
    cfg = tape.cfg
    grad_v = np.asarray(grad_v, dtype=tape.u.dtype)
    gb = grad_v[None] if not tape.batched else grad_v
    if gb.shape != tape.u.shape:
        raise ShapeError(f"grad shape {grad_v.shape} does not match forward input")
    if out is not None and (out.shape != grad_v.shape or out.dtype != gb.dtype
                            or not out.flags.c_contiguous or not out.flags.writeable
                            or (out is not grad_v and np.may_share_memory(out, grad_v))):
        raise ShapeError(f"out must be grad_v or a separate writeable C-ordered {gb.dtype} "
                         f"array shaped {grad_v.shape}")
    tape.consumed = True
    if out is None:
        grad_u = np.empty(gb.shape, dtype=gb.dtype)
    else:
        grad_u = gb if out is grad_v else out if tape.batched else out[None]

    grad_off = np.zeros_like(tape.offsets)
    grad_w = np.zeros_like(tape.weights)
    if cfg.g:
        g = _grouped(gb, cfg)
        if cfg.weight_all_channels:
            cs = cfg.c_shift
            dots = np.einsum("ntchw,ntchw->nt", gb[:, :, cs:], tape.u[:, :, cs:])
            grad_w += dots[:, None, :] / cfg.g
        bd = _band(tape.offsets, cfg.t)
        rows = _band_rows(bd, _grouped(tape.u, cfg), g)          # [N, G, 2, T]
        grad_w += rows[:, :, 0]
        grad_off += np.sum(tape.weights * rows[:, :, 1], axis=-1)
        wband = tape.weights[..., None] * bd[:, :, 0]            # diag(w) @ B
        # when grad_u is gb the product overlaps its input; numpy then
        # reads g whole before it writes
        np.matmul(wband.swapaxes(-1, -2), g, out=_grouped(grad_u, cfg))
    _pass_through(grad_u, gb, tape.weights, cfg)

    if out is None:
        out = grad_u if tape.batched else grad_u[0]
    if not tape.batched:
        return out, grad_off[0], grad_w[0]
    return out, grad_off, grad_w
