"""Constrained temporal-convolution equivalent of the interlace operator.

Any (offset, weight) pair maps to a two-tap kernel: values
[(n0 + 1 - O) * w, (O - n0) * w] at relative frames [n0, n0 + 1] with
n0 = floor(O). Expanding those per-group kernels to per-channel kernels
and running them through a plain zero-padded temporal convolution must
reproduce the interlace output; verify_equivalence measures the gap.

dense_tconv here is a deliberately naive nested-loop implementation that
shares no code with the interlace fast path, so the comparison is a real
two-route check.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, NonFiniteError, ShapeError
from .interlace import InterlaceConfig, interlace_forward, partition_channels
from .tensors import Rng


@dataclass
class EquivKernel:
    """Per (group, frame) two-tap kernels plus the config that shaped them."""

    n0: np.ndarray      # [G] int64, left tap position per group
    values: np.ndarray  # [G, T, 2] tap values
    cfg: InterlaceConfig


@dataclass
class DenseTemporalKernel:
    """Per-channel, per-output-frame taps over relative frames [-T, T].

    taps[c, t, s + T] multiplies the input frame (t + s) when producing
    output frame t; out-of-range source frames read zero. A kernel that
    does not vary with t is the stationary special case.
    """

    taps: np.ndarray  # [C, T, 2T + 1]

    @property
    def support(self) -> int:
        return (self.taps.shape[2] - 1) // 2

    @classmethod
    def identity(cls, c: int, t: int) -> "DenseTemporalKernel":
        taps = np.zeros((c, t, 2 * t + 1))
        taps[:, :, t] = 1.0
        return cls(taps)

    @classmethod
    def stationary(cls, per_channel: np.ndarray, t: int) -> "DenseTemporalKernel":
        """per_channel: [C, K] with K odd, centered on relative frame 0."""
        per_channel = np.asarray(per_channel, dtype=np.float64)
        c, k = per_channel.shape
        if k % 2 != 1:
            raise ShapeError(f"stationary kernel size {k} must be odd")
        r = min(k // 2, t)    # taps beyond +-T reach no frame; they are dropped
        taps = np.zeros((c, t, 2 * t + 1))
        taps[:, :, t - r:t + r + 1] = per_channel[:, None, k // 2 - r:k // 2 + r + 1]
        return cls(taps)


def build_equiv_kernel(offsets: np.ndarray, weights: np.ndarray, cfg: InterlaceConfig) -> EquivKernel:
    """Two-tap kernels realizing each group's (offset, weight) pair."""
    offsets = np.asarray(offsets, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if offsets.shape != (cfg.g,) or weights.shape != (cfg.g, cfg.t):
        raise ShapeError(f"need offsets [G] and weights [G, T] for g={cfg.g}")
    if not np.all(np.isfinite(offsets)):
        raise NonFiniteError("offsets must be finite")
    if not np.all(np.abs(offsets) < cfg.t / 2):
        raise ShapeError(f"offset out of range (-{cfg.t / 2}, {cfg.t / 2})")
    n0 = np.floor(offsets).astype(np.int64)
    f = offsets - n0
    values = np.stack([(1.0 - f)[:, None] * weights, f[:, None] * weights], axis=-1)
    return EquivKernel(n0, values, cfg)


def equiv_to_dense(kernel: EquivKernel) -> DenseTemporalKernel:
    """Expand group kernels to per-channel kernels; un-shifted channels get
    the identity tap (or the mean attention weight when the config scales
    all channels)."""
    cfg = kernel.cfg
    t = cfg.t
    dense = DenseTemporalKernel.identity(cfg.c, t)
    groups, rest = partition_channels(cfg)
    for gi, (lo, hi) in enumerate(groups):
        row = np.zeros((t, 2 * t + 1))
        row[:, kernel.n0[gi] + t] = kernel.values[gi, :, 0]
        row[:, kernel.n0[gi] + 1 + t] = kernel.values[gi, :, 1]
        dense.taps[lo:hi] = row[None]
    if cfg.weight_all_channels and cfg.g and rest[0] < rest[1]:
        per_group_w = kernel.values[:, :, 0] + kernel.values[:, :, 1]  # sums back to w
        m = per_group_w.mean(axis=0)
        dense.taps[rest[0]:, :, t] = m[None, :]
    return dense


def dense_tconv(u: np.ndarray, kernel: DenseTemporalKernel) -> np.ndarray:
    """Plain nested-loop per-channel temporal convolution, zero padded."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 4:
        raise ShapeError(f"expected [T, C, H, W], got {u.shape}")
    t, c = u.shape[:2]
    if kernel.taps.shape[:2] != (c, t):
        raise ShapeError(f"kernel {kernel.taps.shape} does not match input {u.shape}")
    s_half = kernel.support
    v = np.zeros_like(u)
    for t0 in range(t):
        for ci in range(c):
            acc = np.zeros(u.shape[2:])
            for s in range(-s_half, s_half + 1):
                w = kernel.taps[ci, t0, s + s_half]
                if w != 0.0 and 0 <= t0 + s < t:
                    acc += w * u[t0 + s, ci]
            v[t0, ci] = acc
    return v


@dataclass
class EquivReport:
    max_abs_diff: float
    per_group: list
    tol: float
    passed: bool


def verify_equivalence(u, offsets, weights, cfg: InterlaceConfig, tol: float = 1e-9) -> EquivReport:
    """Compare the operator against its constrained-convolution form."""
    v_fast, _ = interlace_forward(u, offsets, weights, cfg)
    v_ref = dense_tconv(u, equiv_to_dense(build_equiv_kernel(offsets, weights, cfg)))
    diff = np.abs(np.asarray(v_fast, dtype=np.float64) - v_ref)
    groups, rest = partition_channels(cfg)
    per_group = [{"group": gi, "max_abs_diff": float(diff[:, lo:hi].max(initial=0.0))}
                 for gi, (lo, hi) in enumerate(groups)]
    per_group.append({"group": "unshifted", "max_abs_diff": float(diff[:, rest[0]:].max(initial=0.0))})
    worst = float(diff.max())
    return EquivReport(worst, per_group, tol, worst < tol)


@dataclass
class TrialsReport:
    trials: int
    seed: int
    tol: float
    max_abs_diff: float
    failures: int
    passed: bool
    worst: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _trial_offsets(rng: Rng, cfg: InterlaceConfig) -> np.ndarray:
    """Mix of fractional, integer, and near-boundary offsets."""
    g_learned = cfg.g // 2 if cfg.mirror else cfg.g
    half_t = cfg.t / 2
    kinds = rng.integers(0, 3, g_learned)
    vals = np.empty(g_learned)
    for i, kind in enumerate(kinds):
        if kind == 0:
            vals[i] = rng.uniform([], -half_t + 1e-9, half_t)[()]
        elif kind == 1:
            vals[i] = float(rng.integers(-(cfg.t // 2 - 1), cfg.t // 2))
        else:
            side = 1.0 if rng.integers(0, 2) else -1.0
            vals[i] = side * (half_t - float(rng.uniform([], 1e-7, 1e-3)[()]))
    return np.concatenate([vals, -vals]) if cfg.mirror else vals


def run_equivalence_trials(trials: int, seed: int, tol: float = 1e-9) -> TrialsReport:
    """Seeded random sweep over shapes, group layouts, and offset regimes."""
    if trials < 1:
        raise ConfigError(f"need at least one trial, got {trials}")
    if not tol >= 0:     # 0 is a gate no trial can pass; NaN fails here
        raise ConfigError(f"tolerance must be non-negative, got {tol}")
    root = Rng(seed)
    worst = {"diff": -1.0}
    failures = 0
    max_diff = 0.0
    for i in range(trials):
        rng = root.child(f"trial{i}")
        t = int([4, 8, 16][rng.integers(0, 3)])
        mirror = bool(rng.integers(0, 2))
        g = int([2, 4][rng.integers(0, 2)]) if mirror else int([1, 2, 4][rng.integers(0, 3)])
        wac = bool(rng.integers(0, 4) == 0)
        cfg = InterlaceConfig(t=t, c=4 * g, g=g, shift_fraction=0.5, mirror=mirror,
                              weight_all_channels=wac)
        u = rng.uniform([t, cfg.c, 3, 3], -1.0, 1.0)
        offsets = _trial_offsets(rng.child("off"), cfg)
        weights = rng.uniform([g, t], 1e-6, 2.0 - 1e-6)
        rep = verify_equivalence(u, offsets, weights, cfg, tol)
        if not rep.passed:
            failures += 1
        if rep.max_abs_diff > max_diff:
            max_diff = rep.max_abs_diff
            worst = {"diff": rep.max_abs_diff, "trial": i, "t": t, "g": g,
                     "mirror": mirror, "offsets": [float(o) for o in offsets]}
    return TrialsReport(trials, seed, tol, max_diff, failures, failures == 0, worst)
