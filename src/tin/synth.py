"""Synthetic clips whose labels depend only on frame order or speed.

Every task renders a small asymmetric pattern (a dim "tail" column next to
a bright "head" column) that moves inside the frame and never touches the
border, so the spatial mean of every frame is identical across classes by
construction. A model that fuses frames by plain temporal averaging is
therefore at chance, while the frame ORDER (or spacing) fully determines
the label:

  direction2  class 0 moves left-to-right; class 1 is a freshly drawn
              class-0 clip reversed along time.
  direction3  adds a static class 2.
  speed2      1 px/frame vs 2 px/frame, direction drawn at random.

Clips are [T, 1, H, W] float64 in [0, 1] plus uniform pixel noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .tensors import Rng

TASKS = ("direction2", "direction3", "speed2")

# pattern columns, left to right: tail then head, two rows tall
_TAIL, _HEAD = 0.4, 1.0
_PATTERN = np.array([[_TAIL, _HEAD], [_TAIL, _HEAD]])


def task_classes(task: str) -> int:
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; choose from {TASKS}")
    return 3 if task == "direction3" else 2


def default_width(task: str) -> int:
    """speed2 needs room for the fast class to stay inside the frame."""
    return 24 if task == "speed2" else 16


@dataclass
class SynthTask:
    task: str = "direction2"
    t: int = 8
    h: int = 16
    w: int | None = None    # None: default_width(task)
    noise: float = 0.02
    seed: int = 0
    train_clips: int = 2000
    val_clips: int = 500

    def __post_init__(self):
        self.k = task_classes(self.task)
        if self.t < 2:
            raise ConfigError(f"need at least two frames for frame order to matter, got t={self.t}")
        if self.w is None:
            self.w = default_width(self.task)
        speeds = (1, 2) if self.task == "speed2" else (1,)
        span = 2 + (self.t - 1) * max(speeds)
        if self.h < 4 or self.w < span + 2:
            raise ConfigError(
                f"frame {self.h}x{self.w} too small for task {self.task!r} "
                f"(needs width >= {span + 2})")
        if not 0 <= self.noise < np.inf:
            raise ConfigError(f"noise level must be finite and non-negative, got {self.noise}")
        if self.train_clips < 1 or self.val_clips < 1:
            raise ConfigError(f"need at least one clip per split, got train_clips="
                              f"{self.train_clips} val_clips={self.val_clips}")


@dataclass
class Dataset:
    clips: np.ndarray   # [N, T, 1, H, W]
    labels: np.ndarray  # [N] int64
    spec: SynthTask
    split: str
    class_frame_means: np.ndarray = field(default=None)  # [K, T]


def _render(t: int, h: int, w: int, x0: int, y0: int, v: int) -> np.ndarray:
    """Pattern at column x0 + v*t, row y0, for each frame."""
    clip = np.zeros((t, 1, h, w))
    for ti in range(t):
        x = x0 + v * ti
        clip[ti, 0, y0:y0 + 2, x:x + 2] = _PATTERN
    return clip


def _draw_clip(spec: SynthTask, label: int, rng: Rng) -> np.ndarray:
    t, h, w = spec.t, spec.h, spec.w
    y0 = int(rng.integers(1, h - 2))
    if spec.task in ("direction2", "direction3") and label in (0, 1):
        x0 = int(rng.integers(1, w - 2 - (t - 1)))
        clip = _render(t, h, w, x0, y0, 1)
        if label == 1:
            clip = clip[::-1].copy()
    elif spec.task == "direction3":  # static class
        x0 = int(rng.integers(1, w - 2))
        clip = _render(t, h, w, x0, y0, 0)
    else:  # speed2: same direction, 1 vs 2 px per frame
        v = 1 if label == 0 else 2
        x0 = int(rng.integers(1, w - 2 - (t - 1) * v))
        clip = _render(t, h, w, x0, y0, v)
    if spec.noise > 0:
        clip = clip + rng.uniform(clip.shape, -spec.noise, spec.noise)
    return clip


def generate_task(spec: SynthTask, split: str) -> Dataset:
    """Deterministic labeled clip set for the given split."""
    if split not in ("train", "val"):
        raise ConfigError(f"split must be 'train' or 'val', got {split!r}")
    n = spec.train_clips if split == "train" else spec.val_clips
    root = Rng(spec.seed).child(f"synth:{spec.task}:{split}")
    labels = np.arange(n) % spec.k
    labels = labels[root.child("order").permutation(n)]
    clips = np.empty((n, spec.t, 1, spec.h, spec.w))
    for i in range(n):
        clips[i] = _draw_clip(spec, int(labels[i]), root.child(f"clip{i}"))

    means = np.stack([clips[labels == k].mean(axis=(0, 2, 3, 4)) for k in range(spec.k)])
    _check_blindness(spec, means, np.bincount(labels, minlength=spec.k))
    return Dataset(clips, labels.astype(np.int64), spec, split, means)


def standardize(train: Dataset, val: Dataset) -> tuple:
    """Zero-mean unit-variance pixels, with statistics from the train split.

    An affine map of every pixel preserves all task symmetries (frame-set
    equality, class-independent frame means); it only puts the data at a
    scale where fresh nets have healthy gradients.
    """
    mu = float(train.clips.mean())
    sd = float(train.clips.std())
    if sd == 0.0:
        raise ConfigError("degenerate dataset: zero variance")
    t2 = Dataset((train.clips - mu) / sd, train.labels, train.spec, train.split,
                 train.class_frame_means)
    v2 = Dataset((val.clips - mu) / sd, val.labels, val.spec, val.split,
                 val.class_frame_means)
    return t2, v2


def _check_blindness(spec: SynthTask, means: np.ndarray, counts: np.ndarray) -> None:
    """Per-frame spatial means must not separate the classes.

    The pattern never leaves the frame, so per-frame means agree across
    classes up to noise; the bound is 8 sampling sigmas plus rounding.
    """
    per_pixel_sigma = max(spec.noise, 1e-9) / np.sqrt(3.0)
    sigma = per_pixel_sigma / np.sqrt(spec.h * spec.w * counts.min())
    gap = float(np.max(means.max(axis=0) - means.min(axis=0)))
    if gap > 8.0 * sigma + 1e-12:
        raise ConfigError(
            f"class-conditional frame means differ by {gap:.3g}; "
            "the task would leak label information to a temporally blind model")
