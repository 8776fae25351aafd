import numpy as np
import pytest

from tin.errors import ConfigError
from tin.synth import SynthTask, default_width, generate_task, standardize, task_classes


def test_task_classes():
    assert task_classes("direction2") == 2
    assert task_classes("direction3") == 3
    assert task_classes("speed2") == 2
    with pytest.raises(ConfigError):
        task_classes("direction5")


def test_direction2_reversal_symmetry_at_zero_noise():
    spec = SynthTask(task="direction2", noise=0.0, train_clips=60, val_clips=20, seed=4)
    data = generate_task(spec, "train")
    fwd = data.clips[data.labels == 0]
    rev = data.clips[data.labels == 1]
    # every class-1 clip reversed along time moves left-to-right again:
    # its brightest column index must increase frame over frame
    for clip in rev[:10]:
        flipped = clip[::-1]
        cols = [int(np.argmax(flipped[t, 0].max(axis=0))) for t in range(spec.t)]
        assert all(b - a == 1 for a, b in zip(cols, cols[1:]))
    for clip in fwd[:10]:
        cols = [int(np.argmax(clip[t, 0].max(axis=0))) for t in range(spec.t)]
        assert all(b - a == 1 for a, b in zip(cols, cols[1:]))


def test_per_frame_means_class_independent():
    spec = SynthTask(task="direction2", train_clips=400, val_clips=100, seed=0)
    data = generate_task(spec, "train")
    gap = np.abs(data.class_frame_means[0] - data.class_frame_means[1]).max()
    assert gap < spec.noise  # far below the pattern contrast


def test_generation_deterministic():
    spec = SynthTask(task="direction3", train_clips=90, val_clips=30, seed=7)
    a = generate_task(spec, "train")
    b = generate_task(spec, "train")
    assert np.array_equal(a.clips, b.clips)
    assert np.array_equal(a.labels, b.labels)


def test_splits_differ():
    spec = SynthTask(task="direction2", train_clips=50, val_clips=50, seed=7)
    a = generate_task(spec, "train")
    b = generate_task(spec, "val")
    assert a.clips.shape == b.clips.shape
    assert not np.array_equal(a.clips, b.clips)


def test_pattern_never_touches_border():
    for task in ("direction2", "direction3", "speed2"):
        spec = SynthTask(task=task, w=default_width(task), noise=0.0,
                         train_clips=60, val_clips=10, seed=1)
        data = generate_task(spec, "train")
        assert np.all(data.clips[:, :, :, 0, :] == 0.0)
        assert np.all(data.clips[:, :, :, -1, :] == 0.0)
        assert np.all(data.clips[:, :, :, :, 0] == 0.0)
        assert np.all(data.clips[:, :, :, :, -1] == 0.0)


def test_labels_balanced():
    spec = SynthTask(task="direction3", train_clips=300, val_clips=30, seed=2)
    data = generate_task(spec, "train")
    counts = np.bincount(data.labels)
    assert counts.min() >= 99 and counts.max() <= 101


def test_speed2_needs_wide_frames():
    with pytest.raises(ConfigError):
        SynthTask(task="speed2", w=16)
    SynthTask(task="speed2", w=default_width("speed2"))


def test_speed2_builds_with_the_library_defaults():
    # the frame width follows the task unless it is given
    assert SynthTask(task="speed2").w == default_width("speed2") == 24
    assert SynthTask().w == 16


def test_static_class_in_direction3():
    spec = SynthTask(task="direction3", noise=0.0, train_clips=90, val_clips=10, seed=3)
    data = generate_task(spec, "train")
    static = data.clips[data.labels == 2]
    for clip in static[:5]:
        assert np.array_equal(clip[0], clip[-1])


def test_standardize_statistics_and_symmetry():
    spec = SynthTask(task="direction2", train_clips=200, val_clips=50, seed=5)
    tr, va = standardize(generate_task(spec, "train"), generate_task(spec, "val"))
    assert abs(tr.clips.mean()) < 1e-12
    assert abs(tr.clips.std() - 1.0) < 1e-12
    # val uses train statistics, so it is close to but not exactly normalized
    assert abs(va.clips.mean()) < 0.05


def test_clip_shape_and_dtype():
    spec = SynthTask(task="direction2", t=8, h=16, w=16, train_clips=10, val_clips=5, seed=0)
    data = generate_task(spec, "val")
    assert data.clips.shape == (5, 8, 1, 16, 16)
    assert data.clips.dtype == np.float64
    assert data.labels.dtype == np.int64
