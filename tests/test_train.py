import csv
import json
import os
import subprocess
import sys
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from tin.errors import ConfigError, NonFiniteError
from tin.synth import SynthTask, generate_task, standardize
from tin.training import (AblationRow, TrainConfig, ablation_to_csv, ablation_to_json,
                       build_net, evaluate, log_trajectories, run_ablation,
                       run_experiment, train)

SMALL = dict(train_clips=96, val_clips=48)


def small_spec(task="direction2", seed=0):
    return SynthTask(task=task, seed=seed, **SMALL)


def test_lr_zero_leaves_parameters_and_accuracy_unchanged():
    spec = small_spec()
    tr, va = standardize(generate_task(spec, "train"), generate_task(spec, "val"))
    net = build_net(spec, "tin", seed=0)
    before = {k: v.copy() for k, v in net.named_params().items()}
    init_loss, init_acc = evaluate(net, va.clips, va.labels)
    cfg = TrainConfig(lr=0.0, epochs=2, seed=0, batch_size=32)
    rec = train(net, tr, va, cfg)
    for k, v in net.named_params().items():
        assert np.array_equal(v, before[k])
    assert rec.epochs[-1].val_acc == init_acc


_TRAIN_AND_DUMP = """
import sys
import weakref
from tin.synth import SynthTask
from tin.training import TrainConfig, build_net, task_data, train
spec = SynthTask(train_clips=96, val_clips=48)
net = build_net(spec, sys.argv[1], seed=0)
train(net, *task_data(spec), TrainConfig(lr=0.05, epochs=1, seed=0, batch_size=32))
for name, p in sorted(net.named_params().items()):
    sys.stdout.write(name + " " + p.tobytes().hex() + "\\n")
"""


@pytest.mark.parametrize("temporal", ["tin", "tcn"])
def test_trained_parameters_identical_across_blas_thread_counts(temporal):
    import tin
    src = os.path.dirname(os.path.dirname(os.path.abspath(tin.__file__)))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _TRAIN_AND_DUMP, temporal], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        outs.append(proc.stdout)
    assert outs[0] and outs[0] == outs[1]


def test_training_is_bit_deterministic():
    spec = small_spec()
    recs = []
    for _ in range(2):
        cfg = TrainConfig(lr=0.05, epochs=2, seed=3, batch_size=32)
        recs.append(run_experiment(spec, "tin", cfg))
    a, b = recs
    assert a.to_json() == b.to_json()
    assert [e.train_loss for e in a.epochs] == [e.train_loss for e in b.epochs]


def test_train_config_rejects_a_batch_size_below_one():
    # range() rejects a step of 0 with a bare ValueError, and a negative step trains nothing
    for size in (0, -1):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=size)


def test_lr_schedule_decays_at_milestones():
    cfg = TrainConfig(lr=1.0, lr_decay_epochs=(2, 4), lr_decay_factor=0.1, epochs=6)
    got = [cfg.lr_at(e) for e in range(6)]
    assert np.allclose(got, [1.0, 1.0, 0.1, 0.1, 0.01, 0.01], rtol=1e-12)


def test_divergence_raises_non_finite():
    spec = small_spec()
    tr, va = standardize(generate_task(spec, "train"), generate_task(spec, "val"))
    net = build_net(spec, "tin", seed=0)
    cfg = TrainConfig(lr=1e100, epochs=3, seed=0, batch_size=32, weight_decay=0.0)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
        train(net, tr, va, cfg)


def test_epoch_zero_trajectories_are_neutral():
    spec = small_spec()
    cfg = TrainConfig(lr=0.05, epochs=1, seed=1, batch_size=32)
    rec = run_experiment(spec, "tin", cfg)
    assert np.all(np.asarray(rec.offset_trajectory[0][0]) == 0.0)
    assert np.all(np.asarray(rec.weight_trajectory[0][0]) == 1.0)


def test_weight_means_average_every_tin_layer():
    from tin.blocks import Chain, TinBlock
    from tin.interlace import InterlaceConfig
    from tin.tensors import Rng

    spec = small_spec()
    tr, va = standardize(generate_task(spec, "train"), generate_task(spec, "val"))
    net = build_net(spec, "tin", seed=0)
    second = TinBlock(InterlaceConfig(t=8, c=16), Rng(1), "tin_b")
    i = [layer.name for layer in net.layers].index("tin")
    net = Chain(net.layers[:i + 1] + [second] + net.layers[i + 1:])
    net.layers[i].wnet.bias[:] = 1.0           # weights 2 * sigmoid(1) ~ 1.46
    second.wnet.bias[:] = -2.0                 # weights 2 * sigmoid(-2) ~ 0.24
    rec = train(net, tr, va, TrainConfig(lr=0.0, epochs=1, seed=0, batch_size=32))
    layers = np.asarray(rec.weight_trajectory[-1])
    assert layers.shape == (2, 8) and layers[0, 0] > 1.4 and layers[1, 0] < 0.3
    assert rec.boundary_weight_mean == pytest.approx((layers[:, 0] + layers[:, -1]).mean() / 2)
    assert rec.center_weight_mean == pytest.approx(layers[:, 1:-1].mean())


def test_record_serialization_and_trajectory_csv(tmp_path):
    spec = small_spec()
    cfg = TrainConfig(lr=0.05, epochs=2, seed=2, batch_size=32)
    rec = run_experiment(spec, "tin", cfg)
    body = json.loads(rec.to_json())
    assert len(body["epochs"]) == 2
    assert "boundary_weight_mean" in body and "center_weight_mean" in body

    path = tmp_path / "traj.csv"
    log_trajectories(rec, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    kinds = {r["kind"] for r in rows}
    assert kinds == {"offset", "weight"}
    offs = [r for r in rows if r["kind"] == "offset"]
    assert {int(r["epoch"]) for r in offs} == {0, 1, 2}  # probe plus two epochs
    assert {int(r["index"]) for r in offs} == {0, 1, 2, 3}


def test_early_stop_cuts_training_short():
    spec = SynthTask(task="direction2", seed=0, train_clips=400, val_clips=100)
    cfg = TrainConfig(lr=0.05, epochs=30, seed=0, batch_size=64, stop_at_val_acc=0.95)
    rec = run_experiment(spec, "tin", cfg)
    assert len(rec.epochs) < 30
    assert rec.final_val_acc >= 0.95


def test_run_ablation_structure():
    # big enough that the arms differ (at seed 2): in smaller runs every row reads 0.5
    spec = SynthTask(task="direction2", seed=0, train_clips=96, val_clips=30)
    cfg = TrainConfig(lr=0.05, epochs=2, batch_size=32)
    rows = run_ablation(spec, cfg, groups=(1, 2), mirrors=(True, False),
                        seeds=(0, 1, 2), hidden=16)
    assert len(rows) == 5  # 2 x 2 grid plus the disabled floor
    assert rows[-1].groups is None
    for r in rows:
        assert len(r.accs) == 3
        assert r.min_acc <= r.mean_acc <= r.max_acc
    # each row trains its own arm: the floor the blind net, a cell the tin net
    assert [(r.groups, r.mirror) for r in rows[:-1]] == [(1, True), (1, False), (2, True), (2, False)]
    for row, temporal, kwargs in ((rows[-1], "none", {}),
                                  (rows[2], "tin", dict(learned_groups=2, mirror=True))):
        direct = [run_experiment(SynthTask(**{**asdict(spec), "seed": s}), temporal,
                                 TrainConfig(**{**asdict(cfg), "seed": s}), hidden=16,
                                 **kwargs).final_val_acc for s in (0, 1, 2)]
        assert row.accs == direct
    with pytest.raises(ConfigError):
        run_ablation(spec, cfg, seeds=(0, 1), hidden=16)


def test_ablation_serialization(tmp_path):
    rows = [AblationRow(2, True, [0.9, 1.0, 0.95], 0.95, 0.9, 1.0),
            AblationRow(None, None, [0.5, 0.5, 0.5], 0.5, 0.5, 0.5)]
    path = tmp_path / "ablation.csv"
    ablation_to_csv(rows, path)
    with open(path) as fh:
        lines = list(csv.reader(fh))
    assert lines[0][0] == "groups"
    assert lines[1][1] == "on"
    assert lines[2][0] == "disabled"
    body = json.loads(ablation_to_json(rows))
    assert body[0]["groups"] == 2 and body[1]["groups"] is None


def test_weight_decay_excludes_biases():
    spec = small_spec()
    tr, va = standardize(generate_task(spec, "train"), generate_task(spec, "val"))
    net = build_net(spec, "none", seed=5)
    params = net.named_params()
    params["head.b"][:] = 123.0  # a bias the data cannot influence strongly
    from tin.training import _sgd_step

    grads = {k: np.zeros_like(v) for k, v in params.items()}
    _sgd_step(params, grads, {}, lr=0.1, momentum=0.0, weight_decay=0.1)
    assert np.all(params["head.b"] == 123.0)       # bias untouched by decay
    # weights do shrink under decay with zero gradients
    net2 = build_net(spec, "none", seed=5)
    p2 = net2.named_params()
    w_before = p2["head.w"].copy()
    _sgd_step(p2, {k: np.zeros_like(v) for k, v in p2.items()}, {}, 0.1, 0.0, 0.1)
    assert np.all(np.abs(p2["head.w"]) < np.abs(w_before) + 1e-15)
    assert not np.array_equal(p2["head.w"], w_before)


def test_train_releases_each_steps_tapes_before_the_next_forward():
    # a step's tapes hold its feature maps; kept alive into the next
    # forward, they make it take fresh memory where the spent maps could
    # have been reused
    spec = SynthTask(task="direction2", t=4, h=8, w=8, train_clips=16, val_clips=72)
    tr, va = standardize(generate_task(spec, "train"), generate_task(spec, "val"))
    net = build_net(spec, "tin", seed=0)
    inner, held, calls = net.forward, [], []

    def forward(x):
        calls.append(sum(ref() is not None for ref in held))
        y, tapes = inner(x)
        held.append(weakref.ref(tapes[0][1]))     # conv1's output, held by the tapes only
        return y, tapes

    net.forward = forward
    train(net, tr, va, TrainConfig(lr=0.05, epochs=2, seed=0, batch_size=4))
    assert len(calls) == 1 + 2 * (4 + 2) and not any(calls)     # probe, then steps and val
