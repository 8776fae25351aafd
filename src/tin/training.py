"""SGD training of toy nets on the synthetic tasks, with trajectory logs.

The optimizer is mini-batch SGD with momentum and weight decay (decay is
not applied to biases). Everything is seeded: batch order, parameter
init, and data, so a run is reproducible bit for bit. Per-epoch records
include the mean emitted offsets per interlace layer and group and the
mean attention weight per frame, the analog of watching where the
operator learns to look.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import blocks
from .errors import ConfigError, NonFiniteError
from .interlace import InterlaceConfig
from .synth import Dataset, SynthTask, generate_task, standardize
from .tensors import Rng


@dataclass
class TrainConfig:
    lr: float = 0.005
    momentum: float = 0.9
    weight_decay: float = 5e-4
    epochs: int = 30
    batch_size: int = 32
    lr_decay_epochs: tuple = (15, 25)
    lr_decay_factor: float = 0.1
    seed: int = 0
    # optional: finish early once validation accuracy reaches this level
    stop_at_val_acc: float | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if not (self.lr >= 0 and 0 <= self.momentum < 1 and self.weight_decay >= 0):  # NaN fails
            raise ConfigError(f"need lr >= 0, 0 <= momentum < 1 and weight_decay >= 0, got lr="
                              f"{self.lr} momentum={self.momentum} weight_decay={self.weight_decay}")

    def lr_at(self, epoch: int) -> float:
        lr = self.lr
        for m in self.lr_decay_epochs:
            if epoch >= m:
                lr *= self.lr_decay_factor
        return lr


@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass
class RunRecord:
    config: dict
    epochs: list = field(default_factory=list)                # EpochStats
    offset_trajectory: list = field(default_factory=list)     # per epoch: [layers][G]
    weight_trajectory: list = field(default_factory=list)     # per epoch: [layers][T]
    final_val_acc: float = 0.0
    boundary_weight_mean: float = 1.0
    center_weight_mean: float = 1.0

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _sgd_step(params: dict, grads: dict, velocity: dict, lr: float, momentum: float,
              weight_decay: float) -> None:
    for name, p in params.items():
        g = grads[name]
        if weight_decay and not name.endswith(".b"):
            g = g + weight_decay * p
        v = velocity.get(name)
        v = g if v is None else momentum * v + g
        velocity[name] = v
        p -= lr * v


def _tin_stats(net: blocks.Chain, tapes) -> tuple:
    """Mean offsets per (layer, group) and mean weights per (layer, frame)."""
    offs, wgts = [], []
    for layer, tape in zip(net.layers, tapes):
        if isinstance(layer, blocks.TinBlock):
            offs.append(tape["offsets"].mean(axis=0).tolist())
            wgts.append(tape["weights"].mean(axis=(0, 1)).tolist())
    return offs, wgts


def evaluate(net: blocks.Chain, clips: np.ndarray, labels: np.ndarray,
             batch_size: int = 64) -> tuple:
    total_loss, correct = 0.0, 0
    n = clips.shape[0]
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        logits = net.forward(clips[lo:hi])[0]
        loss, _, ok = blocks.cross_entropy(logits, labels[lo:hi])
        total_loss += loss * (hi - lo)
        correct += ok
    return total_loss / n, correct / n


def train(net: blocks.Chain, train_data: Dataset, val_data: Dataset,
          cfg: TrainConfig) -> RunRecord:
    """Full training loop; raises NonFiniteError if the loss diverges.

    Each step's tapes are released once its statistics are read, before
    the next forward runs.
    """
    params = net.named_params()
    velocity: dict = {}
    rng = Rng(cfg.seed).child("batches")
    record = RunRecord(config=asdict(cfg) | {"task": asdict(train_data.spec)})

    # epoch-0 probe: what the untouched net emits
    probe = train_data.clips[: min(64, len(train_data.clips))]
    o0, w0 = _tin_stats(net, net.forward(probe)[1])
    record.offset_trajectory.append(o0)
    record.weight_trajectory.append(w0)

    n = train_data.clips.shape[0]
    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        order = rng.child(f"epoch{epoch}").permutation(n)
        ep_loss, ep_correct = 0.0, 0
        off_acc, wgt_acc, n_batches = None, None, 0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            batch, lab = train_data.clips[idx], train_data.labels[idx]
            logits, tapes = net.forward(batch)
            loss, grad_logits, ok = blocks.cross_entropy(logits, lab)
            if not np.isfinite(loss):
                raise NonFiniteError(f"training diverged at epoch {epoch}: loss={loss}")
            _, grads = net.backward(grad_logits, tapes)
            _sgd_step(params, grads, velocity, lr, cfg.momentum, cfg.weight_decay)
            ep_loss += loss * len(idx)
            ep_correct += ok
            offs, wgts = _tin_stats(net, tapes)
            del tapes
            if offs:
                oa = np.asarray(offs)
                wa = np.asarray(wgts)
                off_acc = oa if off_acc is None else off_acc + oa
                wgt_acc = wa if wgt_acc is None else wgt_acc + wa
            n_batches += 1
        val_loss, val_acc = evaluate(net, val_data.clips, val_data.labels)
        record.epochs.append(EpochStats(epoch, lr, ep_loss / n, ep_correct / n,
                                        val_loss, val_acc))
        record.offset_trajectory.append((off_acc / n_batches).tolist() if off_acc is not None else [])
        record.weight_trajectory.append((wgt_acc / n_batches).tolist() if wgt_acc is not None else [])
        if cfg.stop_at_val_acc is not None and val_acc >= cfg.stop_at_val_acc:
            break

    record.final_val_acc = record.epochs[-1].val_acc if record.epochs else 0.0
    if record.weight_trajectory and record.weight_trajectory[-1]:
        w_last = np.asarray(record.weight_trajectory[-1]).mean(axis=0)    # over the tin layers
        record.boundary_weight_mean = float((w_last[0] + w_last[-1]) / 2.0)
        record.center_weight_mean = float(w_last[1:-1].mean())
    return record


def log_trajectories(record: RunRecord, path) -> None:
    """Long-format CSV: epoch, kind, layer, index, value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "kind", "layer", "index", "value"])
        for epoch, per_layer in enumerate(record.offset_trajectory):
            for li, groups in enumerate(per_layer):
                for gi, val in enumerate(groups):
                    writer.writerow([epoch, "offset", li, gi, f"{val:.12g}"])
        for epoch, per_layer in enumerate(record.weight_trajectory):
            for li, frames in enumerate(per_layer):
                for ti, val in enumerate(frames):
                    writer.writerow([epoch, "weight", li, ti, f"{val:.12g}"])


# ---------------------------------------------------------------------------
# standard experiment arms

def build_net(task_spec: SynthTask, temporal: str, seed: int, hidden: int = 16,
              learned_groups: int = 2, mirror: bool = True, shift_fraction: float = 0.25,
              weightnet_input: str = "descriptor",
              weight_all_channels: bool = False) -> blocks.Chain:
    """Toy net for a task; `learned_groups` counts non-mirrored groups only."""
    rng = Rng(seed).child("net")
    cfg = None
    if temporal == "tin":
        if learned_groups < 1:
            raise ConfigError(f"the tin arm needs at least one learned group, got {learned_groups}")
        g_total = learned_groups * (2 if mirror else 1)
        cfg = InterlaceConfig(t=task_spec.t, c=hidden, g=g_total,
                              shift_fraction=shift_fraction, mirror=mirror,
                              weight_all_channels=weight_all_channels)
    return blocks.make_toy_net(task_spec.t, 1, task_spec.k, rng, hidden=hidden,
                               temporal=temporal, cfg=cfg, weightnet_input=weightnet_input)


def task_data(task_spec: SynthTask) -> tuple:
    """The (train, val) datasets a run trains on: generated, then standardized."""
    return standardize(generate_task(task_spec, "train"), generate_task(task_spec, "val"))


def run_experiment(task_spec: SynthTask, temporal: str, cfg: TrainConfig,
                   **net_kwargs) -> RunRecord:
    """Train build_net(task_spec, temporal, cfg.seed, **net_kwargs) on task_data(task_spec)."""
    train_data, val_data = task_data(task_spec)
    net = build_net(task_spec, temporal, cfg.seed, **net_kwargs)
    return train(net, train_data, val_data, cfg)


@dataclass
class AblationRow:
    groups: int | None     # learned groups; None marks the disabled floor
    mirror: bool | None
    accs: list
    mean_acc: float
    min_acc: float
    max_acc: float


def run_ablation(task_spec: SynthTask, cfg: TrainConfig, groups=(1, 2, 4),
                 mirrors=(True, False), seeds=(0, 1, 2), hidden: int = 32,
                 shift_fraction: float = 0.25) -> list:
    """Group-count x mirroring grid plus the temporally blind floor.

    Each cell is averaged over at least three distinct seeds. `hidden` must
    keep the shifted channels divisible for the largest total group count.
    """
    if len(seeds) < 3 or len(set(seeds)) != len(seeds):
        raise ConfigError(f"ablation wants >= 3 distinct seeds, got {tuple(seeds)}")
    rows = []
    for g, mirror in [(g, m) for g in groups for m in mirrors] + [(None, None)]:
        accs = []
        for seed in seeds:
            run_cfg = TrainConfig(**{**asdict(cfg), "seed": seed})
            spec = SynthTask(**{**asdict(task_spec), "seed": seed})
            # build_net ignores the tin arguments on the floor's "none" arm
            rec = run_experiment(spec, "none" if g is None else "tin", run_cfg, hidden=hidden,
                                 learned_groups=g, mirror=mirror, shift_fraction=shift_fraction)
            accs.append(rec.final_val_acc)
        rows.append(AblationRow(g, mirror, accs, float(np.mean(accs)), min(accs), max(accs)))
    return rows


def ablation_to_csv(rows: list, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["groups", "mirror", "mean_acc", "min_acc", "max_acc", "accs"])
        for r in rows:
            writer.writerow([
                "disabled" if r.groups is None else r.groups,
                "" if r.mirror is None else ("on" if r.mirror else "off"),
                f"{r.mean_acc:.4f}", f"{r.min_acc:.4f}", f"{r.max_acc:.4f}",
                ";".join(f"{a:.4f}" for a in r.accs)])


def ablation_to_json(rows: list) -> str:
    return json.dumps([asdict(r) for r in rows], indent=2, sort_keys=True)
