"""Bad inputs to the library raise the documented error type, never a numpy one."""

import numpy as np
import pytest

from tin import bench, gradcheck, nets, tcn
from tin.blocks import OffsetNet, WeightNet, cross_entropy, make_toy_net
from tin.errors import ConfigError, NonFiniteError, ShapeError
from tin.interlace import InterlaceConfig, interlace_forward
from tin.synth import SynthTask
from tin.tensors import Rng
from tin.training import TrainConfig, build_net, run_ablation


def _identity_check(max_coords):
    point = {"x": np.linspace(0.1, 0.9, 5)}
    return gradcheck.check(lambda p: 2.0 * p["x"], lambda p, v: {"x": 2.0 * v}, point,
                           max_coords=max_coords)


def _toy_net():
    return make_toy_net(8, 1, 2, Rng(0), hidden=16, temporal="tin")


def _kernel_with_weight(w):
    weights = np.ones((2, 8))
    weights[1, 3] = w
    return tcn.build_equiv_kernel([0.5, -1.5], weights, InterlaceConfig(t=8, c=16, g=2, mirror=False))


def _tconv_with(u_value=0.5, tap_value=0.0):
    u = np.full((4, 2, 2, 2), 0.5)
    u[1, 0, 0, 0] = u_value
    kernel = tcn.DenseTemporalKernel.identity(2, 4)
    kernel.taps[1, 0, 0] = tap_value
    return tcn.dense_tconv(u, kernel)


@pytest.mark.parametrize("call, error", [
    (lambda: tcn.run_equivalence_trials(0, 0), ConfigError),
    (lambda: tcn.run_equivalence_trials(-3, 0), ConfigError),
    (lambda: _identity_check(0), ConfigError),
    (lambda: _identity_check(-1), ConfigError),
    (lambda: SynthTask(train_clips=0), ConfigError),
    (lambda: SynthTask(val_clips=0), ConfigError),
    (lambda: TrainConfig(epochs=0), ConfigError),
    (lambda: TrainConfig(epochs=-1), ConfigError),
    (lambda: build_net(SynthTask(), "tin", 0, learned_groups=0), ConfigError),
    (lambda: run_ablation(SynthTask(train_clips=8, val_clips=8), TrainConfig(epochs=1),
                          seeds=(0, 0, 0)), ConfigError),
    (lambda: bench.make_op("interlace", 8, 16, 0, 0), ConfigError),
    (lambda: interlace_forward(np.ones((8, 16, 2, 2), dtype=np.int64), [0.5, 1.0, 0.0, 0.0],
                               np.ones((4, 8)), InterlaceConfig(t=8, c=16, mirror=False)),
     ShapeError),
    (lambda: _toy_net().forward(np.zeros((2, 8, 3, 4, 4))), ShapeError),
    (lambda: _toy_net().forward(np.zeros((8, 1, 4, 4))), ShapeError),
    (lambda: make_toy_net(8, 1, 2, Rng(0), hidden=0, temporal="tcn"), ShapeError),
    (lambda: TrainConfig(lr=-0.05), ConfigError),
    (lambda: TrainConfig(lr=float("nan")), ConfigError),
    (lambda: TrainConfig(momentum=1.5), ConfigError),
    (lambda: TrainConfig(momentum=1.0), ConfigError),
    (lambda: TrainConfig(momentum=-0.1), ConfigError),
    (lambda: TrainConfig(momentum=float("nan")), ConfigError),
    (lambda: TrainConfig(weight_decay=-1.0), ConfigError),
    (lambda: TrainConfig(weight_decay=float("nan")), ConfigError),
    (lambda: tcn.run_equivalence_trials(1, 0, tol=-1.0), ConfigError),
    (lambda: tcn.run_equivalence_trials(1, 0, tol=float("nan")), ConfigError),
    (lambda: SynthTask(t=0), ConfigError),
    (lambda: SynthTask(t=1), ConfigError),
    (lambda: SynthTask(noise=float("nan")), ConfigError),
    (lambda: SynthTask(noise=float("inf")), ConfigError),
    (lambda: cross_entropy(np.zeros((3, 2)), np.array([0.0, 1.0, 0.0])), ShapeError),
    (lambda: cross_entropy(np.zeros((0, 2)), np.zeros(0, dtype=np.int64)), ShapeError),
    (lambda: tcn.build_equiv_kernel([np.nan, 0.5], np.ones((2, 8)),
                                    InterlaceConfig(t=8, c=16, g=2, mirror=False)), NonFiniteError),
    (lambda: tcn.build_equiv_kernel([4.0, 0.5], np.ones((2, 8)),
                                    InterlaceConfig(t=8, c=16, g=2, mirror=False)), ShapeError),
    (lambda: tcn.build_equiv_kernel([0.5, -4.5], np.ones((2, 8)),
                                    InterlaceConfig(t=8, c=16, g=2, mirror=False)), ShapeError),
    (lambda: _kernel_with_weight(np.nan), NonFiniteError),
    (lambda: _kernel_with_weight(np.inf), NonFiniteError),
    (lambda: _kernel_with_weight(5.0), ShapeError),
    (lambda: _kernel_with_weight(2.0), ShapeError),
    (lambda: _kernel_with_weight(0.0), ShapeError),
    (lambda: _kernel_with_weight(-0.5), ShapeError),
    (lambda: _tconv_with(u_value=np.nan), NonFiniteError),
    (lambda: _tconv_with(u_value=np.inf), NonFiniteError),
    (lambda: _tconv_with(tap_value=np.nan), NonFiniteError),
    (lambda: _tconv_with(tap_value=-np.inf), NonFiniteError),
    (lambda: cross_entropy(np.array([[np.inf, 0.0]]), np.array([0])), NonFiniteError),
    (lambda: cross_entropy(np.array([[0.0, -np.inf]]), np.array([1])), NonFiniteError),
    (lambda: cross_entropy(np.array([[1e308, -1e308]]), np.array([1])), NonFiniteError),
    (lambda: nets.rescale_offsets(np.array([0.5, 0.5]), 0, False), ShapeError),
    (lambda: nets.rescale_offsets(np.array([0.5, 0.5]), -2, True), ShapeError),
    (lambda: nets.rescale_offsets_vjp(np.ones(2), 0, False), ShapeError),
    (lambda: nets.rescale_offsets_vjp(np.ones(2), 0, True), ShapeError),
    (lambda: OffsetNet(8, 16, 4, Rng(0)).forward(np.zeros((2, 16, 6))), ShapeError),
    (lambda: WeightNet(8, 16, 4, Rng(0)).forward(np.zeros((2, 16, 6))), ShapeError),
    (lambda: WeightNet(8, 16, 4, Rng(0), "channel_mean").forward(np.zeros((2, 15, 8))),
     ShapeError),
], ids=["equiv-zero-trials", "equiv-negative-trials", "gradcheck-zero-coords",
        "gradcheck-negative-coords", "synth-zero-train-clips", "synth-zero-val-clips",
        "train-zero-epochs", "train-negative-epochs", "tin-arm-zero-groups",
        "ablation-repeated-seeds", "bench-zero-extent", "interlace-int-map",
        "net-wrong-channel-count", "net-wrong-rank", "net-zero-hidden",
        "train-negative-lr", "train-nan-lr", "train-momentum-above-one",
        "train-momentum-one", "train-negative-momentum", "train-nan-momentum",
        "train-negative-weight-decay", "train-nan-weight-decay", "equiv-negative-tol",
        "equiv-nan-tol", "synth-zero-frames", "synth-one-frame",
        "synth-nan-noise", "synth-inf-noise", "cross-entropy-float-labels",
        "cross-entropy-empty-batch", "equiv-kernel-nan-offset", "equiv-kernel-offset-at-half-t",
        "equiv-kernel-offset-below-minus-half-t", "equiv-kernel-nan-weight",
        "equiv-kernel-inf-weight", "equiv-kernel-weight-five", "equiv-kernel-weight-two",
        "equiv-kernel-weight-zero", "equiv-kernel-negative-weight", "dense-tconv-nan-input",
        "dense-tconv-inf-input", "dense-tconv-nan-tap", "dense-tconv-inf-tap",
        "cross-entropy-inf-logit", "cross-entropy-minus-inf-logit",
        "cross-entropy-logits-overflow-apart", "rescale-zero-frames",
        "rescale-negative-frames-mirror", "rescale-vjp-zero-frames",
        "rescale-vjp-zero-frames-mirror", "offsetnet-wrong-frames", "weightnet-wrong-frames",
        "weightnet-channel-mean-wrong-channels"])
@pytest.mark.filterwarnings("error")
def test_bad_input_raises_the_documented_error(call, error):
    with pytest.raises(error):
        call()


def test_counts_at_their_floor_stay_valid():
    assert _identity_check(1).passed
    assert tcn.run_equivalence_trials(1, 0).passed
    InterlaceConfig(t=8, c=16, g=0)
    build_net(SynthTask(), "tcn", 0, learned_groups=0)
    TrainConfig(epochs=1)
    TrainConfig(lr=0.0, momentum=0.0, weight_decay=0.0)
    SynthTask(train_clips=1, val_clips=1)
    SynthTask(t=2, noise=0.0)
    _kernel_with_weight(1e-6)
    _kernel_with_weight(2.0 - 1e-6)
    _tconv_with()
    assert np.isfinite(cross_entropy(np.array([[1e308, -7e307]]), np.array([1]))[0])
    nets.rescale_offsets(np.array([0.5, 0.5]), 1, True)
    nets.rescale_offsets_vjp(np.ones(2), 1, True)
