"""Temporal interlacing: learned fractional temporal shifts of grouped
feature channels, with the oracles that keep the implementation honest."""

from .blocks import Chain, OffsetNet, TinBlock, WeightNet, cross_entropy, make_toy_net
from .interlace import (InterlaceConfig, interlace_backward, interlace_forward,
                        partition_channels, temporal_sample, temporal_sample_vjp)
from .nets import offsetnet_forward, pool_descriptor, rescale_offsets, weightnet_forward
from .synth import SynthTask, generate_task
from .tcn import build_equiv_kernel, dense_tconv, run_equivalence_trials, verify_equivalence
from .tensors import Rng, load_tensor, rand_uniform, save_tensor
from .training import TrainConfig, run_ablation, run_experiment, train

__version__ = "0.1.0"

__all__ = [
    "InterlaceConfig", "interlace_forward", "interlace_backward",
    "partition_channels", "temporal_sample", "temporal_sample_vjp",
    "OffsetNet", "WeightNet", "offsetnet_forward", "weightnet_forward",
    "pool_descriptor", "rescale_offsets",
    "TinBlock", "Chain", "make_toy_net", "cross_entropy",
    "build_equiv_kernel", "dense_tconv", "verify_equivalence", "run_equivalence_trials",
    "SynthTask", "generate_task", "TrainConfig", "train", "run_experiment", "run_ablation",
    "Rng", "rand_uniform", "save_tensor", "load_tensor",
    "__version__",
]
