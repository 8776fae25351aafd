"""The names the benchmark harness (perfbench/) reads from the package.

perfbench's own tests run only the referee workload traced, so a renamed
`nets.*` or `blocks.*` function that `trace_train` patches, or a changed
registry entry, would break the traced benchmark runs and nothing else.
The traced runs go in a subprocess so their patches stay out of this one.
"""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from tin import gradcheck, synth, training

ROOT = Path(__file__).resolve().parents[1]

PRELUDE = f"""
import json, sys
sys.path[:0] = [{str(ROOT / "perfbench")!r}, {str(ROOT / "src")!r}]
import checks, worker
from tracing import Tracer
from tin import gradcheck, synth, tcn, training
tracer = Tracer()
"""

TASK = dict(task="direction2", t=4, h=8, w=8, train_clips=8, val_clips=4)

# the traced train workload's path on a tiny task: set-up, training, one round
TRAIN = PRELUDE + f"""
worker.trace_train(tracer)
spec = synth.SynthTask(**{TASK!r})
train, val = synth.standardize(synth.generate_task(spec, "train"),
                               synth.generate_task(spec, "val"))
net = training.build_net(spec, "tin", 0, hidden=16)
worker.trace_net(tracer, net)
state = dict(arm="tin", spec=spec, train=train, val=val, net=net)
tracer.phase = "fixed"
state["record"] = training.train(net, train, val, training.TrainConfig(lr=0.05, epochs=1,
                                                                     batch_size=4))
state["batches"] = [(train.clips[:4], train.labels[:4])]
worker.Rounds(worker.train_round, state, worker.Counter(), tracer).run(1)
print(json.dumps(worker.per_layer(tracer, state)))
"""

# the traced referee workload at a few trials and coordinates
REFEREE = PRELUDE + """
worker.trace_referee(tracer)
tracer.phase = "fixed"
trials = tcn.run_equivalence_trials(2, 0)
reports = gradcheck.run_standard_checks(worker.GRADCHECK_SEED, 8)
assert checks.equivalence_passed(trials)[0] and checks.gradcheck_passed(reports)[0]
print(json.dumps(worker.per_layer(tracer, {})))
"""

TRAIN_METRICS = ["synth.generate_task_s", "synth.standardize_s", "training.loop_self_ms",
                 "training.evaluate_s", "blocks.cross_entropy_ms", "interlace.forward_ms",
                 "interlace.backward_ms", "interlace.tape_mb"] + \
    [f"blocks.{layer.name}.{way}_ms"      # every layer of the net that TRAIN builds
     for layer in training.build_net(synth.SynthTask(**TASK), "tin", 0, hidden=16).layers
     for way in ("fwd", "bwd")] + \
    [f"nets.{fn}_ms" for fn in ("pool_descriptor", "offsetnet_forward", "weightnet_forward",
                                "nets_backward", "pool_descriptor_vjp")]
REFEREE_METRICS = ["gradcheck.toy_net_s", "gradcheck.tin_block_s", "gradcheck.interlace_s",
                   "gradcheck.other_s", "gradcheck.forward_evals", "tcn.dense_tconv_ms",
                   "tcn.verify_self_ms", "interlace.forward_unbatched_us"]


@pytest.mark.parametrize("script, names", [(TRAIN, TRAIN_METRICS), (REFEREE, REFEREE_METRICS)],
                         ids=["train", "referee"])
def test_traced_workload_reaches_every_hook(script, names):
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert not [n for n in names if not metrics.get(n, 0) > 0], metrics   # a hook never ran reads 0


def test_registry_keeps_the_interface_the_benchmark_reads():
    entries = gradcheck.standard_checks(0)
    for entry in entries:
        assert len(entry) == 6
        name, fwd, vjp, point, kink_dist, tol = entry
        assert callable(fwd) and callable(vjp) and isinstance(point, dict)
        assert kink_dist is None or callable(kink_dist)
    names = {entry[0] for entry in entries}
    assert {"interlace", "tin_block", "toy_net.end_to_end",
            "temporal_sample.offset_at_integer_kink"} <= names
    assert inspect.signature(gradcheck.check).parameters["kink_dist"].kind \
        is inspect.Parameter.KEYWORD_ONLY
