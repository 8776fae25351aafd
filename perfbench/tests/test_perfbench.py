"""Tests of the benchmark itself: its declared metrics, its tracer, and
that every correctness check fails when handed a planted fault.

  python3 -m pytest perfbench/tests -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from tin import blocks, gradcheck, tcn  # noqa: E402
from tin.interlace import InterlaceConfig  # noqa: E402
from tin.tensors import Rng  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
                          "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    result = _run("referee", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "referee", "--seed", "0",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""


def test_tracer_self_time_subtracts_direct_children():
    tr = Tracer()
    inner = tr.wrap("inner", lambda: sum(range(20000)))
    outer = tr.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    (total,) = tr.durations("outer")
    (own,) = tr.self_times("outer")
    assert 0 < own < total
    assert own == pytest.approx(total - sum(tr.durations("inner")))


# ---------------------------------------------------------------------------
# planted faults

def _nudged_tin_block():
    cfg = InterlaceConfig(t=8, c=16, g=4, shift_fraction=0.25, mirror=True)
    block = blocks.TinBlock(cfg, Rng(5), "tin")
    block.onet.fc2_w[:] = Rng(6).uniform(block.onet.fc2_w.shape, -0.5, 0.5)
    block.wnet.conv[:] = Rng(7).uniform(block.wnet.conv.shape, -0.3, 0.3)
    return block


def test_interlace_check_catches_a_perturbed_output():
    block = _nudged_tin_block()
    u = Rng(1).uniform([1, 8, 16, 4, 4], -1.0, 1.0)
    v, tape = block.forward(u)
    assert np.any(np.asarray(tape["offsets"]) % 1 != 0)
    assert checks.block_matches_loop("tin", block, u, v, tape)[0]
    bad = v.copy()
    bad[0, 3, 1, 2, 2] += 1e-6
    assert not checks.block_matches_loop("tin", block, u, bad, tape)[0]


def test_tconv_check_catches_perturbed_taps():
    layer = blocks.TemporalConv(6, "tconv")
    layer.taps[:] = Rng(2).uniform(layer.taps.shape, -1.0, 1.0)
    u = Rng(3).uniform([1, 8, 6, 3, 3], -1.0, 1.0)
    v, tape = layer.forward(u)
    assert checks.block_matches_loop("tcn", layer, u, v, tape)[0]
    layer.taps[2, 0] += 1e-6
    assert not checks.block_matches_loop("tcn", layer, u, v, tape)[0]


def _small_net():
    cfg = InterlaceConfig(t=4, c=8, g=2, shift_fraction=0.25, mirror=True)
    net = blocks.make_toy_net(4, 1, 2, Rng(11), hidden=8, temporal="tin", cfg=cfg, head_scale=1.0)
    tin = net.tin_blocks()[0]
    tin.onet.fc2_w[:] = Rng(12).uniform(tin.onet.fc2_w.shape, -0.5, 0.5)
    tin.wnet.conv[:] = Rng(13).uniform(tin.wnet.conv.shape, -0.3, 0.3)
    x = Rng(14).uniform([6, 4, 1, 5, 5], -1.0, 1.0)
    y = np.array([0, 1, 0, 1, 1, 0])
    coords = checks.sample_coords(net.named_params(), 3, np.random.default_rng(0))
    return net, x, y, coords


def test_gradient_check_passes_the_true_backward():
    net, x, y, coords = _small_net()
    ok, detail = checks.loss_gradient_matches(net, blocks.cross_entropy, x, y, coords)
    assert ok, detail


def test_gradient_check_catches_a_scaled_backward():
    net, x, y, coords = _small_net()
    true_backward = net.backward

    def scaled(grad_out, tapes):
        gx, grads = true_backward(grad_out, tapes)
        return gx, {k: 1.01 * g for k, g in grads.items()}

    net.backward = scaled
    assert not checks.loss_gradient_matches(net, blocks.cross_entropy, x, y, coords)[0]


def test_loss_and_accuracy_checks_catch_bad_values():
    assert checks.all_finite([0.7, 0.1], "losses")[0]
    assert not checks.all_finite([0.7, float("nan")], "losses")[0]
    assert not checks.all_finite([0.7, float("inf")], "losses")[0]
    assert checks.loss_lowered(0.69, 0.01)[0]
    assert not checks.loss_lowered(0.69, 0.69)[0]
    assert checks.above_chance(0.60, 2, 500)[0]
    assert not checks.above_chance(0.55, 2, 500)[0]


def test_bitwise_check_catches_one_ulp():
    a = Rng(0).uniform([4, 2], -1.0, 1.0)
    b = a.copy()
    assert checks.bitwise_equal(a, b)
    b[1, 1] = np.nextafter(b[1, 1], 2.0)
    assert not checks.bitwise_equal(a, b)


def test_equivalence_check_catches_a_perturbed_interlace_output(monkeypatch):
    assert checks.equivalence_passed(tcn.run_equivalence_trials(20, seed=1))[0]
    true_forward = tcn.interlace_forward

    def perturbed(*args, **kwargs):
        v, tape = true_forward(*args, **kwargs)
        return v + 1e-7, tape

    monkeypatch.setattr(tcn, "interlace_forward", perturbed)
    assert not checks.equivalence_passed(tcn.run_equivalence_trials(20, seed=1))[0]


def test_gradcheck_check_catches_a_scaled_vjp():
    registry = {entry[0]: entry for entry in gradcheck.standard_checks(0)}
    reports = {}
    for name in ("interlace", "temporal_sample.offset_at_integer_kink"):
        _, fwd, vjp, point, kink_dist, tol = registry[name]
        reports[name] = gradcheck.check(fwd, vjp, point, tol=tol, kink_dist=kink_dist)
    assert checks.gradcheck_passed(reports)[0]

    _, fwd, vjp, point, kink_dist, tol = registry["interlace"]

    def scaled(p, cot):
        return {k: 1.01 * g for k, g in vjp(p, cot).items()}

    bad = dict(reports, interlace=gradcheck.check(fwd, scaled, point, tol=tol, kink_dist=kink_dist))
    assert not checks.gradcheck_passed(bad)[0]
    # a registry that reports no kink fails too
    assert not checks.gradcheck_passed({"interlace": reports["interlace"]})[0]
