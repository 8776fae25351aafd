"""Acceptance gate: every release criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
Training-based criteria share seeded runs through session fixtures; all
numbers are deterministic given the pinned seeds.
"""

import math
import time

import numpy as np
import pytest

from tin import blocks
from tin.bench import bench_operators, count_flops, tin_overhead
from tin.gradcheck import run_standard_checks
from tin.interlace import InterlaceConfig, interlace_forward
from tin.synth import SynthTask
from tin.tcn import run_equivalence_trials
from tin.tensors import Rng
from tin.training import TrainConfig, run_ablation, run_experiment

SEEDS = (0, 1, 2)
VAL_CLIPS = 500
THREE_SIGMA = 3.0 * math.sqrt(0.25 / VAL_CLIPS)


def announce(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _spec(task: str, seed: int) -> SynthTask:
    return SynthTask(task=task, train_clips=2000, val_clips=VAL_CLIPS, seed=seed)


def _cfg(seed: int, early_stop=0.995) -> TrainConfig:
    # desk-scale recipe: SGD momentum 0.9, step decay, batch 64; the toy
    # nets train from scratch so the rate sits above the fine-tuning default
    return TrainConfig(lr=0.05, momentum=0.9, weight_decay=5e-4, epochs=30,
                       batch_size=64, seed=seed, stop_at_val_acc=early_stop)


@pytest.fixture(scope="module")
def tin_direction2():
    return [run_experiment(_spec("direction2", s), "tin", _cfg(s), hidden=16)
            for s in SEEDS]


@pytest.fixture(scope="module")
def tcn_direction2():
    return [run_experiment(_spec("direction2", s), "tcn", _cfg(s), hidden=16)
            for s in SEEDS]


@pytest.fixture(scope="module")
def blind_direction2():
    return [run_experiment(_spec("direction2", s), "none", _cfg(s, early_stop=None),
                           hidden=16) for s in SEEDS]


@pytest.fixture(scope="module")
def tin_direction3():
    return [run_experiment(_spec("direction3", s), "tin", _cfg(s), hidden=16)
            for s in SEEDS]


@pytest.fixture(scope="module")
def tcn_direction3():
    return [run_experiment(_spec("direction3", s), "tcn", _cfg(s), hidden=16)
            for s in SEEDS]


def test_equivalence_theorem():
    start = time.perf_counter()
    report = run_equivalence_trials(trials=1000, seed=2026, tol=1e-9)
    elapsed = time.perf_counter() - start
    ok = report.passed and report.max_abs_diff < 1e-9 and elapsed < 60.0
    announce("equivalence theorem", ok,
             f"1000 trials over T in {{4,8,16}}, max |op - kernel conv| = "
             f"{report.max_abs_diff:.3e} < 1e-9, {elapsed:.1f}s")
    assert report.failures == 0
    assert report.max_abs_diff < 1e-9
    assert elapsed < 60.0


def test_gradient_correctness():
    start = time.perf_counter()
    reports = run_standard_checks(seed=0, max_coords=256)
    elapsed = time.perf_counter() - start
    failures = {n: r.max_rel_err for n, r in reports.items() if not r.passed}
    kink_reports = {n: r.kinks for n, r in reports.items() if r.kinks}
    worst = max(r.max_rel_err for r in reports.values())
    ok = not failures and elapsed < 120.0 and kink_reports
    announce("gradient correctness", bool(ok),
             f"{len(reports)} operator checks, worst rel err {worst:.2e}, "
             f"kinks auto-excluded in {sorted(kink_reports)}, {elapsed:.1f}s")
    assert not failures, failures
    assert kink_reports, "integer-offset kinks must be reported, not silently passed"
    assert elapsed < 120.0


def test_identity_at_initialization():
    rng = Rng(99)
    cfg = InterlaceConfig(t=8, c=16)
    block = blocks.TinBlock(cfg, rng.child("block"))
    u = rng.child("u").uniform([8, 16, 12, 12], -2.0, 2.0)
    v, _ = block.forward(u)
    op_err = float(np.max(np.abs(v - u)))

    x = rng.child("x").uniform([4, 8, 2, 16, 16], -1.0, 1.0)
    with_tin = blocks.make_toy_net(8, 2, 3, Rng(123), hidden=16, temporal="tin")
    without = blocks.make_toy_net(8, 2, 3, Rng(123), hidden=16, temporal="none")
    la, _ = with_tin.forward(x)
    lb, _ = without.forward(x)
    logit_err = float(np.max(np.abs(la - lb)))
    ok = op_err < 1e-10 and logit_err < 1e-10
    announce("identity at initialization", ok,
             f"fresh block |v-u| = {op_err:.1e}, drop-in logit delta = {logit_err:.1e} (< 1e-10)")
    assert op_err < 1e-10
    assert logit_err < 1e-10


def test_temporal_modeling_surrogate(tin_direction2, blind_direction2):
    tin_best = [max(e.val_acc for e in rec.epochs) for rec in tin_direction2]
    tin_ok = all(acc >= 0.90 for acc in tin_best)
    assert all(len(rec.epochs) <= 30 for rec in tin_direction2)

    blind_tail = [float(np.mean([e.val_acc for e in rec.epochs[-5:]]))
                  for rec in blind_direction2]
    blind_ok = all(abs(acc - 0.5) <= THREE_SIGMA for acc in blind_tail)
    ok = tin_ok and blind_ok
    announce("temporal-modeling surrogate (direction2)", ok,
             f"operator-equipped accs {['%.3f' % a for a in tin_best]} >= 0.90 "
             f"within 30 epochs; blind accs {['%.3f' % a for a in blind_tail]} "
             f"inside 0.5 +/- {THREE_SIGMA:.3f}")
    assert tin_ok
    assert blind_ok


def test_rtcn_parity(tin_direction2, tcn_direction2, tin_direction3, tcn_direction3):
    details = []
    ok = True
    for task, tin_runs, tcn_runs in (("direction2", tin_direction2, tcn_direction2),
                                     ("direction3", tin_direction3, tcn_direction3)):
        tin_acc = float(np.mean([r.final_val_acc for r in tin_runs]))
        tcn_acc = float(np.mean([r.final_val_acc for r in tcn_runs]))
        gap = abs(tin_acc - tcn_acc)
        ok &= gap <= 0.05
        details.append(f"{task}: interlace {tin_acc:.3f} vs temporal-conv {tcn_acc:.3f} "
                       f"(gap {gap * 100:.1f}pt)")
    announce("constrained-conv parity", ok, "; ".join(details) + " within 5pt")
    assert ok


def test_efficiency_ordering():
    shape = dict(t=8, c=256, h=14, w=14)
    inter = count_flops("interlace", **shape, shift_fraction=0.25, g=4)
    dense = count_flops("dense_tconv", **shape, k=3)
    flops_ok = inter.flops < dense.flops / 4

    rows = bench_operators(**shape, precisions=("f64",), reps=100)
    medians = {rep.op: rep.median_s for rep, _ in rows}
    latency_ok = medians["interlace"] < medians["dense_tconv"]
    speedup = medians["dense_tconv"] / medians["interlace"]

    over = tin_overhead(t=8)
    overhead_ok = over["overhead_ratio"] < 0.05
    ok = flops_ok and latency_ok and overhead_ok
    announce("efficiency ordering", ok,
             f"analytic flops ratio {inter.flops / dense.flops:.3f} < 0.25; measured "
             f"speedup x{speedup:.1f} (reported, not asserted at x6); host-network "
             f"overhead {over['overhead_ratio'] * 100:.2f}% < 5%")
    assert flops_ok
    assert latency_ok
    assert overhead_ok


def test_ablation_harness():
    spec = SynthTask(task="direction2", train_clips=240, val_clips=120, seed=0)
    cfg = TrainConfig(lr=0.05, epochs=4, batch_size=64, stop_at_val_acc=0.995)
    rows = run_ablation(spec, cfg, groups=(1, 2, 4), mirrors=(True, False),
                        seeds=SEEDS, hidden=32)
    cells = {(r.groups, r.mirror) for r in rows if r.groups is not None}
    want = {(g, m) for g in (1, 2, 4) for m in (True, False)}
    floor = [r for r in rows if r.groups is None]
    structure_ok = cells == want and len(floor) == 1 and \
        all(len(r.accs) == len(SEEDS) for r in rows)
    announce("ablation harness", structure_ok,
             f"6-cell grid {{1,2,4}} x {{mirror on,off}} plus disabled floor, "
             f"{len(SEEDS)} seeds per cell; floor acc {floor[0].mean_acc:.3f}")
    assert structure_ok


def test_trajectory_logging(tin_direction2):
    ok = True
    details = []
    for rec in tin_direction2:
        first_off = np.asarray(rec.offset_trajectory[0][0])
        first_wgt = np.asarray(rec.weight_trajectory[0][0])
        ok &= bool(np.all(first_off == 0.0) and np.all(first_wgt == 1.0))
        trained = np.abs(np.asarray(rec.offset_trajectory[-1][0]))
        ok &= bool(trained.max() > 0.1)
        details.append(f"max|O| {trained.max():.2f}")
        ok &= np.isfinite(rec.boundary_weight_mean) and np.isfinite(rec.center_weight_mean)
    b = tin_direction2[0].boundary_weight_mean
    c = tin_direction2[0].center_weight_mean
    announce("trajectory logging", ok,
             f"epoch-0 offsets exactly 0 and weights exactly 1; trained "
             f"{', '.join(details)} > 0.1; boundary vs center frame weight "
             f"{b:.3f} vs {c:.3f} (emitted, not asserted)")
    assert ok
