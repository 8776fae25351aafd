from dataclasses import asdict

import numpy as np
import pytest

from tin.bench import (CONVENTION, bench_operators, count_flops, flops_summary,
                       make_op, resnet50_conv_madds, run_latency, tin_overhead)
from tin.errors import ConfigError

SHAPE = dict(t=8, c=256, h=14, w=14)


def test_interlace_flops_formula():
    rep = count_flops("interlace", **SHAPE, shift_fraction=0.25, g=4)
    per_elem = 8 * 64 * 14 * 14
    assert rep.madds == 3 * per_elem          # two-tap blend plus attention
    assert rep.flops == 4 * per_elem          # 2 mults + 1 add + 1 mult
    assert rep.params == 0


def test_interlace_disabled_costs_nothing():
    rep = count_flops("interlace", **SHAPE, g=0)
    assert rep.madds == 0 and rep.flops == 0


def test_dense_tconv_flops_formula():
    rep = count_flops("dense_tconv", **SHAPE, k=3)
    per_elem = 8 * 256 * 14 * 14
    assert rep.madds == 3 * per_elem
    assert rep.flops == 5 * per_elem          # 3 mults + 2 adds
    assert rep.params == 3 * 256


def test_quarter_fraction_is_strictly_cheaper_than_quarter_of_dense():
    inter = count_flops("interlace", **SHAPE, shift_fraction=0.25, g=4)
    dense = count_flops("dense_tconv", **SHAPE, k=3)
    assert inter.flops < dense.flops / 4
    assert inter.flops / dense.flops == pytest.approx(0.2)


def test_module_counts_include_generator_nets():
    rep = count_flops("tin_module", **SHAPE, shift_fraction=0.25, g=4)
    bare = count_flops("interlace", **SHAPE, shift_fraction=0.25, g=4)
    assert rep.madds > bare.madds
    assert rep.params > 0
    assert rep.convention == CONVENTION


def test_counts_are_shape_deterministic():
    a = count_flops("tin_module", **SHAPE)
    b = count_flops("tin_module", **SHAPE)
    assert asdict(a) == asdict(b)


def test_unsupported_op_rejected():
    with pytest.raises(ConfigError):
        count_flops("lstm", t=8, c=4, h=4, w=4)


def test_resnet50_conv_madds_magnitude():
    per_frame = resnet50_conv_madds()
    assert 3.5e9 < per_frame < 4.5e9  # the standard published ballpark


def test_host_network_overhead_below_five_percent():
    over = tin_overhead(t=8)
    assert over["overhead_ratio"] < 0.05
    assert over["host_conv_madds"] > 25e9  # 8 frames of a 50-layer backbone


def test_flops_summary_fields():
    s = flops_summary()
    assert s["flops_ratio"] < 0.25
    assert s["madds_ratio"] == pytest.approx(0.25)
    assert "convention" in s


def test_latency_report_contract():
    fn = make_op("interlace", t=4, c=16, h=4, w=4)
    rep = run_latency(fn, "interlace", {"t": 4}, reps=50, warmup=10)
    assert rep.reps == 50
    assert rep.p10_s <= rep.median_s <= rep.p90_s
    with pytest.raises(ConfigError):
        run_latency(fn, "interlace", {}, reps=10)
    with pytest.raises(ConfigError):
        run_latency(fn, "interlace", {}, reps=50, warmup=2)


def test_identity_and_general_configs_within_factor_two():
    general = run_latency(make_op("interlace", **SHAPE, seed=0), "i", SHAPE, reps=60)
    ident = run_latency(make_op("interlace", **SHAPE, seed=0, identity=True), "i", SHAPE, reps=60)
    lo, hi = sorted([general.median_s, ident.median_s])
    assert hi / lo < 2.0


def test_interlace_measured_faster_than_dense_tconv():
    rows = bench_operators(**SHAPE, precisions=("f64",), reps=60)
    medians = {rep.op: rep.median_s for rep, _ in rows}
    assert medians["interlace"] < medians["dense_tconv"]


def test_repeated_medians_stable_within_twenty_percent():
    a = run_latency(make_op("interlace", **SHAPE, seed=3), "i", SHAPE, reps=80)
    b = run_latency(make_op("interlace", **SHAPE, seed=3), "i", SHAPE, reps=80)
    assert abs(a.median_s - b.median_s) / min(a.median_s, b.median_s) < 0.2


def test_f32_mode_runs_and_reports():
    rows = bench_operators(t=4, c=32, h=7, w=7, precisions=("f32",), reps=50)
    assert all(rep.precision == "f32" for rep, _ in rows)
    assert all(np.isfinite(rep.median_s) for rep, _ in rows)
