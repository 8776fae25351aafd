"""Analytic FLOPs counting and wall-clock microbenchmarks.

Counting convention (printed in every report): a k-tap dot product costs
k multiplies and k - 1 adds; a multiply-accumulate (madd) is 2 FLOPs; an
isolated multiply is 1 FLOP. Counts are pure functions of shapes, never
measured. Latency numbers come from a monotonic clock, with at least 10
warmup repetitions and at least 50 timed ones; the median is reported,
never the minimum, and assertions elsewhere in the suite only ever compare
operators against each other, not against absolute times.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError
from .interlace import InterlaceConfig, interlace_forward
from .tensors import Rng

CONVENTION = "madd=2 FLOPs; k-tap dot = k mults + (k-1) adds; activations excluded"


@dataclass
class FlopsReport:
    op: str
    shape: dict
    madds: int
    flops: int
    params: int
    convention: str = CONVENTION
    notes: dict = field(default_factory=dict)


def count_flops(op: str, **shape) -> FlopsReport:
    """Analytic multiply-add / FLOP / parameter counts for one operator.

    Supported ops: interlace, tin_module, dense_tconv. Shapes use t, c, h, w
    plus op-specific keys (shift_fraction, g, k). tin_module counts a
    TinBlock without mirroring, whose offset net learns all g groups.
    """
    if op not in ("interlace", "tin_module", "dense_tconv"):
        raise ConfigError(f"unsupported op {op!r} for flops counting")
    t, c, h, w = shape["t"], shape["c"], shape["h"], shape["w"]
    if op == "dense_tconv":
        k = shape.get("k", 3)
        per_elem = t * c * h * w
        return FlopsReport(op, shape, k * per_elem, (2 * k - 1) * per_elem, k * c)
    g = shape.get("g", 4)
    cs = 0 if g == 0 else round(c * shape.get("shift_fraction", 0.25))
    per_elem = t * cs * h * w
    # two-tap blend: 2 mults + 1 add; attention: 1 mult
    madds, flops = 3 * per_elem, 4 * per_elem
    if op == "interlace":
        return FlopsReport(op, shape, madds, flops, 0, notes={"c_shift": cs})
    pool_flops = t * c * h * w + t * c
    onet_madds = 3 * c * t + t * t + t * g
    wnet_madds = 3 * c * g * t
    madds += onet_madds + wnet_madds
    flops += pool_flops + 2 * (onet_madds + wnet_madds)
    params = (3 * c) + (t * t + t) + (t * g + g) + (3 * c * g + g)
    return FlopsReport(op, shape, madds, flops, params,
                       notes={"c_shift": cs, "pool_flops": pool_flops})


# ---------------------------------------------------------------------------
# host-network context: a standard 50-layer residual image backbone

def resnet50_stages(hw: int = 224):
    """(name, cin, mid, cout, h_in, h_out, blocks) for the four stages."""
    s = hw // 4
    return [
        ("stage1", 64, 64, 256, s, s, 3),
        ("stage2", 256, 128, 512, s, s // 2, 4),
        ("stage3", 512, 256, 1024, s // 2, s // 4, 6),
        ("stage4", 1024, 512, 2048, s // 4, s // 8, 3),
    ]


def resnet50_conv_madds(hw: int = 224) -> int:
    """Multiply-adds of all convolutions for one frame."""
    total = (hw // 2) ** 2 * 64 * 3 * 49  # stem: 7x7, stride 2
    for _, cin, mid, cout, h_in, h_out, blocks in resnet50_stages(hw):
        for b in range(blocks):
            c_in_b = cin if b == 0 else cout
            total += h_out * h_out * (c_in_b * mid + 9 * mid * mid + mid * cout)
            if b == 0:
                total += h_out * h_out * c_in_b * cout  # projection shortcut
    return total


def tin_overhead(t: int = 8, hw: int = 224, shift_fraction: float = 0.25, g: int = 4) -> dict:
    """Module cost when inserted before the first conv of every block."""
    host = resnet50_conv_madds(hw) * t
    tin = 0
    for _, cin, mid, cout, h_in, h_out, blocks in resnet50_stages(hw):
        for b in range(blocks):
            c_in_b = cin if b == 0 else cout
            h_b = h_in if b == 0 else h_out
            tin += count_flops("tin_module", t=t, c=c_in_b, h=h_b, w=h_b,
                               shift_fraction=shift_fraction, g=g).madds
    return {"host_conv_madds": host, "tin_module_madds": tin,
            "overhead_ratio": tin / host, "frames": t}


# ---------------------------------------------------------------------------
# latency

@dataclass
class LatencyReport:
    op: str
    shape: dict
    precision: str
    reps: int
    warmup: int
    median_s: float
    p10_s: float
    p90_s: float


def _dtype_of(precision: str):
    if precision == "f32":
        return np.float32
    if precision == "f64":
        return np.float64
    raise ConfigError(f"precision must be f32 or f64, got {precision!r}")


def make_op(op: str, t: int, c: int, h: int, w: int, precision: str = "f64",
            seed: int = 0, identity: bool = False):
    """Build a zero-argument callable computing the operator on fixed data."""
    if min(t, c, h, w) < 1:
        raise ConfigError(f"benchmark shape needs every extent >= 1, got t={t} c={c} h={h} w={w}")
    dtype = _dtype_of(precision)
    rng = Rng(seed)
    u = rng.uniform([t, c, h, w], -1.0, 1.0).astype(dtype)
    if op == "interlace":
        cfg = InterlaceConfig(t=t, c=c, g=4, shift_fraction=0.25, mirror=False)
        if identity:
            offsets = np.zeros(cfg.g)
            weights = np.ones((cfg.g, t))
        else:
            offsets = rng.child("off").uniform([cfg.g], -t / 2 + 0.6, t / 2 - 0.6)
            weights = rng.child("wgt").uniform([cfg.g, t], 0.2, 1.8)
        return lambda: interlace_forward(u, offsets, weights, cfg)[0]
    if op == "dense_tconv":
        taps = rng.child("taps").uniform([c, 3], -0.5, 0.5).astype(dtype)
        xp = np.zeros((t + 2, c, h, w), dtype=dtype)

        def run():
            xp[1:-1] = u
            v = taps[None, :, 0, None, None] * xp[0:t]
            v += taps[None, :, 1, None, None] * xp[1:t + 1]
            v += taps[None, :, 2, None, None] * xp[2:t + 2]
            return v

        return run
    if op == "tin_module":
        from .blocks import TinBlock
        cfg = InterlaceConfig(t=t, c=c, g=4, shift_fraction=0.25, mirror=False)
        block = TinBlock(cfg, rng.child("block"))
        return lambda: block.forward(u)[0]
    raise ConfigError(f"unsupported op {op!r} for latency benchmarking")


def run_latency(fn, op: str, shape: dict, precision: str = "f64", reps: int = 100,
                warmup: int = 10) -> LatencyReport:
    if reps < 50:
        raise ConfigError(f"need >= 50 timed repetitions, got {reps}")
    if warmup < 10:
        raise ConfigError(f"need >= 10 warmup repetitions, got {warmup}")
    for _ in range(warmup):
        fn()
    samples = np.empty(reps)
    for i in range(reps):
        start = time.perf_counter_ns()
        fn()
        samples[i] = time.perf_counter_ns() - start
    samples /= 1e9
    return LatencyReport(op, shape, precision, reps, warmup,
                         float(np.median(samples)),
                         float(np.percentile(samples, 10)),
                         float(np.percentile(samples, 90)))


def bench_operators(t: int = 8, c: int = 256, h: int = 14, w: int = 14,
                    precisions=("f64", "f32"), reps: int = 100, seed: int = 0) -> list:
    """Interlace vs dense 3-tap temporal conv at matched shapes."""
    shape = {"t": t, "c": c, "h": h, "w": w}
    out = []
    for precision in precisions:
        for op in ("interlace", "dense_tconv", "tin_module"):
            fn = make_op(op, t, c, h, w, precision, seed)
            rep = run_latency(fn, op, shape, precision, reps)
            flops = count_flops(op, **shape)
            out.append((rep, flops))
    return out


def bench_rows_to_csv(rows: list, path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["op", "t", "c", "h", "w", "precision", "reps",
                         "median_s", "p10_s", "p90_s", "madds", "flops", "params",
                         "convention"])
        for rep, flops in rows:
            writer.writerow([rep.op, rep.shape["t"], rep.shape["c"], rep.shape["h"],
                             rep.shape["w"], rep.precision, rep.reps,
                             f"{rep.median_s:.9f}", f"{rep.p10_s:.9f}", f"{rep.p90_s:.9f}",
                             flops.madds, flops.flops, flops.params, CONVENTION])


def environment_json() -> str:
    """The interpreter, numpy, BLAS and thread settings a bench report ran under."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "num_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }, indent=2, sort_keys=True)


def flops_summary() -> dict:
    """Headline analytic comparisons used by the verification suite."""
    shape = {"t": 8, "c": 256, "h": 14, "w": 14}
    inter = count_flops("interlace", **shape, shift_fraction=0.25, g=4)
    dense = count_flops("dense_tconv", **shape, k=3)
    over = tin_overhead()
    return {
        "interlace": asdict(inter),
        "dense_tconv3": asdict(dense),
        "flops_ratio": inter.flops / dense.flops,
        "madds_ratio": inter.madds / dense.madds,
        "resnet50_context": over,
        "convention": CONVENTION,
    }


def flops_summary_json() -> str:
    return json.dumps(flops_summary(), indent=2, sort_keys=True)
