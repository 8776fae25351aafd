"""Command-line entry point wiring every module together.

Subcommands: gradcheck, equiv, train, ablate, bench, demo. Options can
come from a flat key = value config file (--config); command-line flags
override file values, unknown keys are hard errors. Every run that writes
results also writes a config echo next to them. Exit codes: 0 all gates
passed, 1 a verification gate failed, 2 configuration error, 3 numeric
non-finite values.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bench as bench_mod
from . import gradcheck as gradcheck_mod
from . import nets, synth, tcn
from . import training as train_mod
from .errors import ConfigError, NonFiniteError, ShapeError
from .interlace import InterlaceConfig, interlace_forward
from .tensors import Rng, load_tensor, save_tensor

EXIT_OK = 0
EXIT_GATE_FAILED = 1
EXIT_CONFIG = 2
EXIT_NONFINITE = 3


def parse_config_file(path: str) -> dict:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    out = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _coerce(value: str, like):
    if isinstance(like, bool):
        if value.lower() in ("1", "true", "on", "yes"):
            return True
        if value.lower() in ("0", "false", "off", "no"):
            return False
        raise ConfigError(f"expected a boolean, got {value!r}")
    if isinstance(like, (int, float)):
        return _parse_number(value, type(like), "config file value")
    return value


def _parse_number(text: str, kind, what: str):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{what}: expected {kind.__name__}, got {text!r}") from None


def _parse_list(text: str, kind, what: str) -> tuple:
    """A comma-separated list of numbers, e.g. --seeds 0,1,2."""
    return tuple(_parse_number(x, kind, what) for x in text.split(","))


def apply_config_file(args: argparse.Namespace, given: set) -> None:
    """File values fill any option not given on the command line; flags win.

    given holds the destinations of the options on the command line; every
    other option still holds its default, which sets the file value's type.
    """
    if not getattr(args, "config", None):
        return
    for key, raw in parse_config_file(args.config).items():
        if key in ("config", "command") or not hasattr(args, key):
            raise ConfigError(f"unknown config key {key!r} for this subcommand")
        if key not in given:
            like = getattr(args, key)
            setattr(args, key, _coerce(raw, like if like is not None else ""))


def resolve_out_dir(args: argparse.Namespace) -> str:
    out = getattr(args, "out", None) or os.environ.get("TIN_RESULTS_DIR") \
        or os.path.join("results", args.command)
    os.makedirs(out, exist_ok=True)
    return out


def write_config_echo(out_dir: str, args: argparse.Namespace) -> None:
    skip = {"config", "func"}
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        for key in sorted(vars(args)):
            if key in skip:
                continue
            fh.write(f"{key} = {getattr(args, key)}\n")


def _mirror_flag(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError("expected 'on' or 'off'")
    return value == "on"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tin",
        description="Learned fractional temporal shifting of grouped channels: "
                    "verification oracles, a synthetic lab, and benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output directory (default $TIN_RESULTS_DIR or ./results/<cmd>)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("equiv", help="check the operator against its 2-tap convolution form")
    common(p)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("gradcheck", help="finite-difference checks of every backward pass")
    common(p)
    p.add_argument("--all", action="store_true",
                   help="accepted for clarity; the full registry always runs")
    p.add_argument("--max-coords", type=int, default=256, dest="max_coords")

    p = sub.add_parser("train", help="train a toy net on a synthetic temporal task")
    common(p)
    p.add_argument("--task", default="direction2", choices=list(synth.TASKS))
    p.add_argument("--temporal", default="tin", choices=["tin", "tcn", "none"])
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--lr", type=float, default=0.005)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=5e-4, dest="weight_decay")
    p.add_argument("--batch-size", type=int, default=32, dest="batch_size")
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--train-clips", type=int, default=2000, dest="train_clips")
    p.add_argument("--val-clips", type=int, default=500, dest="val_clips")
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--groups", type=int, default=2,
                   help="learned offset groups; mirroring doubles the total")
    p.add_argument("--mirror", type=_mirror_flag, default=True)
    p.add_argument("--shift-fraction", type=float, default=0.25, dest="shift_fraction")
    p.add_argument("--weight-all-channels", action="store_true", dest="weight_all_channels")
    p.add_argument("--weightnet-input", default="descriptor",
                   choices=nets.WEIGHTNET_INPUTS, dest="weightnet_input")
    p.add_argument("--cache-data", action="store_true", dest="cache_data",
                   help="also write the generated clips in the binary tensor format")

    p = sub.add_parser("ablate", help="group-count x mirroring grid with a blind floor")
    common(p)
    p.add_argument("--task", default="direction2", choices=list(synth.TASKS))
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--lr", type=float, default=0.005)
    p.add_argument("--train-clips", type=int, default=2000, dest="train_clips")
    p.add_argument("--val-clips", type=int, default=500, dest="val_clips")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seed list (>= 3)")
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--shift-fraction", type=float, default=0.25, dest="shift_fraction")

    p = sub.add_parser("bench", help="analytic FLOPs plus measured latency")
    common(p)
    p.add_argument("--t", type=int, default=8)
    p.add_argument("--c", type=int, default=256)
    p.add_argument("--hw", type=int, default=14)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--precision", default="both", choices=["f32", "f64", "both"])

    p = sub.add_parser("demo", help="numeric walkthrough of the sampling pipeline")
    common(p)
    p.add_argument("--offsets", default="0,1.3", help="comma-separated per-group offsets")
    p.add_argument("--dump", help="write the demo input tensor to this path")
    p.add_argument("--load", help="read the demo input tensor from this path")

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies

def cmd_equiv(args) -> int:
    report = tcn.run_equivalence_trials(args.trials, args.seed, args.tol)
    out = resolve_out_dir(args)
    with open(os.path.join(out, "equiv_report.json"), "w") as fh:
        fh.write(report.to_json() + "\n")
    write_config_echo(out, args)
    print(f"equivalence: {report.trials} trials, max |diff| = {report.max_abs_diff:.3e}, "
          f"tol = {report.tol:.1e} -> {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_GATE_FAILED


def cmd_gradcheck(args) -> int:
    reports = gradcheck_mod.run_standard_checks(args.seed, args.max_coords)
    out = resolve_out_dir(args)
    with open(os.path.join(out, "gradcheck_report.json"), "w") as fh:
        fh.write(gradcheck_mod.reports_to_json(reports) + "\n")
    write_config_echo(out, args)
    ok = True
    for name in sorted(reports):
        rep = reports[name]
        ok &= rep.passed
        kinks = f", {len(rep.kinks)} kink(s) skipped" if rep.kinks else ""
        print(f"{'PASS' if rep.passed else 'FAIL'}  {name}: max rel err "
              f"{rep.max_rel_err:.3e} (tol {rep.tol:.1e}){kinks}")
    return EXIT_OK if ok else EXIT_GATE_FAILED


def _task_from_args(args) -> synth.SynthTask:
    return synth.SynthTask(task=args.task, w=synth.default_width(args.task),
                           noise=getattr(args, "noise", 0.02),
                           seed=args.seed, train_clips=args.train_clips,
                           val_clips=args.val_clips)


def cmd_train(args) -> int:
    spec = _task_from_args(args)
    cfg = train_mod.TrainConfig(lr=args.lr, momentum=args.momentum,
                                weight_decay=args.weight_decay, epochs=args.epochs,
                                batch_size=args.batch_size, seed=args.seed)
    out = resolve_out_dir(args)
    train_data, val_data = train_mod.task_data(spec)
    if args.cache_data:
        cache = os.path.join(out, "cache")
        os.makedirs(cache, exist_ok=True)
        save_tensor(os.path.join(cache, "train_clips.tnsr"), train_data.clips)
        save_tensor(os.path.join(cache, "val_clips.tnsr"), val_data.clips)
    net = train_mod.build_net(spec, args.temporal, args.seed, hidden=args.hidden,
                              learned_groups=args.groups, mirror=args.mirror,
                              shift_fraction=args.shift_fraction,
                              weightnet_input=args.weightnet_input,
                              weight_all_channels=args.weight_all_channels)
    record = train_mod.train(net, train_data, val_data, cfg)
    with open(os.path.join(out, "record.json"), "w") as fh:
        fh.write(record.to_json() + "\n")
    train_mod.log_trajectories(record, os.path.join(out, "trajectories.csv"))
    write_config_echo(out, args)
    for e in record.epochs:
        if args.verbose:
            print(f"epoch {e.epoch:3d}  lr {e.lr:.4g}  train {e.train_loss:.4f}/{e.train_acc:.3f}"
                  f"  val {e.val_loss:.4f}/{e.val_acc:.3f}")
    print(f"final val acc: {record.final_val_acc:.4f} "
          f"({args.temporal} on {args.task}, seed {args.seed})")
    return EXIT_OK


def cmd_ablate(args) -> int:
    seeds = _parse_list(args.seeds, int, "--seeds")
    cfg = train_mod.TrainConfig(lr=args.lr, epochs=args.epochs, seed=args.seed)
    rows = train_mod.run_ablation(_task_from_args(args), cfg, seeds=seeds, hidden=args.hidden,
                                  shift_fraction=args.shift_fraction)
    out = resolve_out_dir(args)
    train_mod.ablation_to_csv(rows, os.path.join(out, "ablation.csv"))
    with open(os.path.join(out, "ablation.json"), "w") as fh:
        fh.write(train_mod.ablation_to_json(rows) + "\n")
    write_config_echo(out, args)
    for r in rows:
        label = "disabled" if r.groups is None else f"g={r.groups} mirror={'on' if r.mirror else 'off'}"
        print(f"{label:24s} acc {r.mean_acc:.3f} [{r.min_acc:.3f}, {r.max_acc:.3f}]")
    return EXIT_OK


def cmd_bench(args) -> int:
    precisions = ("f32", "f64") if args.precision == "both" else (args.precision,)
    rows = bench_mod.bench_operators(args.t, args.c, args.hw, args.hw,
                                     precisions=precisions, reps=args.reps, seed=args.seed)
    out = resolve_out_dir(args)
    bench_mod.bench_rows_to_csv(rows, os.path.join(out, "bench.csv"))
    with open(os.path.join(out, "flops.json"), "w") as fh:
        fh.write(bench_mod.flops_summary_json() + "\n")
    with open(os.path.join(out, "env.json"), "w") as fh:
        fh.write(bench_mod.environment_json() + "\n")
    write_config_echo(out, args)
    for rep, flops in rows:
        print(f"{rep.op:12s} {rep.precision}  median {rep.median_s * 1e3:8.3f} ms  "
              f"p10 {rep.p10_s * 1e3:8.3f}  p90 {rep.p90_s * 1e3:8.3f}  flops {flops.flops}")
    return EXIT_OK


def cmd_demo(args) -> int:
    t, c, h, w = 4, 8, 2, 2
    offsets = np.array(_parse_list(args.offsets, float, "--offsets"))
    g = len(offsets)
    cfg = InterlaceConfig(t=t, c=c, g=g, shift_fraction=g / c, mirror=False)
    if args.load:
        u = load_tensor(args.load)
        if u.shape != (t, c, h, w):
            raise ConfigError(f"loaded tensor shaped {u.shape}, demo expects {(t, c, h, w)}")
    else:
        u = Rng(args.seed).uniform([t, c, h, w], 0.0, 1.0).round(2)
    if args.dump:
        save_tensor(args.dump, u)
    weights = np.ones((g, t))
    v, _ = interlace_forward(u, offsets, weights, cfg)
    kernel = tcn.build_equiv_kernel(offsets, weights, cfg)
    report = tcn.verify_equivalence(u, offsets, weights, cfg)

    lines = []
    lines.append(f"input clip [T={t}, C={c}, H={h}, W={w}], one channel per shifted group first")
    lines.append("per-frame channel means of the input:")
    lines.append(_grid(u.mean(axis=(2, 3)).T))
    for gi in range(g):
        o = offsets[gi]
        n0 = int(np.floor(o))
        f = o - n0
        lines.append(f"group {gi}: offset {o:+.2f} -> taps @{n0:+d}:{1 - f:.3f} @{n0 + 1:+d}:{f:.3f}"
                     + ("  (pass-through)" if o == 0 else ""))
        lines.append(f"  equivalent kernel row (frame 0): {{{n0:+d}: {kernel.values[gi, 0, 0]:.3f}, "
                     f"{n0 + 1:+d}: {kernel.values[gi, 0, 1]:.3f}}}")
    lines.append("per-frame channel means of the output:")
    lines.append(_grid(v.mean(axis=(2, 3)).T))
    lines.append(f"max |operator - 2-tap convolution| = {report.max_abs_diff:.3e} "
                 f"({'consistent' if report.passed else 'MISMATCH'})")
    text = "\n".join(lines)
    print(text)
    if args.out:
        out = resolve_out_dir(args)
        with open(os.path.join(out, "demo.txt"), "w") as fh:
            fh.write(text + "\n")
        write_config_echo(out, args)
    return EXIT_OK


def _grid(m: np.ndarray) -> str:
    return "\n".join("  " + "  ".join(f"{x:6.3f}" for x in row) for row in np.atleast_2d(m))


_UNSET = object()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # parsed again with every default unset, only the given options keep a value
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    subparsers.choices[args.command].set_defaults(**dict.fromkeys(vars(args), _UNSET))
    given = {k for k, v in vars(parser.parse_args(argv)).items() if v is not _UNSET}
    handlers = {"equiv": cmd_equiv, "gradcheck": cmd_gradcheck, "train": cmd_train,
                "ablate": cmd_ablate, "bench": cmd_bench, "demo": cmd_demo}
    try:
        apply_config_file(args, given)
        return handlers[args.command](args)
    except (ConfigError, ShapeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteError as exc:
        print(f"non-finite values: {exc}", file=sys.stderr)
        return EXIT_NONFINITE


if __name__ == "__main__":
    sys.exit(main())
