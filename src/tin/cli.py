"""Command-line entry point wiring every module together.

Subcommands: gradcheck, equiv, train, ablate, bench, demo. A flat
key = value config file (--config) holds the subcommand's own flags by
dest, read before the command line's, whose flags win. Every run that writes
results also writes a config echo next to them. Exit codes: 0 all gates
passed, 1 a verification gate failed, 2 configuration error, 3 numeric
non-finite values.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
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


def _parse_list(text: str, kind, what: str) -> tuple:
    """A comma-separated list of numbers, e.g. --seeds 0,1,2."""
    try:
        return tuple(kind(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"{what}: expected comma-separated {kind.__name__}s, got {text!r}") from None


def config_flags(path: str, sub: argparse.ArgumentParser) -> list:
    """A flat key = value file as the subcommand's own flags; each key is an option's dest.

    A switch takes true or false; any other option takes what its flag takes.
    """
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    values = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if line and "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected 'key = value', got {line!r}")
            if line:
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    flags = []
    for key, value in values.items():
        if key not in actions:
            raise ConfigError(f"{path}: unknown config key {key!r} for this subcommand")
        flag = actions[key].option_strings[0]
        if actions[key].nargs != 0:
            flags.append(f"{flag}={value}")
        elif value == "true":
            flags.append(flag)
        elif value != "false":
            raise ConfigError(f"{path}: {key} is a switch: expected true or false, got {value!r}")
    return flags


def resolve_out_dir(args: argparse.Namespace) -> str:
    out = args.out or os.environ.get("TIN_RESULTS_DIR") or os.path.join("results", args.command)
    os.makedirs(out, exist_ok=True)
    return out


def _write(out_dir: str, name: str, text: str) -> None:
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text + "\n")


def write_config_echo(out_dir: str, args: argparse.Namespace) -> None:
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in sorted(vars(args).items())
                      if key not in ("config", "func"))


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

    def common(p, func):
        p.set_defaults(func=func)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output directory (default $TIN_RESULTS_DIR or ./results/<cmd>)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--verbose", action="store_true")

    # train and ablate take their defaults from the library
    cfg, task = train_mod.TrainConfig, synth.SynthTask
    net, grid = (inspect.signature(f).parameters for f in (train_mod.build_net, train_mod.run_ablation))

    p = sub.add_parser("equiv", help="check the operator against its 2-tap convolution form")
    common(p, cmd_equiv)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("gradcheck", help="finite-difference checks of every backward pass")
    common(p, cmd_gradcheck)
    p.add_argument("--all", action="store_true",
                   help="accepted for clarity; the full registry always runs")
    p.add_argument("--max-coords", type=int, default=256, dest="max_coords")

    p = sub.add_parser("train", help="train a toy net on a synthetic temporal task")
    common(p, cmd_train)
    p.add_argument("--task", default=task.task, choices=list(synth.TASKS))
    p.add_argument("--temporal", default="tin", choices=["tin", "tcn", "none"])
    p.add_argument("--epochs", type=int, default=cfg.epochs)
    p.add_argument("--lr", type=float, default=cfg.lr)
    p.add_argument("--momentum", type=float, default=cfg.momentum)
    p.add_argument("--weight-decay", type=float, default=cfg.weight_decay, dest="weight_decay")
    p.add_argument("--batch-size", type=int, default=cfg.batch_size, dest="batch_size")
    p.add_argument("--hidden", type=int, default=net["hidden"].default)
    p.add_argument("--train-clips", type=int, default=task.train_clips, dest="train_clips")
    p.add_argument("--val-clips", type=int, default=task.val_clips, dest="val_clips")
    p.add_argument("--noise", type=float, default=task.noise)
    p.add_argument("--groups", type=int, default=net["learned_groups"].default,
                   help="learned offset groups; mirroring doubles the total")
    p.add_argument("--mirror", type=_mirror_flag, default=net["mirror"].default)
    p.add_argument("--shift-fraction", type=float, default=net["shift_fraction"].default,
                   dest="shift_fraction")
    p.add_argument("--weight-all-channels", action="store_true", dest="weight_all_channels")
    p.add_argument("--weightnet-input", default=net["weightnet_input"].default,
                   choices=nets.WEIGHTNET_INPUTS, dest="weightnet_input")
    p.add_argument("--cache-data", action="store_true", dest="cache_data",
                   help="also write the generated clips in the binary tensor format")

    p = sub.add_parser("ablate", help="group-count x mirroring grid with a blind floor")
    common(p, cmd_ablate)
    p.add_argument("--task", default=task.task, choices=list(synth.TASKS))
    p.add_argument("--epochs", type=int, default=cfg.epochs)
    p.add_argument("--lr", type=float, default=cfg.lr)
    p.add_argument("--train-clips", type=int, default=task.train_clips, dest="train_clips")
    p.add_argument("--val-clips", type=int, default=task.val_clips, dest="val_clips")
    p.add_argument("--seeds", default=",".join(map(str, grid["seeds"].default)),
                   help="comma-separated seed list (>= 3 distinct)")
    p.add_argument("--hidden", type=int, default=grid["hidden"].default)
    p.add_argument("--shift-fraction", type=float, default=grid["shift_fraction"].default,
                   dest="shift_fraction")

    p = sub.add_parser("bench", help="analytic FLOPs plus measured latency")
    common(p, cmd_bench)
    p.add_argument("--t", type=int, default=8)
    p.add_argument("--c", type=int, default=256)
    p.add_argument("--hw", type=int, default=14)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--precision", default="both", choices=["f32", "f64", "both"])

    p = sub.add_parser("demo", help="numeric walkthrough of the sampling pipeline")
    common(p, cmd_demo)
    p.add_argument("--offsets", default="0,1.3", help="comma-separated per-group offsets")
    p.add_argument("--dump", help="write the demo input tensor to this path")
    p.add_argument("--load", help="read the demo input tensor from this path")

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies

def cmd_equiv(args) -> int:
    report = tcn.run_equivalence_trials(args.trials, args.seed, args.tol)
    out = resolve_out_dir(args)
    _write(out, "equiv_report.json", report.to_json())
    write_config_echo(out, args)
    print(f"equivalence: {report.trials} trials, max |diff| = {report.max_abs_diff:.3e}, "
          f"tol = {report.tol:.1e} -> {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_GATE_FAILED


def cmd_gradcheck(args) -> int:
    reports = gradcheck_mod.run_standard_checks(args.seed, args.max_coords)
    out = resolve_out_dir(args)
    _write(out, "gradcheck_report.json", gradcheck_mod.reports_to_json(reports))
    write_config_echo(out, args)
    ok = True
    for name in sorted(reports):
        rep = reports[name]
        ok &= rep.passed
        kinks = f", {len(rep.kinks)} kink(s) skipped" if rep.kinks else ""
        print(f"{'PASS' if rep.passed else 'FAIL'}  {name}: max rel err "
              f"{rep.max_rel_err:.3e} (tol {rep.tol:.1e}){kinks}")
    return EXIT_OK if ok else EXIT_GATE_FAILED


def _from_args(cls, args):
    """The dataclass cls built from those of the subcommand's options that are its fields."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if f.name in args})


def cmd_train(args) -> int:
    spec = _from_args(synth.SynthTask, args)
    cfg = _from_args(train_mod.TrainConfig, args)
    net = train_mod.build_net(spec, args.temporal, args.seed, hidden=args.hidden,
                              learned_groups=args.groups, mirror=args.mirror,
                              shift_fraction=args.shift_fraction, weightnet_input=args.weightnet_input,
                              weight_all_channels=args.weight_all_channels)
    out = resolve_out_dir(args)
    train_data, val_data = train_mod.task_data(spec)
    if args.cache_data:
        cache = os.path.join(out, "cache")
        os.makedirs(cache, exist_ok=True)
        save_tensor(os.path.join(cache, "train_clips.tnsr"), train_data.clips)
        save_tensor(os.path.join(cache, "val_clips.tnsr"), val_data.clips)
    record = train_mod.train(net, train_data, val_data, cfg)
    _write(out, "record.json", record.to_json())
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
    spec = _from_args(synth.SynthTask, args)
    cfg = _from_args(train_mod.TrainConfig, args)
    rows = train_mod.run_ablation(spec, cfg, seeds=seeds, hidden=args.hidden,
                                  shift_fraction=args.shift_fraction)
    out = resolve_out_dir(args)
    train_mod.ablation_to_csv(rows, os.path.join(out, "ablation.csv"))
    _write(out, "ablation.json", train_mod.ablation_to_json(rows))
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
    _write(out, "flops.json", bench_mod.flops_summary_json())
    _write(out, "env.json", bench_mod.environment_json())
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

    lines = [f"input clip [T={t}, C={c}, H={h}, W={w}], one channel per shifted group first",
             "per-frame channel means of the input:", _grid(u.mean(axis=(2, 3)).T)]
    for gi in range(g):
        o = offsets[gi]
        n0 = int(np.floor(o))
        f = o - n0
        lines.append(f"group {gi}: offset {o:+.2f} -> taps @{n0:+d}:{1 - f:.3f} @{n0 + 1:+d}:{f:.3f}"
                     + ("  (pass-through)" if o == 0 else ""))
        lines.append(f"  equivalent kernel row (frame 0): {{{n0:+d}: {kernel.values[gi, 0, 0]:.3f}, "
                     f"{n0 + 1:+d}: {kernel.values[gi, 0, 1]:.3f}}}")
    lines += ["per-frame channel means of the output:", _grid(v.mean(axis=(2, 3)).T),
              f"max |operator - 2-tap convolution| = {report.max_abs_diff:.3e} "
              f"({'consistent' if report.passed else 'MISMATCH'})"]
    text = "\n".join(lines)
    print(text)
    if args.out:
        out = resolve_out_dir(args)
        _write(out, "demo.txt", text)
        write_config_echo(out, args)
    return EXIT_OK


def _grid(m: np.ndarray) -> str:
    return "\n".join("  " + "  ".join(f"{x:6.3f}" for x in row) for row in np.atleast_2d(m))


def parse_args(argv=None) -> argparse.Namespace:
    """A --config file's flags, then the command line's, which win; a bad file line is a ConfigError."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if not args.config:
        return args
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = subcommands.choices[args.command]
    sub.exit_on_error = False   # raise the file's first bad value, do not print usage
    flags = config_flags(args.config, sub) + argv[argv.index(args.command) + 1:]
    try:
        return sub.parse_args(flags, argparse.Namespace(command=args.command))
    except argparse.ArgumentError as exc:
        raise ConfigError(f"{args.config}: {exc}") from None


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except (ConfigError, ShapeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteError as exc:
        print(f"non-finite values: {exc}", file=sys.stderr)
        return EXIT_NONFINITE


if __name__ == "__main__":
    sys.exit(main())
