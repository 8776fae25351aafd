import argparse
import json
import os

import numpy as np
import pytest

from tin import nets, synth
from tin.cli import build_parser, main, parse_args, write_config_echo
from tin.errors import ConfigError
from tin.tensors import load_tensor
from tin.training import TrainConfig, run_experiment, task_data


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_equiv_subcommand_passes_and_writes_report(tmp_path, capsys):
    code, out, _ = run(["equiv", "--trials", "60", "--seed", "7",
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "PASS" in out
    body = json.loads((tmp_path / "equiv_report.json").read_text())
    assert body["trials"] == 60
    assert body["max_abs_diff"] < 1e-9
    assert (tmp_path / "config.txt").exists()


def test_equiv_reruns_are_byte_identical(tmp_path, capsys):
    for sub in ("a", "b"):
        code, _, _ = run(["equiv", "--trials", "40", "--seed", "3",
                          "--out", str(tmp_path / sub)], capsys)
        assert code == 0
    assert (tmp_path / "a" / "equiv_report.json").read_bytes() == \
           (tmp_path / "b" / "equiv_report.json").read_bytes()


def test_gradcheck_subcommand(tmp_path, capsys):
    code, out, _ = run(["gradcheck", "--all", "--max-coords", "24",
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    assert out.count("PASS") >= 15
    body = json.loads((tmp_path / "gradcheck_report.json").read_text())
    assert body["passed"] is True


def test_train_subcommand_writes_record_and_trajectories(tmp_path, capsys):
    code, out, _ = run(["train", "--task", "direction2", "--epochs", "1",
                        "--lr", "0.05", "--train-clips", "64", "--val-clips", "32",
                        "--batch-size", "32", "--out", str(tmp_path)], capsys)
    assert code == 0
    body = json.loads((tmp_path / "record.json").read_text())
    assert len(body["epochs"]) == 1
    assert (tmp_path / "trajectories.csv").exists()
    assert (tmp_path / "config.txt").exists()


def test_train_cache_data_writes_binary_tensors(tmp_path, capsys):
    code, _, _ = run(["train", "--task", "direction2", "--epochs", "1",
                      "--lr", "0.05", "--train-clips", "32", "--val-clips", "16",
                      "--cache-data", "--out", str(tmp_path)], capsys)
    assert code == 0
    clips = load_tensor(tmp_path / "cache" / "train_clips.tnsr")
    assert clips.shape == (32, 8, 1, 16, 16)


def test_train_matches_run_experiment_and_caches_trained_clips(tmp_path, capsys):
    code, _, _ = run(["train", "--task", "direction2", "--epochs", "1", "--lr", "0.05",
                      "--train-clips", "64", "--val-clips", "32", "--batch-size", "32",
                      "--seed", "4", "--cache-data", "--out", str(tmp_path)], capsys)
    assert code == 0
    spec = synth.SynthTask(task="direction2", seed=4, train_clips=64, val_clips=32)
    rec = run_experiment(spec, "tin", TrainConfig(lr=0.05, epochs=1, batch_size=32, seed=4))
    body = json.loads((tmp_path / "record.json").read_text())
    assert body["epochs"] == rec.to_dict()["epochs"]
    train_data, _ = task_data(spec)
    assert np.array_equal(load_tensor(tmp_path / "cache" / "train_clips.tnsr"), train_data.clips)


def test_ablate_subcommand_structure(tmp_path, capsys):
    code, out, _ = run(["ablate", "--task", "direction2", "--epochs", "1",
                        "--lr", "0.05", "--train-clips", "48", "--val-clips", "24",
                        "--seeds", "0,1,2", "--hidden", "32",
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    rows = json.loads((tmp_path / "ablation.json").read_text())
    assert len(rows) == 7  # 3 group counts x 2 mirror modes + disabled floor
    assert rows[-1]["groups"] is None
    assert (tmp_path / "ablation.csv").exists()


def test_bench_subcommand(tmp_path, capsys):
    code, out, _ = run(["bench", "--t", "4", "--c", "32", "--hw", "7",
                        "--reps", "50", "--precision", "f64",
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
    assert len(lines) == 4  # header + three operators
    assert "interlace" in lines[1]
    assert (tmp_path / "flops.json").exists()
    env = json.loads((tmp_path / "env.json").read_text())
    assert env.keys() == {"python", "numpy", "blas", "cpu_count", "num_threads"}
    assert env["numpy"] == np.__version__ and env["cpu_count"] == os.cpu_count()
    assert all(k.endswith("_NUM_THREADS") for k in env["num_threads"])


def test_demo_prints_taps_and_kernel(tmp_path, capsys):
    code, out, _ = run(["demo", "--offsets", "0,1.3", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "offset +0.00" in out
    assert "pass-through" in out
    assert "@+1:0.700 @+2:0.300" in out
    assert "consistent" in out
    assert (tmp_path / "demo.txt").exists()


def test_demo_deterministic(capsys):
    _, out1, _ = run(["demo", "--seed", "5"], capsys)
    _, out2, _ = run(["demo", "--seed", "5"], capsys)
    assert out1 == out2


def test_demo_dump_and_load_round_trip(tmp_path, capsys):
    dump = tmp_path / "input.tnsr"
    _, out1, _ = run(["demo", "--seed", "9", "--dump", str(dump)], capsys)
    assert dump.exists()
    _, out2, _ = run(["demo", "--seed", "1", "--load", str(dump)], capsys)
    assert out1 == out2  # same input tensor, same walkthrough


def test_demo_load_of_a_truncated_file_exits_2_with_one_line(tmp_path, capsys):
    dump = tmp_path / "input.tnsr"
    run(["demo", "--dump", str(dump)], capsys)
    dump.write_bytes(dump.read_bytes()[:100])
    code, _, err = run(["demo", "--load", str(dump)], capsys)
    assert code == 2
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_weightnet_input_choices_are_the_library_modes():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices["train"]._actions if a.dest == "weightnet_input")
    assert tuple(action.choices) == nets.WEIGHTNET_INPUTS


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["equiv", "--no-such-flag"])
    assert exc.value.code == 2


def test_missing_config_file_exits_2_without_output(tmp_path, capsys):
    out_dir = tmp_path / "results"
    code, _, err = run(["equiv", "--config", str(tmp_path / "nope.cfg"),
                        "--out", str(out_dir)], capsys)
    assert code == 2
    assert "config error" in err
    assert not out_dir.exists() or not list(out_dir.iterdir())


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("trails = 100\n")  # typo for trials
    code, _, err = run(["equiv", "--config", str(cfg)], capsys)
    assert code == 2
    assert "unknown config key" in err


@pytest.mark.parametrize("argv, config", [
    (["demo", "--offsets", "0,2.5"], None),
    (["train", "--hidden", "10", "--epochs", "1", "--train-clips", "8", "--val-clips", "8"], None),
    (["train"], "epochs = abc\n"),
    (["ablate", "--seeds", "0,x"], None),
    (["equiv"], "command = train\n"),
    (["train", "--batch-size", "0", "--epochs", "1", "--train-clips", "8", "--val-clips", "8"],
     None),
    (["equiv", "--trials", "0"], None),
    (["equiv", "--trials", "-3"], None),
    (["gradcheck", "--max-coords", "0"], None),
    (["gradcheck", "--max-coords", "-1"], None),
    (["train", "--train-clips", "0", "--epochs", "1", "--val-clips", "8"], None),
    (["train", "--val-clips", "0", "--epochs", "1", "--train-clips", "8"], None),
    (["train", "--epochs", "0", "--train-clips", "8", "--val-clips", "8"], None),
    (["train", "--epochs", "-1", "--train-clips", "8", "--val-clips", "8"], None),
    (["train", "--groups", "0", "--epochs", "1", "--train-clips", "8", "--val-clips", "8"], None),
    (["train", "--temporal", "tcn", "--hidden", "0", "--epochs", "1", "--train-clips", "8",
      "--val-clips", "8"], None),
    (["ablate", "--seeds", "0,0,0", "--epochs", "1", "--train-clips", "8", "--val-clips", "8"],
     None),
    (["bench", "--hw", "0", "--reps", "50"], None),
    (["train", "--epochs", "1", "--train-clips", "8", "--val-clips", "8"], "mirror = 1\n"),
    (["train", "--epochs", "1", "--train-clips", "8", "--val-clips", "8"], "temporal = lstm\n"),
    (["bench", "--reps", "50"], "precision = f16\n"),
    (["train", "--lr", "-0.05", "--epochs", "1", "--train-clips", "8", "--val-clips", "8"], None),
    (["train", "--lr", "nan", "--epochs", "1", "--train-clips", "8", "--val-clips", "8"], None),
    (["train", "--momentum", "1.5", "--epochs", "1", "--train-clips", "8", "--val-clips", "8"],
     None),
    (["train", "--weight-decay", "-1", "--epochs", "1", "--train-clips", "8", "--val-clips", "8"],
     None),
    (["equiv", "--tol", "-1"], None),
    (["train", "--noise", "nan", "--epochs", "1", "--train-clips", "8", "--val-clips", "8"], None),
], ids=["demo-offset-out-of-range", "train-hidden-indivisible", "config-file-bad-int",
        "ablate-bad-seed", "config-file-command-key", "train-batch-size-zero",
        "equiv-zero-trials", "equiv-negative-trials", "gradcheck-zero-coords",
        "gradcheck-negative-coords", "train-zero-train-clips", "train-zero-val-clips",
        "train-zero-epochs", "train-negative-epochs", "train-zero-groups", "train-zero-hidden", "ablate-repeated-seeds",
        "bench-zero-extent", "config-file-mirror-1", "config-file-unknown-temporal",
        "config-file-unknown-precision", "train-negative-lr", "train-nan-lr",
        "train-momentum-above-one", "train-negative-weight-decay", "equiv-negative-tol",
        "train-nan-noise"])
def test_configuration_errors_exit_2_with_one_line(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    code, _, err = run(argv + ["--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert config is None or str(cfg) in err   # a bad file line names its file
    assert not (tmp_path / "out").exists()   # rejected before any work is done


# One value per option that differs from its default, and, where the flag
# checks its value, one that the flag rejects. Switches have no value.
VALID = {"out": "runs/x", "seed": "5", "trials": "7", "tol": "1e-6", "max_coords": "9",
         "task": "speed2", "temporal": "tcn", "epochs": "3", "lr": "0.05", "momentum": "0.5",
         "weight_decay": "0", "batch_size": "16", "hidden": "8", "train_clips": "64",
         "val_clips": "32", "noise": "0.1", "groups": "1", "mirror": "off",
         "shift_fraction": "0.5", "weightnet_input": "channel_mean", "seeds": "3,4,5",
         "t": "4", "c": "32", "hw": "7", "reps": "60", "precision": "f32",
         "offsets": "-1.5,0.5", "dump": "a.tnsr", "load": "b.tnsr"}
REJECTED = {"seed": "x", "trials": "1.5", "tol": "tight", "max_coords": "x", "task": "speed3",
            "temporal": "lstm", "epochs": "abc", "lr": "fast", "momentum": "x",
            "weight_decay": "x", "batch_size": "x", "hidden": "x", "train_clips": "x",
            "val_clips": "x", "noise": "x", "groups": "x", "mirror": "1",
            "shift_fraction": "x", "weightnet_input": "frames", "t": "x", "c": "x", "hw": "x",
            "reps": "x", "precision": "f16"}


def _options():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(cmd, a) for cmd, p in sub.choices.items() for a in p._actions
            if a.dest not in ("help", "config")]


@pytest.mark.parametrize("cmd, action", _options(),
                         ids=[f"{cmd}-{a.dest}" for cmd, a in _options()])
def test_a_config_line_is_the_flag(tmp_path, capsys, cmd, action):
    flag = action.option_strings[0]
    cfg = tmp_path / "run.cfg"
    switch = action.nargs == 0
    if switch:
        cfg.write_text(f"{action.dest} = true\n")
        argv = [flag]
    else:
        cfg.write_text(f"{action.dest} = {VALID[action.dest]}\n")
        argv = [f"{flag}={VALID[action.dest]}"]
    from_flag, from_file = parse_args([cmd] + argv), parse_args([cmd, "--config", str(cfg)])
    assert getattr(from_file, action.dest) != action.default
    for name, args in (("flag", from_flag), ("file", from_file)):
        (tmp_path / name).mkdir()
        write_config_echo(str(tmp_path / name), args)
    assert (tmp_path / "flag" / "config.txt").read_bytes() == \
           (tmp_path / "file" / "config.txt").read_bytes()

    if not switch and action.type is None and action.choices is None:
        assert action.dest not in REJECTED   # the flag takes any string
        return
    bad = "1" if switch else REJECTED[action.dest]
    with pytest.raises(SystemExit) as exc:
        parse_args([cmd, f"{flag}={bad}"])
    assert exc.value.code == 2
    cfg.write_text(f"{action.dest} = {bad}\n")
    with pytest.raises(ConfigError):
        parse_args([cmd, "--config", str(cfg)])


def test_every_option_has_a_sample_value():
    assert {a.dest for _, a in _options() if a.nargs != 0} == set(VALID)


def test_config_file_values_apply_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 25\nseed = 11\n# comment line\n")
    out_dir = tmp_path / "r1"
    code, _, _ = run(["equiv", "--config", str(cfg), "--out", str(out_dir)], capsys)
    assert code == 0
    body = json.loads((out_dir / "equiv_report.json").read_text())
    assert body["trials"] == 25 and body["seed"] == 11

    out_dir2 = tmp_path / "r2"
    code, _, _ = run(["equiv", "--config", str(cfg), "--trials", "30",
                      "--out", str(out_dir2)], capsys)
    body = json.loads((out_dir2 / "equiv_report.json").read_text())
    assert body["trials"] == 30 and body["seed"] == 11

    # a flag given at its default value still wins over the file
    out_dir3 = tmp_path / "r3"
    code, _, _ = run(["equiv", "--config", str(cfg), "--trials", "1000",
                      "--out", str(out_dir3)], capsys)
    body = json.loads((out_dir3 / "equiv_report.json").read_text())
    assert body["trials"] == 1000 and body["seed"] == 11


def test_impossible_tolerance_exits_1(tmp_path, capsys):
    code, out, _ = run(["equiv", "--trials", "20", "--tol", "0.0",
                        "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "FAIL" in out


def test_training_divergence_exits_3(tmp_path, capsys):
    with np.errstate(all="ignore"):
        code, _, err = run(["train", "--task", "direction2", "--epochs", "2",
                            "--lr", "1e100", "--weight-decay", "0",
                            "--train-clips", "48", "--val-clips", "16",
                            "--out", str(tmp_path)], capsys)
    assert code == 3
    assert "non-finite" in err


def test_results_dir_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TIN_RESULTS_DIR", str(tmp_path / "envout"))
    code, _, _ = run(["equiv", "--trials", "20"], capsys)
    assert code == 0
    assert (tmp_path / "envout" / "equiv_report.json").exists()


def test_config_echo_contains_resolved_values(tmp_path, capsys):
    code, _, _ = run(["equiv", "--trials", "21", "--seed", "4",
                      "--out", str(tmp_path)], capsys)
    echo = (tmp_path / "config.txt").read_text()
    assert "trials = 21" in echo
    assert "seed = 4" in echo
