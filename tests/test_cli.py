import argparse
import json
import os

import numpy as np
import pytest

from tin import nets, synth
from tin.cli import build_parser, main
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
], ids=["demo-offset-out-of-range", "train-hidden-indivisible", "config-file-bad-int",
        "ablate-bad-seed", "config-file-command-key", "train-batch-size-zero"])
def test_configuration_errors_exit_2_with_one_line(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    code, _, err = run(argv + ["--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err.startswith("config error: ") and err.count("\n") == 1


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
