import csv
import json

import numpy as np
import pytest

from marlsched import harness
from marlsched.baselines import BASELINES
from marlsched.cli import load_configs, main
from marlsched.env import ConfigError, NetworkEnv
from marlsched.nn import Mlp, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def tiny_cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    cfg = {
        "env": {"deployment": {"num_aps": 2, "num_ues": 6},
                "episode_length": 20},
        "trainer": {"num_envs": 2, "episodes": 4, "epoch_episodes": 2,
                    "buffer_capacity": 200, "batch_timesteps": 16,
                    "target_sync_intervals": 40, "train_period_intervals": 10,
                    "epsilon_decay_episodes": 4},
    }
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def norm_stats_path(tiny_cfg_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("norm") / "stats.json"
    main(["collect-norm-stats", "--config", tiny_cfg_path, "--episodes", "2",
          "--baselines", "full_reuse", "tdm", "--out", str(path)])
    return str(path)


def test_collect_norm_stats_output(norm_stats_path):
    with open(norm_stats_path) as f:
        payload = json.load(f)
    assert payload["Q"] == 20
    assert len(payload["weight_thresholds"]) == 20
    assert payload["sigma_rew"] > 0
    assert payload["config_fingerprint"] == "N2-K6-k3-n3-p1-T20"


def test_baseline_command(tiny_cfg_path, tmp_path, capsys):
    out = tmp_path / "fr.csv"
    main(["baseline", "--kind", "full_reuse", "--config", tiny_cfg_path,
          "--num-envs", "3", "--out", str(out)])
    assert "sum_rate_mbps=" in capsys.readouterr().out
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3
    assert float(rows[0]["sum_rate_mbps"]) > 0


def test_build_val_set_command(tiny_cfg_path, tmp_path):
    out = tmp_path / "val.json"
    main(["build-val-set", "--config", tiny_cfg_path, "--count", "2",
          "--population", "8", "--tolerance", "0.9", "--out", str(out)])
    with open(out) as f:
        payload = json.load(f)
    assert len(payload["seeds"]) == 2


def test_train_then_evaluate_and_analyze(tiny_cfg_path, norm_stats_path,
                                         tmp_path, capsys):
    run_dir = tmp_path / "run"
    main(["train", "--config", tiny_cfg_path, "--norm-stats", norm_stats_path,
          "--seed", "3", "--out", str(run_dir)])
    with open(run_dir / "epochs.csv") as f:
        epochs = list(csv.DictReader(f))
    assert len(epochs) == 2
    ckpt = run_dir / "epoch_0001.ckpt"
    assert ckpt.exists()
    net, header = load_checkpoint(ckpt)
    assert header["extra"]["epoch"] == 1
    assert net.in_dim == 24 and net.out_dim == 4

    main(["evaluate", "--config", tiny_cfg_path, "--checkpoint", str(ckpt),
          "--norm-stats", norm_stats_path, "--num-envs", "2",
          "--out", str(tmp_path / "eval.csv")])
    assert "score=" in capsys.readouterr().out

    main(["analyze", "decisions", "--config", tiny_cfg_path,
          "--checkpoint", str(ckpt), "--norm-stats", norm_stats_path,
          "--num-envs", "1", "--out", str(tmp_path / "dec.csv")])
    with open(tmp_path / "dec.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 20 * 2


@pytest.mark.parametrize("command", [
    ["evaluate", "--num-envs", "1"],
    ["analyze", "decisions", "--num-envs", "1", "--out", "dec.csv"],
], ids=["evaluate", "analyze-decisions"])
@pytest.mark.parametrize("in_dim, out_dim", [(7, 4), (24, 3)])
def test_checkpoint_config_mismatch_exits_before_any_rollout(
        command, in_dim, out_dim, tiny_cfg_path, norm_stats_path, tmp_path, capsys,
        monkeypatch):
    ckpt = tmp_path / "other.ckpt"
    save_checkpoint(ckpt, Mlp(in_dim, out_dim, 8, rng=np.random.default_rng(0)))

    def no_rollout(*args, **kwargs):
        raise AssertionError("rolled out before checking the checkpoint")

    monkeypatch.setattr(NetworkEnv, "reset", no_rollout)
    with pytest.raises(SystemExit) as exc:
        main(command + ["--config", tiny_cfg_path, "--checkpoint", str(ckpt),
                        "--norm-stats", norm_stats_path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(f"{name}={value}" in err for name, value in [
        ("in_dim", in_dim), ("out_dim", out_dim), ("obs_dim", 24), ("num_actions", 4)])


def test_analyze_interferers(tiny_cfg_path, tmp_path):
    out = tmp_path / "prof.csv"
    main(["analyze", "interferers", "--config", tiny_cfg_path,
          "--realizations", "3", "--out", str(out)])
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert [int(r["num_interferers"]) for r in rows] == [0, 1]
    assert float(rows[0]["mean_sinr_db"]) >= float(rows[1]["mean_sinr_db"])


def test_analyze_pareto(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("sum_rate_mbps,pct5_mbps\n10,2\n")
    b.write_text("sum_rate_mbps,pct5_mbps\n9,1\n")
    main(["analyze", "pareto", "--inputs", str(a), str(b)])
    out = capsys.readouterr().out
    assert f"{a} dominates {b}" in out


@pytest.mark.parametrize("argv, flags", [
    (["analyze", "decisions", "--out", "dec.csv"], ["--checkpoint", "--norm-stats"]),
    (["analyze", "decisions", "--checkpoint", "c.ckpt", "--out", "dec.csv"],
     ["--norm-stats"]),
    (["analyze", "decisions", "--checkpoint", "c.ckpt", "--norm-stats", "s.json"],
     ["--out"]),
    (["analyze", "interferers"], ["--out"]),
    (["analyze", "pareto"], ["--inputs"]),
], ids=["decisions-bare", "decisions-no-norm-stats", "decisions-no-out", "interferers",
        "pareto"])
def test_analyze_names_missing_flags_before_any_work(argv, flags, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before checking its flags")

    monkeypatch.setattr(harness, "interference_profile", no_work)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in flags)


def test_collect_norm_stats_rejects_unknown_baseline(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["collect-norm-stats", "--baselines", "nope", "--out", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "nope" in err and all(name in err for name in BASELINES)


@pytest.mark.parametrize("raw, names", [
    ({"envv": {"top_k": 2}, "trainerr": {}}, ["envv", "trainerr"]),
    ({"env": {"top_kk": 2, "num_remot": 1}}, ["top_kk", "num_remot"]),
    ({"env": {"deployment": {"num_apz": 2}}}, ["num_apz"]),
    ({"env": {"path_loss": {"k0": 39.0}}}, ["k0"]),
    ({"trainer": {"episodez": 3}}, ["episodez"]),
], ids=["sections", "env", "deployment", "path_loss", "trainer"])
def test_load_configs_names_unknown_entries(tmp_path, raw, names):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError) as exc:
        load_configs(str(path))
    assert all(name in str(exc.value) for name in names)
