import argparse
import csv
import json
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from marlsched import dqn, harness, normalize
from marlsched.baselines import BASELINES
from marlsched.cli import build_parser, load_configs, main
from marlsched.dqn import EpochRecord, TrainerConfig
from marlsched.env import ConfigError, EnvConfig, NetworkEnv
from marlsched.harness import ValidationSet
from marlsched.nn import Mlp, ShapeMismatch, load_checkpoint, save_checkpoint
from marlsched.normalize import DegenerateDataset
from marlsched.topology import PlacementInfeasible


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


def test_collect_norm_stats_output(norm_stats_path, tiny_cfg_path):
    with open(norm_stats_path) as f:
        payload = json.load(f)
    assert payload["Q"] == 20
    assert len(payload["weight_thresholds"]) == 20
    assert payload["sigma_rew"] > 0
    assert re.fullmatch(r"N2-K6-k3-n3-p1-T20-[0-9a-f]{8}", payload["config_fingerprint"])
    assert payload["config_fingerprint"] == load_configs(tiny_cfg_path)[0].fingerprint()


def test_baseline_command(tiny_cfg_path, tmp_path, capsys):
    out = tmp_path / "fr.csv"
    main(["baseline", "--kind", "full_reuse", "--config", tiny_cfg_path,
          "--num-envs", "3", "--out", str(out)])
    assert "sum_rate_mbps=" in capsys.readouterr().out
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3
    assert float(rows[0]["sum_rate_mbps"]) > 0


@pytest.fixture(scope="module")
def val_set_path(tiny_cfg_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("val") / "val.json"
    main(["build-val-set", "--config", tiny_cfg_path, "--count", "2",
          "--population", "8", "--tolerance", "0.9", "--out", str(path)])
    return str(path)


def test_build_val_set_command(val_set_path):
    with open(val_set_path) as f:
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
    assert list(epochs[0]) == [field.name for field in fields(EpochRecord)]
    ckpt = run_dir / "epoch_0001.ckpt"
    assert ckpt.exists()
    net, header = load_checkpoint(ckpt)
    assert header.extra["epoch"] == 1
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


@pytest.mark.parametrize("command", [
    ["evaluate", "--num-envs", "1"],
    ["analyze", "decisions", "--num-envs", "1", "--out", "dec.csv"],
], ids=["evaluate", "analyze-decisions"])
def test_norm_stats_for_another_config_warn(command, norm_stats_path, tmp_path, capsys,
                                            monkeypatch):
    """Stats fitted at N=2, K=6 on a 3-AP, 9-UE config: same obs_dim, so only
    the fingerprint tells them apart."""
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"env": {"deployment": {"num_aps": 3, "num_ues": 9},
                                         "episode_length": 20}}))
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(ckpt, Mlp(24, 4, 8, rng=np.random.default_rng(0)))
    monkeypatch.chdir(tmp_path)
    main(command + ["--config", str(other), "--checkpoint", str(ckpt),
                    "--norm-stats", norm_stats_path])
    err = capsys.readouterr().err
    assert re.search(r"warning: normalization stats .* fitted for N2-K6-k3-n3-p1-T20-"
                     r"[0-9a-f]{8}, running on N3-K9-k3-n3-p1-T20-[0-9a-f]{8}", err), err


@pytest.mark.parametrize("n_aps, warns", [(2, False), (3, True)], ids=["same", "other"])
def test_val_set_for_another_config_warns(n_aps, warns, tiny_cfg_path, norm_stats_path,
                                          val_set_path, tmp_path, capsys, monkeypatch):
    """A validation set built at N=2, K=6 warns when train runs an N=3, K=9
    config, and stays quiet at N=2, K=6."""
    with open(tiny_cfg_path) as f:
        cfg = json.load(f)
    cfg["env"]["deployment"] = {"num_aps": n_aps, "num_ues": 3 * n_aps}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))

    class Trained(Exception):
        pass

    def no_training(*args, **kwargs):
        raise Trained

    monkeypatch.setattr(dqn, "run_training", no_training)
    with pytest.raises(Trained):
        main(["train", "--config", str(path), "--norm-stats", norm_stats_path,
              "--val-set", val_set_path, "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    warning = re.search(r"warning: validation set .* built for N2-K6-k3-n3-p1-T20-"
                        r"[0-9a-f]{8}, running on N3-K9-k3-n3-p1-T20-[0-9a-f]{8}", err)
    assert bool(warning) == warns, err
    assert warns or "validation set" not in err


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


@pytest.mark.parametrize("text", [
    "sum_rate_mbps\n10\n", "env,score\n0,1\n", "sum_rate_mbps,pct5_mbps\n",
    "sum_rate_mbps,pct5_mbps\n10,x\n", "sum_rate_mbps,pct5_mbps\n10,2\nnan,1\n",
    "sum_rate_mbps,pct5_mbps\n10,2\n9\n",
], ids=["no-pct5", "no-columns", "header-only", "text-cell", "nan-cell", "short-row"])
def test_analyze_pareto_refuses_a_malformed_csv(tmp_path, capsys, text):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("sum_rate_mbps,pct5_mbps\n10,2\n")
    bad.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "pareto", "--inputs", str(good), str(bad)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == (f"marlsched: error: {bad} needs sum_rate_mbps and pct5_mbps columns of "
                   "finite numbers in one or more rows\n")


@pytest.mark.parametrize("env, message", [
    ({"shadow_std_db": -3.0}, "EnvConfig.shadow_std_db must be >= 0, got -3.0"),
    ({"sort_by_pf": False, "top_k": 5}, "EnvConfig.top_k 5: unsorted observations need"),
], ids=["negative-shadowing", "unequal-pools"])
def test_analyze_interferers_refuses_an_out_of_range_env(tmp_path, capsys, env, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"env": env}))
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "interferers", "--config", str(config), "--realizations", "1",
              "--out", str(tmp_path / "p.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"marlsched: error: {message}") and err.count("\n") == 1, err


@pytest.mark.parametrize("env, argv, error, message", [
    ({"episode_length": 50},
     ["build-val-set", "--count", "5", "--population", "5", "--tolerance", "0",
      "--out", "v.json"],
     harness.InsufficientCandidates, "only 0/5 realizations in the 0% band"),
    ({"episode_length": 3}, ["collect-norm-stats", "--episodes", "1", "--out", "s.json"],
     DegenerateDataset, "empty dataset"),
    ({"deployment": {"min_ap_ap_dist": 600.0}},
     ["baseline", "--kind", "tdm", "--num-envs", "1"],
     PlacementInfeasible, "AP placement failed after 10000 attempts"),
], ids=["insufficient-candidates", "degenerate-dataset", "placement-infeasible"])
def test_expected_run_failures_exit_2_in_one_line(tmp_path, capsys, monkeypatch, env, argv,
                                                  error, message):
    """A config the run cannot satisfy gives one "marlsched: error:" line and exit 2."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps({"env": env}))
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", "config.json"])
    assert exc.value.code == 2
    assert isinstance(exc.value.__context__, error)
    err = capsys.readouterr().err
    assert err.startswith(f"marlsched: error: {message}") and err.count("\n") == 1, err


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


# each leaf command with its required flags
LEAF_COMMANDS = {
    "collect-norm-stats": ["--out", "s.json"],
    "build-val-set": ["--out", "v.json"],
    "train": ["--norm-stats", "s.json", "--out", "run"],
    "evaluate": ["--checkpoint", "c.ckpt", "--norm-stats", "s.json"],
    "baseline": ["--kind", "tdm"],
    "analyze interferers": ["--out", "p.csv"],
    "analyze decisions": ["--checkpoint", "c.ckpt", "--norm-stats", "s.json",
                          "--out", "d.csv"],
    "analyze pareto": ["--inputs", "a.csv"],
}


def leaf_names(parser, prefix=""):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [prefix.strip()]
    return [leaf for name, p in subs[0].choices.items()
            for leaf in leaf_names(p, f"{prefix} {name}")]


def test_leaf_command_table_is_complete():
    assert sorted(leaf_names(build_parser())) == sorted(LEAF_COMMANDS)


@pytest.mark.parametrize("name", LEAF_COMMANDS)
def test_every_leaf_command_takes_config_and_seed(name):
    argv = name.split() + LEAF_COMMANDS[name] + ["--config", "c.json", "--seed", "7"]
    args = build_parser().parse_args(argv)
    assert (args.config, args.seed) == ("c.json", 7)


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


@pytest.mark.parametrize("raw, names", [
    ({"trainer": {"num_envs": "4"}}, ["TrainerConfig.num_envs", "'4'"]),
    ({"trainer": {"episodes": 2.5}}, ["TrainerConfig.episodes", "2.5"]),
    ({"env": {"episode_length": "10"}}, ["EnvConfig.episode_length"]),
    ({"env": {"top_k": 2.5}}, ["EnvConfig.top_k"]),
    ({"env": {"sort_by_pf": 0}}, ["EnvConfig.sort_by_pf", "bool"]),
    ({"env": {"p_max_dbm": True}}, ["EnvConfig.p_max_dbm", "float"]),
    ({"env": {"shadow_std_db": None}}, ["EnvConfig.shadow_std_db"]),
    ({"env": {"deployment": {"num_aps": 2.0}}}, ["DeploymentConfig.num_aps", "int"]),
    ({"env": {"path_loss": {"d_bp": "100"}}}, ["PathLossParams.d_bp"]),
    ({"env": {"deployment": 3}}, ["EnvConfig.deployment", "JSON object"]),
    ({"env": [1]}, ["ConfigFile.env", "JSON object"]),
    ([1, 2], ["ConfigFile", "JSON object"]),
], ids=["trainer-str", "trainer-float", "env-str", "env-float", "bool-as-int",
        "float-as-bool", "null", "deployment-float", "path-loss-str", "deployment-int",
        "env-list", "top-level-list"])
def test_load_configs_names_wrongly_typed_values(tmp_path, raw, names):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError) as exc:
        load_configs(str(path))
    assert all(name in str(exc.value) for name in names), str(exc.value)


def test_load_configs_stores_integers_of_float_fields_as_floats(tmp_path):
    """10 and 10.0 give equal configs, so they must give one fingerprint."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"env": {"p_max_dbm": 10,
                                        "path_loss": {"d_bp": 100}},
                                "trainer": {"gamma": 1}}))
    env_cfg, trainer_cfg = load_configs(str(path))
    assert env_cfg == EnvConfig() and env_cfg.fingerprint() == EnvConfig().fingerprint()
    assert type(env_cfg.p_max_dbm) is float and type(env_cfg.path_loss.d_bp) is float
    assert trainer_cfg.gamma == 1.0 and type(trainer_cfg.gamma) is float


def _float_fields(config, path):
    """(JSON key path, Class.field) of every float field of config, nested ones too."""
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            yield from _float_fields(value, path + (f.name,))
        elif type(value) is float:
            yield path + (f.name,), f"{type(config).__name__}.{f.name}"


FLOAT_FIELDS = [*_float_fields(EnvConfig(), ("env",)),
                *_float_fields(TrainerConfig(), ("trainer",))]


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("path, name", FLOAT_FIELDS, ids=[name for _, name in FLOAT_FIELDS])
def test_load_configs_refuses_non_finite_floats(tmp_path, path, name, value):
    """json reads NaN and Infinity, which would run to NaN metrics or numpy errors."""
    raw = section = {}
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = float(value)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert value in config.read_text()
    with pytest.raises(ConfigError, match=f"^{name} must be finite"):
        load_configs(str(config))


def test_non_finite_fields_cover_every_float_section():
    assert {name.split(".")[0] for _, name in FLOAT_FIELDS} == {
        "EnvConfig", "DeploymentConfig", "PathLossParams", "TrainerConfig"}


@pytest.mark.parametrize("argv, flag, low", [
    (["collect-norm-stats", "--out", "s.json", "--episodes"], "--episodes", 1),
    (["collect-norm-stats", "--out", "s.json", "--q-levels"], "--q-levels", 2),
    (["build-val-set", "--out", "v.json", "--count"], "--count", 1),
    (["build-val-set", "--out", "v.json", "--population"], "--population", 1),
    (["evaluate", *LEAF_COMMANDS["evaluate"], "--num-envs"], "--num-envs", 1),
    (["baseline", "--kind", "tdm", "--num-envs"], "--num-envs", 1),
    (["analyze", "interferers", "--out", "p.csv", "--realizations"], "--realizations", 1),
    (["analyze", "decisions", *LEAF_COMMANDS["analyze decisions"], "--num-envs"],
     "--num-envs", 1),
], ids=["episodes", "q-levels", "count", "population", "evaluate-num-envs",
        "baseline-num-envs", "realizations", "decisions-num-envs"])
@pytest.mark.parametrize("below", [1, 2], ids=["one-below", "zero-or-negative"])
def test_counts_below_their_minimum_exit_2_naming_the_flag(argv, flag, low, below, capsys,
                                                             monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before checking its flags")

    monkeypatch.setattr(NetworkEnv, "reset", no_work)
    monkeypatch.setattr(harness, "interference_profile", no_work)
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(low - below)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be >= {low}, got {low - below}" in err, err
    args = build_parser().parse_args(argv + [str(low)])
    assert getattr(args, flag[2:].replace("-", "_")) == low


def test_count_flags_refuse_non_integers(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["baseline", "--kind", "tdm", "--num-envs", "2.5"])
    assert exc.value.code == 2
    assert "argument --num-envs: invalid count value: '2.5'" in capsys.readouterr().err


def no_rollout(*args, **kwargs):
    raise AssertionError("rolled out before checking its flags")


@pytest.mark.parametrize("name", LEAF_COMMANDS)
def test_every_leaf_command_refuses_a_negative_seed(name, capsys, monkeypatch):
    """numpy's seeding refuses negative ints; the command line says which flag."""
    monkeypatch.setattr(NetworkEnv, "reset", no_rollout)
    with pytest.raises(SystemExit) as exc:
        main(name.split() + LEAF_COMMANDS[name] + ["--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--count", "3", "--population", "2"], "error: --population 2 cannot hold --count 3"),
    (["--tolerance", "-0.5"], "argument --tolerance: must be >= 0.0, got -0.5"),
    (["--tolerance", "nan"], "argument --tolerance: must be >= 0.0, got nan"),
], ids=["population-below-count", "negative-tolerance", "nan-tolerance"])
def test_build_val_set_refuses_its_flags_before_any_rollout(flags, message, tiny_cfg_path,
                                                           capsys, monkeypatch):
    monkeypatch.setattr(NetworkEnv, "reset", no_rollout)
    with pytest.raises(SystemExit) as exc:
        main(["build-val-set", "--config", tiny_cfg_path, "--out", "v.json", *flags])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_build_val_set_takes_the_edge_values(tiny_cfg_path, monkeypatch):
    calls = []

    def recording_build(*args):
        calls.append(args[1:])
        raise LookupError("stop after the call")

    monkeypatch.setattr(harness, "build_validation_set", recording_build)
    with pytest.raises(LookupError):
        main(["build-val-set", "--config", tiny_cfg_path, "--out", "v.json", "--count", "2",
              "--population", "2", "--tolerance", "0"])
    assert calls == [(2, 2, 0.0, 0)]


@pytest.mark.parametrize("shadow_std_db, warns", [(7.0, False), (3.0, True)],
                         ids=["same", "other"])
def test_evaluate_env_set_warns_when_it_overrides_the_config(
        shadow_std_db, warns, tiny_cfg_path, norm_stats_path, val_set_path, tmp_path,
        capsys):
    """--env-set runs the set's own config; a --config that differs from it is
    ignored, and that is said on stderr."""
    with open(tiny_cfg_path) as f:
        cfg = json.load(f)
    cfg["env"]["shadow_std_db"] = shadow_std_db
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(ckpt, Mlp(24, 4, 8, rng=np.random.default_rng(0)))
    main(["evaluate", "--config", str(path), "--checkpoint", str(ckpt),
          "--norm-stats", norm_stats_path, "--env-set", val_set_path])
    captured = capsys.readouterr()
    assert "score=" in captured.out
    warning = re.search(rf"warning: ignoring --config {re.escape(str(path))}, which gives "
                        r"N2-K6-k3-n3-p1-T20-[0-9a-f]{8}, running on "
                        r"N2-K6-k3-n3-p1-T20-[0-9a-f]{8}", captured.err)
    assert bool(warning) == warns, captured.err
    assert warns or "warning" not in captured.err


# text that parses as JSON (or a checkpoint header) but that the flag's reader refuses;
# a second text names a key of a fixed env value, which is a module constant, not a field
REFUSED = {
    "--config": [('{"env": {"p_max_dbm": NaN}}', "ConfigError",
                  "EnvConfig.p_max_dbm must be finite, got nan"),
                 ('{"env": {"bandwidth_hz": 1e7}}', "ConfigError",
                  "unknown ConfigFile.env keys: bandwidth_hz")],
    "--norm-stats": [('{"Q": 2}', "ConfigError", "lacks weight_thresholds")],
    "--val-set": [('{"seeds": [1]}', "ConfigError", "lacks env_config, reference"),
                  ('{"env_config": {"default_weight": 0.0}, "seeds": [1], "reference": {}}',
                   "ConfigError", "unknown ValidationSet.env_config keys: default_weight")],
    "--env-set": [('{"seeds": [1]}', "ConfigError", "lacks env_config, reference")],
    "--checkpoint": [('{"in_dim": 24, "out_dim": 4, "hidden": 8.0, "activation": "tanh", '
                      '"step": 0, "param_order": [], "shapes": {}}\n', "ShapeMismatch",
                      "CheckpointHeader.hidden must be int, got 8.0")],
}


@pytest.fixture(scope="module")
def checkpoint_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "net.ckpt"
    save_checkpoint(path, Mlp(24, 4, 8, rng=np.random.default_rng(0)))
    return str(path)


@pytest.mark.parametrize("error", ["OSError", "JSONDecodeError", "non-UTF-8", "refused"])
@pytest.mark.parametrize("flag", REFUSED)
def test_file_errors_exit_2_in_one_line(flag, error, tiny_cfg_path, norm_stats_path,
                                        val_set_path, checkpoint_path, tmp_path, capsys,
                                        monkeypatch):
    """A missing file, a file that is not JSON, one that is not UTF-8 and one its
    reader refuses each give one "marlsched: error:" line and exit 2, for every
    file flag; the first three name the file's path, and a checkpoint is refused
    as its own shape error."""
    (text, refused_as, message), *more_refused = REFUSED[flag]
    more_refused = more_refused if error == "refused" else []
    bad = tmp_path / "bad"
    kind = {"--config": "config", "--norm-stats": "norm stats", "--val-set": "validation set",
            "--env-set": "validation set", "--checkpoint": "checkpoint"}[flag]
    if error == "JSONDecodeError":
        bad.write_text("{\n")
        message = (f"{kind} {bad} is not JSON: Expecting property name enclosed in "
                   "double quotes at byte 2")
    elif error == "non-UTF-8":
        bad.write_bytes(b"\xff\xfe{}\n")
        message = f"{kind} {bad} is not UTF-8: invalid start byte at byte 0"
    elif error == "refused":
        bad.write_text(text)
        error = refused_as
    else:
        message = f"No such file or directory: '{bad}'"
    if error in ("JSONDecodeError", "non-UTF-8"):
        error = "ShapeMismatch" if flag == "--checkpoint" else "ConfigError"
    files = {"--config": tiny_cfg_path, "--norm-stats": norm_stats_path,
             "--val-set": val_set_path, "--env-set": val_set_path,
             "--checkpoint": checkpoint_path, flag: str(bad)}
    stats = ["--norm-stats", files["--norm-stats"]]
    command = {"--config": ["baseline", "--kind", "tdm", "--num-envs", "1"],
               "--norm-stats": ["train", *stats, "--out", str(tmp_path / "run")],
               "--val-set": ["train", *stats, "--val-set", files["--val-set"],
                             "--out", str(tmp_path / "run")],
               "--env-set": ["evaluate", *stats, "--env-set", files["--env-set"],
                             "--checkpoint", files["--checkpoint"]],
               "--checkpoint": ["evaluate", *stats, "--num-envs", "1",
                                "--checkpoint", files["--checkpoint"]]}[flag]
    readers = {"OSError": OSError, "ConfigError": ConfigError, "ShapeMismatch": ShapeMismatch}

    def no_rollout(*args, **kwargs):
        raise AssertionError("rolled out past a bad file")

    def exits_2_in_one_line(error, message):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--config", files["--config"]])
        assert exc.value.code == 2
        assert isinstance(exc.value.__context__, readers[error])
        err = capsys.readouterr().err
        assert err.startswith("marlsched: error: ") and err.count("\n") == 1, err
        assert message in err, err

    monkeypatch.setattr(NetworkEnv, "reset", no_rollout)
    exits_2_in_one_line(error, message)
    for text, refused_as, message in more_refused:
        bad.write_text(text)
        exits_2_in_one_line(refused_as, message)


# each boundary file kind: the fixture holding a valid one, its reader, and the
# error that reader refuses a file with
READERS = {"config": ("tiny_cfg_path", load_configs, ConfigError),
           "norm stats": ("norm_stats_path", normalize.load_stats, ConfigError),
           "validation set": ("val_set_path", ValidationSet.load, ConfigError),
           "checkpoint": ("checkpoint_path", load_checkpoint, ShapeMismatch)}


@pytest.mark.parametrize("kind", READERS)
def test_damaged_files_are_read_or_refused_by_their_reader(kind, request, tmp_path_factory):
    """A valid file cut at any byte, or with any one byte overwritten, is read or
    refused with its reader's own error; no decode or other error escapes."""
    fixture, reader, refusal = READERS[kind]
    good = Path(request.getfixturevalue(fixture)).read_bytes()
    path = tmp_path_factory.mktemp("damaged") / "file"

    @settings(max_examples=100, deadline=None)
    @given(at=st.integers(0, len(good) - 1), byte=st.none() | st.integers(0, 255))
    def read_damaged(at, byte):
        path.write_bytes(good[:at] if byte is None else good[:at] + bytes([byte]) + good[at + 1:])
        try:
            reader(str(path))
        except refusal:
            pass

    read_damaged()
