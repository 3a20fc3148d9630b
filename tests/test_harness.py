import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from marlsched.env import ConfigError, EnvConfig, NetworkEnv
from marlsched.harness import (
    BaselinePolicy, EpisodeMetrics, InsufficientCandidates, RandomPolicy,
    ValidationSet, build_validation_set, dominates,
    evaluate_policy, fresh_seeds, export_decision_log, interference_profile, metrics_to_csv,
    pct5_rate, run_episode,
)
from marlsched.topology import DeploymentConfig


def tiny_config(episode_length=40, n_aps=2, k_ues=6):
    return EnvConfig(deployment=DeploymentConfig(num_aps=n_aps, num_ues=k_ues),
                     episode_length=episode_length)


# --------------------------------------------------------------------- metrics

def test_pct5_small_population_is_minimum():
    # with K < 20 the 5%-outage threshold is the smallest rate
    assert pct5_rate(np.array([3.0, 1.0, 2.0])) == 1.0
    assert pct5_rate(np.arange(19.0) + 1) == 1.0


def test_pct5_k20_is_second_smallest():
    rates = np.arange(20.0)          # 0..19
    assert pct5_rate(rates) == 1.0   # (5*20)//100 + 1 = 2nd smallest


def test_pct5_k40_is_third_smallest():
    rates = np.arange(40.0) + 5
    assert pct5_rate(rates) == 7.0


def test_pct5_matches_bruteforce_definition():
    # largest threshold r such that #{rates < r} <= 5% of K
    rng = np.random.default_rng(0)
    for k in (6, 20, 24, 37, 100):
        rates = rng.uniform(0, 10, k)
        got = pct5_rate(rates)
        below = np.sum(rates < got)
        assert below <= 0.05 * k
        above = np.sort(rates)[np.searchsorted(np.sort(rates), got, "right"):]
        if len(above):
            assert np.sum(rates < above[0]) > 0.05 * k


def test_episode_metrics_arithmetic():
    rates = np.array([1.0, 2.0, 3.0, 4.0])     # bps/Hz, 10 MHz band
    m = EpisodeMetrics.from_rates(rates, 10e6)
    assert m.sum_rate_mbps == pytest.approx(100.0)
    assert m.pct5_mbps == pytest.approx(10.0)
    assert m.score == pytest.approx(100.0 / 4 + 3 * 10.0)


def _metrics(sum_mbps, p5_mbps):
    return EpisodeMetrics(sum_rate_mbps=sum_mbps, pct5_mbps=p5_mbps, score=0)


def test_dominates_cases():
    assert dominates(_metrics(10, 2), _metrics(9, 1))
    assert dominates(_metrics(10, 2), _metrics(10, 1))
    assert not dominates(_metrics(10, 2), _metrics(10, 2))     # equal
    assert not dominates(_metrics(10, 1), _metrics(9, 2))      # trade-off
    assert not dominates(_metrics(9, 1), _metrics(10, 2))


# --------------------------------------------------------------------- rollout

def test_run_episode_returns_average_rates():
    cfg = tiny_config()
    envs = [NetworkEnv(cfg)]
    rates = run_episode(envs, [3], BaselinePolicy("full_reuse"))
    assert rates.shape == (1, 6)
    assert np.all(rates >= 0) and rates.sum() > 0
    assert envs[0].done


def test_run_episode_on_step():
    cfg = tiny_config(episode_length=10)
    envs = [NetworkEnv(cfg)]
    for policy in (RandomPolicy(seed=1), BaselinePolicy("itlinq")):
        calls = []
        rates = run_episode(envs, [4], policy, lambda *args: calls.append(args))
        assert [t for *_, t in calls] == list(range(1, 11))
        for (obs, actions, rewards, next_obs, t), later in zip(calls, calls[1:] + [None]):
            assert obs.shape == (1, 2, cfg.obs_dim)
            assert rewards.shape == (1, 2)
            if policy.kind == "actions":
                assert actions.shape == (1, 2)
                assert np.all((0 <= actions) & (actions < cfg.num_actions))
            else:
                assert [len(decisions) for decisions in actions] == [2]
            # each interval starts from the object its predecessor handed on
            assert next_obs is None if later is None else next_obs is later[0]
        assert np.array_equal(rates, [envs[0].average_rates()])


@pytest.mark.parametrize("name", ["full_reuse", "tdm", "itlinq"])
def test_lockstep_episode_matches_single_environment_runs(name):
    cfg, seeds = tiny_config(episode_length=25), [11, 12, 13]
    policy = BaselinePolicy(name)

    def run(envs, env_seeds):
        calls = []
        rates = run_episode(envs, env_seeds, policy, lambda *args: calls.append(args))
        assert [t for *_, t in calls] == list(range(1, 26))
        assert [next_obs is None for _, _, _, next_obs, _ in calls] == [False] * 24 + [True]
        return rates, np.stack([rewards for _, _, rewards, _, _ in calls], axis=1)

    rates, rewards = run([NetworkEnv(cfg) for _ in seeds], seeds)
    single = [run([NetworkEnv(cfg)], [s]) for s in seeds]
    assert rates.shape == (3, 6) and rewards.shape == (3, 25, 2)
    assert np.array_equal(rates, np.concatenate([r for r, _ in single]))
    assert np.array_equal(rewards, np.concatenate([w for _, w in single]))


@pytest.mark.parametrize("name", ["full_reuse", "tdm", "itlinq"])
def test_rates_only_episode_gives_the_feedback_episode_rates(name):
    """Without on_step a baseline episode makes no reports, rewards or
    observations; its average rates keep every bit of a feedback episode's."""
    envs, policy = [NetworkEnv(tiny_config(episode_length=45))], BaselinePolicy(name)
    rates_only = run_episode(envs, [14], policy)
    assert envs[0].feedback is False
    steps = []
    feedback = run_episode(envs, [14], policy, lambda *args: steps.append(args[4]))
    assert envs[0].feedback is True and steps == list(range(1, 46))
    assert rates_only.tobytes() == feedback.tobytes()


def test_evaluate_policy_aggregation():
    cfg = tiny_config()
    out = evaluate_policy(cfg, BaselinePolicy("full_reuse"), seeds=[0, 1, 2])
    sums = [m.sum_rate_mbps for m in out["per_env"]]
    p5s = [m.pct5_mbps for m in out["per_env"]]
    assert out["sum_rate_mbps"] == pytest.approx(np.mean(sums))
    assert out["pct5_mbps"] == pytest.approx(np.mean(p5s))
    assert out["score"] == pytest.approx(np.mean(sums) / 6 + 3 * np.mean(p5s))
    assert out["sum_rate_mbps_std"] == pytest.approx(np.std(sums))


def test_evaluate_policy_deterministic():
    cfg = tiny_config()
    a = evaluate_policy(cfg, BaselinePolicy("tdm"), seeds=[5, 6])
    b = evaluate_policy(cfg, BaselinePolicy("tdm"), seeds=[5, 6])
    assert a["sum_rate_mbps"] == b["sum_rate_mbps"]
    assert a["pct5_mbps"] == b["pct5_mbps"]


def test_tdm_service_share():
    # every UE is served once per K intervals, so all average rates are positive
    cfg = tiny_config(episode_length=60)
    rates = run_episode([NetworkEnv(cfg)], [7], BaselinePolicy("tdm"))
    assert np.all(rates > 0)


@pytest.mark.parametrize("seed, count", [(0, 5), (123, 1), (7, 0)])
def test_fresh_seeds_from_an_int_or_a_generator(seed, count):
    rng = np.random.default_rng(seed)
    drawn = [int(rng.integers(2 ** 63)) for _ in range(count)]
    assert fresh_seeds(seed, count) == fresh_seeds(np.random.default_rng(seed), count) == drawn
    assert all(type(s) is int and 0 <= s < 2 ** 63 for s in drawn)


def test_fresh_seeds_advance_a_generator():
    rng = np.random.default_rng(4)
    assert fresh_seeds(rng, 2) + fresh_seeds(rng, 3) == fresh_seeds(4, 5)


# -------------------------------------------------------------- validation set

def test_build_validation_set_accepts_typical_seeds():
    cfg = tiny_config(episode_length=20)
    vs = build_validation_set(cfg, target_count=3, population_size=12,
                              tolerance=0.8, rng=np.random.default_rng(8))
    assert len(vs.seeds) == 3
    means = vs.reference.population_means
    for row in vs.reference.accepted:
        for name in ("full_reuse", "tdm"):
            for key in ("sum_rate_mbps", "pct5_mbps"):
                mean = means[name][key]
                assert abs(row[name][key] - mean) <= 0.8 * abs(mean) + 1e-12


def test_build_validation_set_zero_tolerance_fails():
    cfg = tiny_config(episode_length=20)
    with pytest.raises(InsufficientCandidates):
        build_validation_set(cfg, target_count=2, population_size=6,
                             tolerance=0.0, rng=np.random.default_rng(9))


def test_build_validation_set_population_check():
    with pytest.raises(ValueError):
        build_validation_set(tiny_config(), 5, 3, 0.5, np.random.default_rng(10))


def test_validation_set_roundtrip(tmp_path):
    cfg = tiny_config(episode_length=20)
    vs = build_validation_set(cfg, target_count=2, population_size=8,
                              tolerance=0.9, rng=np.random.default_rng(11))
    path = tmp_path / "val.json"
    vs.save(path)
    again = ValidationSet.load(path)
    assert again.seeds == vs.seeds
    assert again.env_config == vs.env_config
    assert again.reference == vs.reference


REFERENCE = {"population_means": {"tdm": {"sum_rate_mbps": 90.0, "pct5_mbps": 2.0}},
             "tolerance": 0.05, "accepted": [{"tdm": {"sum_rate_mbps": 91.0, "pct5_mbps": 2.0}}]}


@pytest.mark.parametrize("missing", [["env_config"], ["seeds"], ["reference"],
                                     ["env_config", "seeds", "reference"]])
def test_validation_set_names_missing_fields(missing):
    d = {"env_config": asdict(tiny_config()), "seeds": [1, 2], "reference": {}}
    for key in missing:
        del d[key]
    with pytest.raises(ConfigError) as exc:
        ValidationSet.from_dict(d)
    assert all(key in str(exc.value) for key in missing)


@pytest.mark.parametrize("seeds", [[1.7], "12", ["a"], [True], [], [-1], None, 7],
                         ids=["float", "string", "str-list", "bool", "empty", "negative",
                              "null", "int"])
def test_validation_set_rejects_malformed_seeds(seeds):
    d = {"env_config": asdict(tiny_config()), "seeds": seeds, "reference": REFERENCE}
    with pytest.raises(ConfigError, match="seeds"):
        ValidationSet.from_dict(d)


@pytest.mark.parametrize("reference, message", [
    ({**REFERENCE, "tolerance": float("nan")}, "ValidationReference.tolerance must be finite"),
    ({**REFERENCE, "population_means": "oops"},
     "ValidationReference.population_means must be dict, got 'oops'"),
    ({**REFERENCE, "accepted": [{"tdm": {"sum_rate_mbps": 91.0, "pct5_mbps": float("inf")}}]},
     "ValidationReference.accepted[0]['tdm']['pct5_mbps'] must be finite, got inf"),
], ids=["nan-tolerance", "string-means", "infinite-accepted"])
def test_validation_set_refuses_a_malformed_reference(reference, message, tmp_path):
    path = tmp_path / "val.json"
    path.write_text(json.dumps({"env_config": asdict(tiny_config()), "seeds": [1],
                                "reference": reference}))
    with pytest.raises(ConfigError, match=re.escape(message)):
        ValidationSet.load(path)


def test_validation_set_refuses_a_non_finite_env_config(tmp_path):
    path = tmp_path / "val.json"
    env_config = {**asdict(tiny_config()), "p_max_dbm": float("nan")}
    path.write_text(json.dumps({"env_config": env_config, "seeds": [1], "reference": {}}))
    with pytest.raises(ConfigError, match="EnvConfig.p_max_dbm must be finite"):
        ValidationSet.load(path)


# ------------------------------------------------------------------- analyses

def test_interference_profile_shape_and_zero_case():
    cfg = tiny_config()
    prof = interference_profile(cfg, n_values=[0, 1], num_realizations=3,
                                rng=np.random.default_rng(12))
    assert set(prof) == {0, 1}
    # with no interferers the SINR is an SNR, strictly larger on average
    assert prof[0] > prof[1]


def test_interference_profile_non_increasing():
    cfg = EnvConfig(deployment=DeploymentConfig(num_aps=4, num_ues=12),
                    episode_length=10)
    prof = interference_profile(cfg, n_values=[0, 1, 2, 3], num_realizations=4,
                                rng=np.random.default_rng(13))
    vals = [prof[n] for n in (0, 1, 2, 3)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_export_decision_log(tmp_path):
    import csv
    cfg = tiny_config(episode_length=8)
    path = tmp_path / "log.csv"
    rows = export_decision_log(cfg, RandomPolicy(seed=2), seeds=[0, 1], path=path)
    assert rows == 2 * 8 * 2                    # seeds * T * agents
    with open(path) as f:
        read = list(csv.DictReader(f))
    assert len(read) == rows
    for r in read:
        assert 0 <= int(r["action"]) < cfg.num_actions
        assert float(r["pf_local_1"]) >= 0


def test_export_decision_log_rejects_decision_policy(tmp_path):
    with pytest.raises(ValueError):
        export_decision_log(tiny_config(), BaselinePolicy("tdm"), [0],
                            tmp_path / "x.csv")


def test_metrics_to_csv(tmp_path):
    import csv
    path = tmp_path / "m.csv"
    metrics_to_csv(path, [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5}])
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert rows == [{"a": "1", "b": "2.5"}, {"a": "3", "b": "4.5"}]
    with pytest.raises(ValueError):
        metrics_to_csv(path, [])
