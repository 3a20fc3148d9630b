import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from marlsched.env import ConfigError, EnvConfig
from marlsched.normalize import (
    DegenerateDataset, OfflineDataset, PercentileMapper, RewardNormalizer,
    collect_offline_dataset, fit, load_stats, map_observation, save_stats,
)
from marlsched.topology import DeploymentConfig


def tiny_config():
    return EnvConfig(deployment=DeploymentConfig(num_aps=2, num_ues=6),
                     episode_length=40)


# -------------------------------------------------------------- map_observation

def test_endpoints_q2():
    thr = np.array([0.0, 1.0])
    assert map_observation(-0.5, thr) == -0.5
    assert map_observation(0.0, thr) == 0.0       # first bucket -> 1/2 - 1/2
    assert map_observation(0.5, thr) == 0.0
    assert map_observation(1.0, thr) == 0.5
    assert map_observation(2.0, thr) == 0.5


def test_uniform_thresholds_interior_levels():
    q = 20
    thr = np.linspace(0.0, 1.0, q)
    vals = (thr[:-1] + thr[1:]) / 2               # one value per interior bucket
    mapped = map_observation(vals, thr)
    expect = (np.arange(q - 1) + 1) / q - 0.5
    assert np.allclose(mapped, expect)


def test_output_alphabet_size():
    thr = np.sort(np.random.default_rng(0).normal(size=20))
    vals = np.random.default_rng(1).normal(scale=3, size=20_000)
    levels = np.unique(map_observation(vals, thr))
    assert len(levels) <= 21
    assert levels.min() == -0.5 and levels.max() == 0.5


@given(st.floats(-100, 100), st.floats(-100, 100))
def test_mapping_is_monotone(a, b):
    thr = np.linspace(-10, 10, 20)
    lo, hi = sorted((a, b))
    assert map_observation(lo, thr) <= map_observation(hi, thr)


def test_mapping_bounded():
    thr = np.linspace(0, 1, 20)
    vals = np.random.default_rng(2).normal(scale=100, size=1000)
    out = map_observation(vals, thr)
    assert np.all(out >= -0.5) and np.all(out <= 0.5)


# ------------------------------------------------------------------------- fit

def _synthetic(rng, n=50_000):
    return OfflineDataset(weights=rng.gamma(2.0, 5.0, n),
                          sinr_db=rng.normal(10, 8, n),
                          rewards=rng.normal(5.0, 2.0, n))


def test_fit_equalizes_bucket_masses():
    rng = np.random.default_rng(3)
    ds = _synthetic(rng)
    mapper, _ = fit(ds, 20)
    mapped = mapper.map_weights(ds.weights)
    levels, counts = np.unique(mapped, return_counts=True)
    interior = counts[(levels > -0.5) & (levels < 0.5)] / len(ds.weights)
    assert np.all(np.abs(interior - 1 / 20) < 0.01)


def test_fit_standardizes_rewards():
    rng = np.random.default_rng(4)
    ds = _synthetic(rng)
    _, rnorm = fit(ds, 20)
    z = rnorm.normalize(ds.rewards)
    assert abs(z.mean()) < 1e-9
    assert z.std() == pytest.approx(1.0, abs=1e-9)
    # and the known N(5, 2) parameters are recovered approximately
    assert rnorm.mu == pytest.approx(5.0, abs=0.05)
    assert rnorm.sigma == pytest.approx(2.0, abs=0.05)


def test_fit_thresholds_are_sorted_quantiles():
    rng = np.random.default_rng(5)
    ds = _synthetic(rng, n=10_000)
    mapper, _ = fit(ds, 20)
    assert np.all(np.diff(mapper.weight_thresholds) >= 0)
    assert mapper.weight_thresholds[0] == ds.weights.min()
    assert mapper.weight_thresholds[-1] == ds.weights.max()
    assert mapper.sinr_db_thresholds[10] == pytest.approx(
        np.quantile(ds.sinr_db, 10 / 19))


def test_fit_rejects_degenerate_data():
    flat = OfflineDataset(weights=np.ones(100), sinr_db=np.arange(100.0),
                          rewards=np.arange(100.0))
    with pytest.raises(DegenerateDataset):
        fit(flat, 20)
    const_rew = OfflineDataset(weights=np.arange(100.0), sinr_db=np.arange(100.0),
                               rewards=np.ones(100))
    with pytest.raises(DegenerateDataset):
        fit(const_rew, 20)
    empty = OfflineDataset(weights=np.empty(0), sinr_db=np.empty(0),
                           rewards=np.empty(0))
    with pytest.raises(DegenerateDataset):
        fit(empty, 20)


def test_fit_is_deterministic():
    rng = np.random.default_rng(6)
    ds = _synthetic(rng, n=5000)
    m1, r1 = fit(ds, 20)
    m2, r2 = fit(ds, 20)
    assert np.array_equal(m1.weight_thresholds, m2.weight_thresholds)
    assert (r1.mu, r1.sigma) == (r2.mu, r2.sigma)


def test_reward_normalizer_rejects_zero_sigma():
    with pytest.raises(ValueError):
        RewardNormalizer(mu=0.0, sigma=0.0)


# ------------------------------------------------------------------ collection

def test_collect_sample_counts():
    cfg = tiny_config()
    ds = collect_offline_dataset(cfg, ["full_reuse"], 2, np.random.default_rng(7))
    # one reward per agent per interval per episode
    assert len(ds.rewards) == 2 * cfg.episode_length * 2
    # entries per step is at most N * obs_dim / 2 (padding excluded)
    assert len(ds.weights) <= 2 * cfg.episode_length * 2 * cfg.obs_dim // 2
    assert len(ds.weights) == len(ds.sinr_db)
    assert len(ds.weights) > 0


def test_collect_multiple_baselines_stack():
    cfg = tiny_config()
    ds1 = collect_offline_dataset(cfg, ["full_reuse"], 1, np.random.default_rng(8))
    ds2 = collect_offline_dataset(cfg, ["full_reuse", "tdm"], 1,
                                  np.random.default_rng(8))
    assert len(ds2.rewards) == 2 * len(ds1.rewards)


def test_collect_rejects_empty_baseline_list():
    with pytest.raises(ValueError):
        collect_offline_dataset(tiny_config(), [], 1, np.random.default_rng(9))


def test_collected_data_fits_cleanly():
    cfg = tiny_config()
    ds = collect_offline_dataset(cfg, ["full_reuse", "tdm"], 2,
                                 np.random.default_rng(10))
    mapper, rnorm = fit(ds, 20)
    z = rnorm.normalize(ds.rewards)
    assert abs(z.mean()) < 1e-9 and z.std() == pytest.approx(1.0, abs=1e-9)
    mapped = mapper.map_observation_vector(np.array([ds.weights[0], ds.sinr_db[0]]))
    assert -0.5 <= mapped[0] <= 0.5 and -0.5 <= mapped[1] <= 0.5


def test_map_observation_vector_interleaving():
    mapper = PercentileMapper(weight_thresholds=np.linspace(0, 1, 20),
                              sinr_db_thresholds=np.linspace(-60, 40, 20))
    obs = np.array([0.5, -70.0, 2.0, 40.0])
    out = mapper.map_observation_vector(obs)
    assert out[0] == map_observation(0.5, mapper.weight_thresholds)
    assert out[1] == -0.5          # below the fitted minimum SINR
    assert out[2] == 0.5           # above fitted max weight
    assert out[3] == 0.5


# ----------------------------------------------------------------- persistence

def test_stats_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    ds = _synthetic(rng, n=2000)
    mapper, rnorm = fit(ds, 20)
    path = tmp_path / "norm.json"
    save_stats(path, mapper, rnorm, "N2-K6")
    m2, r2, fp = load_stats(path)
    assert np.array_equal(mapper.weight_thresholds, m2.weight_thresholds)
    assert np.array_equal(mapper.sinr_db_thresholds, m2.sinr_db_thresholds)
    assert (rnorm.mu, rnorm.sigma) == (r2.mu, r2.sigma)
    assert fp == "N2-K6"


def _break(payload, key, value):
    if value is None:
        del payload[key]
    else:
        payload[key] = value(payload[key]) if callable(value) else value


@pytest.mark.parametrize("key, value, field", [
    ("weight_thresholds", None, "weight_thresholds"),
    ("sinr_db_thresholds", None, "sinr_db_thresholds"),
    ("weight_thresholds", [], "weight_thresholds"),
    ("sinr_db_thresholds", lambda a: a[:-1] + [float("nan")], "sinr_db_thresholds"),
    ("weight_thresholds", lambda a: a[:-1] + [float("inf")], "weight_thresholds"),
    ("weight_thresholds", lambda a: a[::-1], "weight_thresholds"),
    ("sinr_db_thresholds", lambda a: a[::-1], "sinr_db_thresholds"),
    ("sinr_db_thresholds", lambda a: a[:-1], "Q"),
    ("Q", 19, "Q"),
    ("mu_rew", None, "mu_rew"),
    ("mu_rew", float("nan"), "mu_rew"),
    ("sigma_rew", None, "sigma_rew"),
    ("sigma_rew", float("inf"), "sigma_rew"),
    ("config_fingerprint", None, "config_fingerprint"),
    ("weight_thresholds", lambda a: [str(x) for x in a], r"weight_thresholds\[0\]"),
], ids=["weights-missing", "sinr-missing", "weights-empty", "sinr-nan", "weights-inf",
        "weights-descending", "sinr-descending", "lengths-differ", "q-differs",
        "mu-missing", "mu-nan", "sigma-missing", "sigma-inf", "fingerprint-missing",
        "weights-strings"])
def test_load_stats_names_the_broken_field(tmp_path, key, value, field):
    mapper, rnorm = fit(_synthetic(np.random.default_rng(11), n=2000), 20)
    path = tmp_path / "norm.json"
    save_stats(path, mapper, rnorm, "N2-K6")
    payload = json.loads(path.read_text())
    _break(payload, key, value)
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=field):
        load_stats(path)
