"""Percentile-based observation mapping and reward standardization.

Statistics are fitted offline on data collected while simple baseline
schedulers drive the environment, then frozen for training and evaluation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .env import ConfigError, EnvConfig, NetworkEnv, read_config
from .harness import BaselinePolicy, fresh_seeds, run_episode


class DegenerateDataset(ValueError):
    """All collected values identical; collect more or richer episodes."""


@dataclass
class PercentileMapper:
    weight_thresholds: np.ndarray   # (Q,) ascending empirical quantiles
    sinr_db_thresholds: np.ndarray  # (Q,)

    @property
    def num_levels(self) -> int:
        return len(self.weight_thresholds)

    def map_weights(self, values):
        return map_observation(values, self.weight_thresholds)

    def map_sinr_db(self, values):
        return map_observation(values, self.sinr_db_thresholds)

    def map_observation_vector(self, obs: np.ndarray) -> np.ndarray:
        """Map an interleaved (weight, sinr_db) observation array elementwise."""
        out = np.empty_like(np.asarray(obs, dtype=float))
        out[..., 0::2] = self.map_weights(obs[..., 0::2])
        out[..., 1::2] = self.map_sinr_db(obs[..., 1::2])
        return out


@dataclass
class RewardNormalizer:
    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    def normalize(self, r):
        return (np.asarray(r) - self.mu) / self.sigma


def map_observation(values, thresholds):
    """Quantile-bucket mapping onto the Q+1 levels in [-1/2, +1/2].

    A value in bucket q (thresholds[q] <= v < thresholds[q+1]) maps to
    (q+1)/Q - 1/2. Values below the fitted minimum fall in bucket -1 and map
    to -1/2; values at or above the fitted maximum, and NaN, fall in bucket
    Q-1 and map to +1/2.
    """
    thresholds = np.asarray(thresholds)
    v = np.asarray(values, dtype=float)
    out = np.searchsorted(thresholds, v, side="right") / len(thresholds) - 0.5
    return float(out) if out.ndim == 0 else out


@dataclass
class OfflineDataset:
    weights: np.ndarray   # raw weight entries, padding excluded
    sinr_db: np.ndarray   # raw SINR entries in dB, padding excluded
    rewards: np.ndarray   # raw per-interval rewards, all agents


def collect_offline_dataset(env_config: EnvConfig, baseline_names: list[str],
                            num_episodes: int,
                            rng: int | np.random.Generator) -> OfflineDataset:
    """Run baselines over fresh environment realizations, recording raw data.

    Default-valued observation entries (structural padding, which gathers the
    default pair, and the pre-first-report defaults) are excluded: they are
    not measurements and would distort the quantiles.
    """
    if not baseline_names:
        raise ValueError("need at least one baseline")
    policies = [BaselinePolicy(b) for b in baseline_names]
    weights, sinrs, rewards = [], [], []

    def record(obs, actions, rew, next_obs, t):
        w, s = obs[..., 0::2], obs[..., 1::2]
        keep = ~((w == env_config.default_weight) & (s == env_config.default_sinr_db))
        weights.append(w[keep])
        sinrs.append(s[keep])
        rewards.append(rew.ravel())

    envs = [NetworkEnv(env_config)]
    for seed, policy in zip(fresh_seeds(rng, num_episodes * len(policies)),
                            policies * num_episodes):
        run_episode(envs, [seed], policy, record)
    return OfflineDataset(weights=np.concatenate(weights),
                          sinr_db=np.concatenate(sinrs),
                          rewards=np.concatenate(rewards))


def fit(dataset: OfflineDataset, q_levels: int):
    """Empirical quantile thresholds and reward statistics from the dataset."""
    if q_levels < 2:
        raise ValueError("need at least two percentile levels")
    if len(dataset.rewards) == 0 or len(dataset.weights) == 0:
        raise DegenerateDataset("empty dataset")
    probs = np.linspace(0.0, 1.0, q_levels)
    w_thr = np.quantile(dataset.weights, probs)
    s_thr = np.quantile(dataset.sinr_db, probs)
    sigma = float(np.std(dataset.rewards))
    if w_thr[0] == w_thr[-1] or s_thr[0] == s_thr[-1] or sigma == 0.0:
        raise DegenerateDataset("collected values are constant")
    return (PercentileMapper(weight_thresholds=w_thr, sinr_db_thresholds=s_thr),
            RewardNormalizer(mu=float(np.mean(dataset.rewards)), sigma=sigma))


# ----------------------------------------------------------------- persistence

@dataclass
class StatsFile:
    """The norm-stats JSON object, as save_stats writes it."""

    Q: int
    weight_thresholds: list[float]
    sinr_db_thresholds: list[float]
    mu_rew: float
    sigma_rew: float
    config_fingerprint: str


def save_stats(path, mapper: PercentileMapper, normalizer: RewardNormalizer,
               config_fingerprint: str) -> None:
    stats = StatsFile(mapper.num_levels, mapper.weight_thresholds.tolist(),
                      mapper.sinr_db_thresholds.tolist(), normalizer.mu,
                      normalizer.sigma, config_fingerprint)
    with open(path, "w") as f:
        json.dump(asdict(stats), f, indent=2)


def load_stats(path):
    """Read save_stats output back into (mapper, normalizer, config_fingerprint).

    Raises ConfigError naming the field when read_config refuses the file
    (a field missing or wrongly typed, a number non-finite, thresholds included),
    when a threshold array is empty or descending, when the two arrays (and Q)
    disagree in length, or when sigma_rew is not positive.
    """
    with open(path, encoding="utf-8") as f:
        stats = read_config(StatsFile, json.load(f), f"norm stats {path}")
    thresholds = {name: _stats_array(getattr(stats, name), name)
                  for name in ("weight_thresholds", "sinr_db_thresholds")}
    q, q_sinr = (len(a) for a in thresholds.values())
    if q_sinr != q or stats.Q != q:
        raise ConfigError(f"Q: weight_thresholds has {q} levels, sinr_db_thresholds "
                          f"{q_sinr}, Q is {stats.Q}")
    if not stats.sigma_rew > 0:
        raise ConfigError(f"sigma_rew must be positive, got {stats.sigma_rew}")
    return (PercentileMapper(**thresholds), RewardNormalizer(stats.mu_rew, stats.sigma_rew),
            stats.config_fingerprint)


def _stats_array(values: list[float], name):
    """A non-empty, ascending threshold array from a list read_config has checked."""
    a = np.asarray(values)
    if a.size == 0:
        raise ConfigError(f"{name} must be a non-empty list of numbers")
    if np.any(np.diff(a) < 0):
        raise ConfigError(f"{name} must be ascending")
    return a
