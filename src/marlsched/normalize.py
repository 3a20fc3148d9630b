"""Percentile-based observation mapping and reward standardization.

Statistics are fitted offline on data collected while simple baseline
schedulers drive the environment, then frozen for training and evaluation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .env import DEFAULT_SINR_DB, DEFAULT_WEIGHT, EnvConfig, NetworkEnv, read_config
from .harness import BaselinePolicy, fresh_seeds, run_episode
from .topology import ConfigError, require


class DegenerateDataset(ValueError):
    """All collected values identical; collect more or richer episodes."""


@dataclass
class PercentileMapper:
    """Maps an entry to level fl(fl(k / Q) - 1/2), k in [0, Q] its bucket among its
    field's Q thresholds. ConfigError unless both fields hold Q >= 2 finite ascending
    numbers, first below last, so that they share one grid of levels."""

    weight_thresholds: np.ndarray   # (Q,) ascending empirical quantiles
    sinr_db_thresholds: np.ndarray  # (Q,)

    def __post_init__(self):
        for name in ("weight_thresholds", "sinr_db_thresholds"):
            check_thresholds(self, name, np.size(self.weight_thresholds))

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
    fl(fl((q+1) / Q) - 1/2). Values below the fitted minimum fall in bucket
    -1 and map to -1/2; values at or above the fitted maximum, and NaN, fall in
    bucket Q-1 and map to +1/2.
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
    if num_episodes < 1:
        raise ValueError(f"num_episodes must be at least 1, got {num_episodes}")
    policies = [BaselinePolicy(b) for b in baseline_names]
    weights, sinrs, rewards = [], [], []

    def record(obs, actions, rew, next_obs, t):
        w, s = obs[..., 0::2], obs[..., 1::2]
        keep = ~((w == DEFAULT_WEIGHT) & (s == DEFAULT_SINR_DB))
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

    def validate(self) -> None:
        """Raise ConfigError unless both threshold lists hold Q ascending numbers whose
        first is below their last, as fit makes them, and sigma_rew is positive."""
        require(self, ">= 1", "Q")
        for name in ("weight_thresholds", "sinr_db_thresholds"):
            check_thresholds(self, name, self.Q)
        require(self, "> 0", "sigma_rew")


def check_thresholds(owner, name: str, q: int) -> None:
    """Raise ConfigError unless owner.name is Q >= 2 finite ascending numbers,
    first below last: a grid that map_observation buckets correctly."""
    values = np.asarray(getattr(owner, name), dtype=float)
    if (q < 2 or values.shape != (q,) or not np.all(np.isfinite(values))
            or np.any(np.diff(values) < 0) or not values[0] < values[-1]):
        raise ConfigError(f"{type(owner).__name__}.{name} must be Q = {q} finite "
                          f"ascending numbers, first below last, got {values}")


def save_stats(path, mapper: PercentileMapper, normalizer: RewardNormalizer,
               config_fingerprint: str) -> None:
    stats = StatsFile(len(mapper.weight_thresholds), mapper.weight_thresholds.tolist(),
                      mapper.sinr_db_thresholds.tolist(), normalizer.mu,
                      normalizer.sigma, config_fingerprint)
    with open(path, "w") as f:
        json.dump(asdict(stats), f, indent=2)


def load_stats(path):
    """Read save_stats output back into (mapper, normalizer, config_fingerprint).

    Raises ConfigError when read_config refuses the file: bytes that are not
    UTF-8 JSON, or, naming the field, one missing or wrongly typed, a number
    non-finite, thresholds included, or a value StatsFile.validate refuses.
    """
    with open(path, "rb") as f:
        stats = read_config(StatsFile, f.read(), f"norm stats {path}")
    mapper = PercentileMapper(np.asarray(stats.weight_thresholds),
                              np.asarray(stats.sinr_db_thresholds))
    return mapper, RewardNormalizer(stats.mu_rew, stats.sigma_rew), stats.config_fingerprint
