"""Percentile-based observation mapping and reward standardization.

Statistics are fitted offline on data collected while simple baseline
schedulers drive the environment, then frozen for training and evaluation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .baselines import get_baseline
from .env import EnvConfig, NetworkEnv


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

    Values below the fitted minimum map to -1/2, values at or above the
    fitted maximum to +1/2, and a value in bucket q (thresholds[q] <= v <
    thresholds[q+1]) maps to (q+1)/Q - 1/2.
    """
    thresholds = np.asarray(thresholds)
    q_levels = len(thresholds)
    v = np.asarray(values, dtype=float)
    bucket = np.searchsorted(thresholds, v, side="right") - 1
    out = (bucket + 1) / q_levels - 0.5
    out = np.where(v < thresholds[0], -0.5, out)
    out = np.where(v >= thresholds[-1], 0.5, out)
    return float(out) if out.ndim == 0 else out


@dataclass
class OfflineDataset:
    weights: np.ndarray   # raw weight entries, padding excluded
    sinr_db: np.ndarray   # raw SINR entries in dB, padding excluded
    rewards: np.ndarray   # raw per-interval rewards, all agents


def collect_offline_dataset(env_config: EnvConfig, baseline_names: list[str],
                            num_episodes: int, rng: np.random.Generator) -> OfflineDataset:
    """Run baselines over fresh environment realizations, recording raw data.

    Default-valued observation entries (structural padding and the
    pre-first-report defaults) are excluded: they are not measurements and
    would distort the quantiles.
    """
    if not baseline_names:
        raise ValueError("need at least one baseline")
    deciders = [get_baseline(b) for b in baseline_names]
    weights, sinrs, rewards = [], [], []
    env = NetworkEnv(env_config)
    for _ in range(num_episodes):
        for decide in deciders:
            obs = env.reset(int(rng.integers(2 ** 63)))
            mask = env._last_obs_mask
            done = False
            while not done:
                w, s = obs[..., 0::2], obs[..., 1::2]
                keep = (~mask[..., 0::2]) & ~((w == env_config.default_weight)
                                              & (s == env_config.default_sinr_db))
                weights.append(w[keep])
                sinrs.append(s[keep])
                obs, rew, done, info = env.step_decisions(decide(env))
                rewards.append(rew)
                if not done:
                    mask = env._last_obs_mask
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

def save_stats(path, mapper: PercentileMapper, normalizer: RewardNormalizer,
               config_fingerprint: str) -> None:
    payload = {
        "Q": mapper.num_levels,
        "weight_thresholds": mapper.weight_thresholds.tolist(),
        "sinr_db_thresholds": mapper.sinr_db_thresholds.tolist(),
        "mu_rew": normalizer.mu,
        "sigma_rew": normalizer.sigma,
        "config_fingerprint": config_fingerprint,
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)


def load_stats(path):
    with open(path) as f:
        payload = json.load(f)
    mapper = PercentileMapper(
        weight_thresholds=np.asarray(payload["weight_thresholds"]),
        sinr_db_thresholds=np.asarray(payload["sinr_db_thresholds"]))
    normalizer = RewardNormalizer(mu=payload["mu_rew"], sigma=payload["sigma_rew"])
    return mapper, normalizer, payload.get("config_fingerprint", "")
