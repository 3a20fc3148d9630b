"""Metrics, validation environments, evaluation runs and analysis exports."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import baselines as bl
from . import linklevel, topology
from .env import ConfigError, EnvConfig, NetworkEnv, draw_layout


class InsufficientCandidates(RuntimeError):
    """Too few realizations fell inside the validation acceptance band."""


# -------------------------------------------------------------------- metrics

def pct5_rate(avg_rates: np.ndarray) -> float:
    """Largest rate threshold met by at least 95% of UEs (order statistic)."""
    rates = np.sort(np.asarray(avg_rates))
    m = (5 * len(rates)) // 100 + 1          # m-th smallest value
    return float(rates[m - 1])


@dataclass
class EpisodeMetrics:
    sum_rate_mbps: float
    pct5_mbps: float
    score: float     # sum_rate_mbps / K + 3 * pct5_mbps

    @classmethod
    def from_rates(cls, avg_rates: np.ndarray, bandwidth_hz: float) -> "EpisodeMetrics":
        s = float(np.sum(avg_rates))
        p5 = pct5_rate(avg_rates)
        mbps = bandwidth_hz / 1e6
        return cls(sum_rate_mbps=s * mbps, pct5_mbps=p5 * mbps,
                   score=s * mbps / len(avg_rates) + 3.0 * p5 * mbps)


def dominates(a: EpisodeMetrics, b: EpisodeMetrics) -> bool:
    """Pareto dominance on (sum_rate_mbps, pct5_mbps); other fields are unused."""
    ge = a.sum_rate_mbps >= b.sum_rate_mbps and a.pct5_mbps >= b.pct5_mbps
    strict = a.sum_rate_mbps > b.sum_rate_mbps or a.pct5_mbps > b.pct5_mbps
    return ge and strict


# -------------------------------------------------------------------- rollout

class BaselinePolicy:
    """Adapter turning a baseline decider into a rollout policy."""

    kind = "decisions"

    def __init__(self, name: str):
        self.name = name
        self._decide = bl.get_baseline(name)

    def act(self, env: NetworkEnv, obs):
        return self._decide(env)


class RandomPolicy:
    """Uniform random actions over the discrete action space."""

    kind = "actions"

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)

    def act(self, env: NetworkEnv, obs):
        return self.rng.integers(0, env.config.num_actions,
                                 size=env.deployment.num_aps)


def run_episode(env: NetworkEnv, seed: int, policy, on_step=None):
    """Roll one full episode; returns the per-UE time-average rates.

    This is the one per-episode stepping loop. on_step(obs, actions, rewards,
    info), if given, is called once per interval with the observations the
    policy acted on, its actions (None for a decision policy), the rewards
    and the step's info (info["t"] is the interval). Decision policies skip
    observation building for speed unless on_step is given.
    """
    build_obs = on_step is not None
    obs = env.reset(seed)
    done = False
    while not done:
        if policy.kind == "actions":
            actions = np.asarray(policy.act(env, obs))
            next_obs, rewards, done, info = env.step(actions)
        else:
            actions = None
            next_obs, rewards, done, info = env.step_decisions(
                policy.act(env, obs), build_obs=build_obs)
        if on_step is not None:
            on_step(obs, actions, rewards, info)
        obs = next_obs
    return env.average_rates()


def evaluate_policy(env_config: EnvConfig, policy, seeds) -> dict:
    """Aggregate metrics of a policy over a set of environment realizations."""
    env = NetworkEnv(env_config)
    per_env = [EpisodeMetrics.from_rates(run_episode(env, int(s), policy),
                                         env_config.bandwidth_hz)
               for s in seeds]
    sums = np.array([m.sum_rate_mbps for m in per_env])
    p5s = np.array([m.pct5_mbps for m in per_env])
    k = env_config.deployment.num_ues
    return {
        "per_env": per_env,
        "sum_rate_mbps": float(sums.mean()),
        "sum_rate_mbps_std": float(sums.std()),
        "pct5_mbps": float(p5s.mean()),
        "pct5_mbps_std": float(p5s.std()),
        "score": float(sums.mean() / k + 3.0 * p5s.mean()),
    }


# ------------------------------------------------------------- validation set

@dataclass
class ValidationSet:
    env_config: EnvConfig
    seeds: list[int]
    reference: dict   # per-baseline population means and accepted per-seed metrics

    def to_dict(self) -> dict:
        return {"env_config": self.env_config.to_dict(),
                "seeds": self.seeds, "reference": self.reference}

    @classmethod
    def from_dict(cls, d: dict) -> "ValidationSet":
        missing = [k for k in ("env_config", "seeds", "reference") if k not in d]
        if missing:
            raise ConfigError(f"validation set lacks {', '.join(missing)}")
        seeds = d["seeds"]
        if not (isinstance(seeds, list) and seeds
                and all(type(s) is int and s >= 0 for s in seeds)):
            raise ConfigError("seeds must be a non-empty list of non-negative ints, "
                              f"got {seeds!r}")
        return cls(env_config=EnvConfig.from_dict(d["env_config"]),
                   seeds=list(seeds), reference=d["reference"])

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2)

    @classmethod
    def load(cls, path) -> "ValidationSet":
        with open(path) as f:
            return cls.from_dict(json.load(f))


def build_validation_set(env_config: EnvConfig, target_count: int,
                         population_size: int, tolerance: float,
                         rng: np.random.Generator) -> ValidationSet:
    """Pick realizations typical of the population under full reuse and TDM.

    A realization is accepted when its sum-rate and 5th percentile rate under
    BOTH baselines are within `tolerance` relative error of the population
    means over `population_size` fresh realizations.
    """
    if population_size < target_count:
        raise ValueError("population must be at least the target count")
    seeds = [int(rng.integers(2 ** 63)) for _ in range(population_size)]
    names = ("full_reuse", "tdm")
    evals = {name: evaluate_policy(env_config, BaselinePolicy(name), seeds)
             for name in names}
    per_seed = {name: evals[name]["per_env"] for name in names}
    means = {name: (evals[name]["sum_rate_mbps"], evals[name]["pct5_mbps"])
             for name in names}

    def within(value, mean):
        return abs(value - mean) <= tolerance * abs(mean)

    accepted, reference_rows = [], []
    for idx, s in enumerate(seeds):
        ok = all(
            within(per_seed[name][idx].sum_rate_mbps, means[name][0])
            and within(per_seed[name][idx].pct5_mbps, means[name][1])
            for name in names)
        if ok:
            accepted.append(s)
            reference_rows.append({
                name: {"sum_rate_mbps": per_seed[name][idx].sum_rate_mbps,
                       "pct5_mbps": per_seed[name][idx].pct5_mbps}
                for name in names})
            if len(accepted) == target_count:
                break
    if len(accepted) < target_count:
        raise InsufficientCandidates(
            f"only {len(accepted)}/{target_count} realizations in the "
            f"{tolerance:.0%} band over {population_size} candidates")
    reference = {
        "population_means": {name: {"sum_rate_mbps": means[name][0],
                                    "pct5_mbps": means[name][1]}
                             for name in names},
        "tolerance": tolerance,
        "accepted": reference_rows,
    }
    return ValidationSet(env_config=env_config, seeds=accepted, reference=reference)


# ------------------------------------------------------------------- analyses

def interference_profile(env_config: EnvConfig, n_values, num_realizations: int,
                         rng: np.random.Generator) -> dict:
    """Mean long-term UE SINR (dB) vs number of nearest interferers included.

    Long-term gains only, every AP at full power, on the environment's own
    layout (draw_layout); interference at a UE sums over the n' APs
    physically closest to its serving AP.
    """
    cfg = env_config
    sinr_db = {n: [] for n in n_values}
    for _ in range(num_realizations):
        dep, g2, assoc = draw_layout(cfg, rng)
        ues = np.arange(dep.num_ues)
        sig = g2[ues, assoc] * cfg.p_max_w
        # (K, N-1): power from the serving AP's neighbours, nearest first
        neighbours = topology.nearest_remote_agents(dep.ap_positions, dep.num_aps - 1)[assoc]
        interf = g2[ues[:, None], neighbours] * cfg.p_max_w
        for n in n_values:
            sinr_db[n].append(10.0 * np.log10(
                sig / (interf[:, :n].sum(axis=1) + cfg.noise_w)))
    return {int(n): float(np.mean(np.concatenate(v))) for n, v in sinr_db.items()}


def export_decision_log(env_config: EnvConfig, policy, seeds, path) -> int:
    """Per agent-interval inputs/outputs of an action policy, as CSV.

    Columns carry the top-UE weight and SINR, the local top-k PF ratios and
    the remote agents' top-UE PF ratios, plus the chosen action.
    """
    if policy.kind != "actions":
        raise ValueError("decision logging needs an action policy")
    cfg = env_config
    k, n = cfg.top_k, cfg.num_remote
    cols = (["t", "agent", "top_weight", "top_sinr_db"]
            + [f"pf_local_{s + 1}" for s in range(k)]
            + [f"pf_remote_{r + 1}" for r in range(n)]
            + ["action"])
    env = NetworkEnv(cfg)
    rows = 0
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(cols)

        def write_rows(obs, actions, rewards, info):
            nonlocal rows
            w, sinr_db = obs[:, 0::2], obs[:, 1::2]
            pf = linklevel.pf_ratio(w, 10.0 ** (sinr_db / 10.0))
            values = np.column_stack((w[:, 0], sinr_db[:, 0], pf[:, :k], pf[:, k::k]))
            for i, (row, a) in enumerate(zip(values.tolist(),
                                             actions.astype(int, copy=False).tolist())):
                writer.writerow([info["t"], i] + row + [a])
            rows += len(obs)

        for s in seeds:
            run_episode(env, int(s), policy, write_rows)
    return rows


def metrics_to_csv(path, rows: list[dict]) -> None:
    if not rows:
        raise ValueError("no rows to write")
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
