"""Metrics, validation environments, evaluation runs and analysis exports."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import baselines as bl
from . import linklevel, topology
from .env import BANDWIDTH_HZ, ConfigError, EnvConfig, NetworkEnv, draw_layout, read_config


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
    def from_rates(cls, avg_rates: np.ndarray) -> "EpisodeMetrics":
        s = float(np.sum(avg_rates))
        p5 = pct5_rate(avg_rates)
        mbps = BANDWIDTH_HZ / 1e6
        return cls(sum_rate_mbps=s * mbps, pct5_mbps=p5 * mbps,
                   score=s * mbps / len(avg_rates) + 3.0 * p5 * mbps)


def dominates(a: EpisodeMetrics, b: EpisodeMetrics) -> bool:
    """Pareto dominance on (sum_rate_mbps, pct5_mbps); other fields are unused."""
    ge = a.sum_rate_mbps >= b.sum_rate_mbps and a.pct5_mbps >= b.pct5_mbps
    strict = a.sum_rate_mbps > b.sum_rate_mbps or a.pct5_mbps > b.pct5_mbps
    return ge and strict


# -------------------------------------------------------------------- rollout

def fresh_seeds(seed: int | np.random.Generator, count: int) -> list[int]:
    """count environment seeds from default_rng(seed): an int, or a Generator it advances."""
    rng = np.random.default_rng(seed)
    return [int(rng.integers(2 ** 63)) for _ in range(count)]


def check_seeds(seeds, name: str) -> None:
    """Raise ConfigError unless seeds is a non-empty list or tuple of ints >= 0, not bools."""
    if not (isinstance(seeds, (list, tuple)) and seeds and all(
            type(s) is not bool and isinstance(s, int | np.integer) and s >= 0 for s in seeds)):
        raise ConfigError(f"{name} must be a non-empty list of non-negative ints, got {seeds!r}")


class BaselinePolicy:
    """Adapter turning a baseline decider into a rollout policy."""

    kind = "decisions"

    def __init__(self, name: str):
        self.name = name
        if name not in bl.BASELINES:
            raise ValueError(f"unknown baseline {name!r}; choose from {sorted(bl.BASELINES)}")
        self._decide = bl.BASELINES[name]

    def act(self, envs, obs):
        return [self._decide(env) for env in envs]


class RandomPolicy:
    """Uniform random actions over the discrete action space."""

    kind = "actions"

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)

    def act(self, envs, obs):
        return self.rng.integers(0, envs[0].config.num_actions,
                                 size=(len(envs), envs[0].deployment.num_aps))


def run_episode(envs: list[NetworkEnv], seeds, policy, on_step=None) -> np.ndarray:
    """Reset each env from its seed, step all in lockstep to the (common) end and
    return the (B, K) per-UE time-average rates. This is the one stepping loop.

    policy.act(envs, obs) gets the (B, N, obs_dim) observations and returns
    (B, N) actions, or for kind "decisions" one decision list per env. on_step(obs,
    actions, rewards, next_obs, t) sees each interval t = 1..T with the (B, N)
    rewards; next_obs is None after the last one. This loop decides feedback:
    without on_step, a decisions policy's episodes are rates-only (obs None). obs is
    read-only, and the same object while every env returns the same one as before."""
    if len(seeds) != len(envs):
        raise ValueError(f"one seed per env: {len(seeds)} seeds, {len(envs)} envs")
    feedback = policy.kind == "actions" or on_step is not None
    raw = [env.reset(s, feedback) for env, s in zip(envs, seeds)]
    obs = _stack(raw) if feedback else None
    done = False
    while not done:
        actions = policy.act(envs, obs)
        steps = [env.step(a) if policy.kind == "actions" else env.step_decisions(a)
                 for env, a in zip(envs, actions)]
        next_raw, rewards, dones, infos = zip(*steps)
        done = dones[-1]
        next_obs = None if done or not feedback else (
            obs if all(a is b for a, b in zip(next_raw, raw)) else _stack(next_raw))
        if on_step is not None:
            on_step(obs, actions, np.array(rewards), next_obs, infos[0]["t"])
        obs, raw = next_obs, next_raw
    return np.array([env.average_rates() for env in envs])


def _stack(raw) -> np.ndarray:
    stacked = np.array(raw)
    stacked.flags.writeable = False
    return stacked


def evaluate_policy(env_config: EnvConfig, policy, seeds) -> dict:
    """Aggregate metrics of a policy over realizations, one run per seed: in lockstep a
    random policy's draws interleave across seeds, and at N=1 B rows go to gemm, 1 to gemv."""
    check_seeds(seeds, "seeds")
    envs = [NetworkEnv(env_config)]
    per_env = [EpisodeMetrics.from_rates(run_episode(envs, [s], policy)[0]) for s in seeds]
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
class ValidationReference:
    """Why the seeds were picked: per baseline, then metric, the population means
    and each accepted seed's metrics, all within tolerance (relative) of them."""
    population_means: dict[str, dict[str, float]]
    tolerance: float
    accepted: list[dict[str, dict[str, float]]]


@dataclass
class ValidationSet:
    env_config: EnvConfig
    seeds: list[int]
    reference: ValidationReference

    def validate(self) -> None:
        check_seeds(self.seeds, "ValidationSet.seeds")

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(asdict(self), f, indent=2)

    @classmethod
    def load(cls, path) -> "ValidationSet":
        with open(path, encoding="utf-8") as f:
            return read_config(cls, json.load(f))


def build_validation_set(env_config: EnvConfig, target_count: int,
                         population_size: int, tolerance: float,
                         rng: int | np.random.Generator) -> ValidationSet:
    """Pick realizations typical of the population under full reuse and TDM.

    A realization is accepted when its sum-rate and 5th percentile rate under
    BOTH baselines are within `tolerance` relative error of the population
    means over `population_size` fresh realizations; the first `target_count` are kept.
    """
    if not 1 <= target_count <= population_size:
        raise ValueError("need 1 <= target count <= population")
    seeds = fresh_seeds(rng, population_size)
    names, keys = ("full_reuse", "tdm"), ("sum_rate_mbps", "pct5_mbps")
    evals = {name: evaluate_policy(env_config, BaselinePolicy(name), seeds)
             for name in names}
    means = {name: {k: evals[name][k] for k in keys} for name in names}
    rows = [{name: {k: getattr(evals[name]["per_env"][idx], k) for k in keys}
             for name in names} for idx in range(population_size)]
    typical = [all(abs(row[name][k] - means[name][k]) <= tolerance * abs(means[name][k])
                   for name in names for k in keys) for row in rows]
    picked = np.flatnonzero(typical)[:target_count].tolist()
    if len(picked) < target_count:
        raise InsufficientCandidates(
            f"only {len(picked)}/{target_count} realizations in the "
            f"{tolerance:.0%} band over {population_size} candidates")
    reference = ValidationReference(means, tolerance, [rows[idx] for idx in picked])
    return ValidationSet(env_config, [seeds[idx] for idx in picked], reference)


# ------------------------------------------------------------------- analyses

def interference_profile(env_config: EnvConfig, n_values, num_realizations: int,
                         rng: np.random.Generator) -> dict:
    """Mean long-term UE SINR (dB) vs number of nearest interferers included.

    Long-term gains only, every AP at full power, on the environment's own
    layout (draw_layout); interference at a UE sums over the n' APs
    physically closest to its serving AP.
    """
    cfg = env_config
    cfg.validate()
    if bad := [n for n in n_values if not 0 <= n < cfg.deployment.num_aps]:
        raise ValueError(f"n={bad[0]} interferers outside [0, N-1], N={cfg.deployment.num_aps}")
    if num_realizations < 1:
        raise ValueError(f"num_realizations must be at least 1, got {num_realizations}")
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
    check_seeds(seeds, "seeds")
    cfg = env_config
    k, n = cfg.top_k, cfg.num_remote
    cols = (["t", "agent", "top_weight", "top_sinr_db"]
            + [f"pf_local_{s + 1}" for s in range(k)]
            + [f"pf_remote_{r + 1}" for r in range(n)]
            + ["action"])
    envs = [NetworkEnv(cfg)]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(cols)

        def write_rows(obs, actions, rewards, next_obs, t):
            w, sinr_db = obs[0, :, 0::2], obs[0, :, 1::2]     # (1, N, ·): one env per seed
            pf = linklevel.pf_ratio(w, 10.0 ** (sinr_db / 10.0))
            values = np.column_stack((w[:, 0], sinr_db[:, 0], pf[:, :k], pf[:, k::k]))
            for i, (row, a) in enumerate(zip(values.tolist(),
                                             actions[0].astype(int, copy=False).tolist())):
                writer.writerow([t, i] + row + [a])

        for s in seeds:
            run_episode(envs, [s], policy, write_rows)
    return len(seeds) * cfg.episode_length * cfg.deployment.num_aps


def metrics_to_csv(path, rows: list[dict]) -> None:
    if not rows:
        raise ValueError("no rows to write")
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
