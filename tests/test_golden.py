"""Golden guard: rollouts must reproduce the recorded outputs bit for bit.

For every (config, policy, seed) case, tests/data/golden.json holds SHA-256
digests of the per-interval reward arrays and of the per-UE average rates,
both as little-endian float64 bytes; for the action policy it also holds the
digest of the per-interval observations. For every config it also holds the
digests of the offline normalization dataset (weights, sinr_db and rewards
collected under the three baselines), of the bytes of a decision-log CSV
(random policy, two seeds), and of a short training run: the parameters of
every epoch's checkpoint plus the epoch log. At N=4 and N=10 APs (K=100) it
holds the interference profile's mean SINR per interferer count, written
exactly with float.hex. At N=10 APs and K=100 UEs, where the fading sums run
on two threads, it holds the rewards and average rates of full reuse and the
random policy (2 seeds, 200 intervals). For each baseline at both configs
it holds evaluate_policy's per-seed sum_rate_mbps, pct5_mbps and score,
written exactly with float.hex. A refactor that is meant to keep outputs
unchanged must keep every digest.

Regenerate the file only after a change that is meant to alter outputs:

    PYTHONPATH=src python tests/test_golden.py --write

Under pytest the file is only read, never written. Without --write the
script compares and exits 1 when any case differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from marlsched.dqn import TrainerConfig, run_training
from marlsched.env import EnvConfig, NetworkEnv
from marlsched.harness import (
    BaselinePolicy, RandomPolicy, evaluate_policy, export_decision_log,
    interference_profile,
)
from marlsched.nn import PARAM_NAMES
from marlsched.normalize import collect_offline_dataset, fit
from marlsched.topology import DeploymentConfig

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"
EPISODE_LENGTH = 300
SEEDS = (0, 1, 2)


LARGE = EnvConfig(deployment=DeploymentConfig(num_aps=10, num_ues=100), episode_length=200)


def _configs() -> dict[str, EnvConfig]:
    return {
        "default": EnvConfig(episode_length=EPISODE_LENGTH),
        # the unsorted variant needs K = N * top_k
        "p2-unsorted": EnvConfig(
            deployment=DeploymentConfig(num_aps=4, num_ues=4 * 3),
            top_k=3, power_levels=2, sort_by_pf=False,
            episode_length=EPISODE_LENGTH),
    }


def _policy(name: str, seed: int):
    return RandomPolicy(seed) if name == "random" else BaselinePolicy(name)


POLICIES = ("full_reuse", "tdm", "itlinq", "random")


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def rollout_digests(config: EnvConfig, policy_name: str, seed: int) -> dict:
    """Digests of one episode's rewards, average rates and (actions) observations."""
    env = NetworkEnv(config)
    policy = _policy(policy_name, seed)
    obs = env.reset(seed)
    observations, rewards = [obs], []
    done = False
    while not done:
        if policy.kind == "actions":
            obs, r, done, _ = env.step(policy.act([env], obs[None])[0])
            if obs is not None:
                observations.append(obs)
        else:
            _, r, done, _ = env.step_decisions(policy.act([env], None)[0])
        rewards.append(r)
    out = {"rewards": _digest(rewards), "average_rates": _digest([env.average_rates()])}
    if policy.kind == "actions":
        out["observations"] = _digest(observations)
    return out


def evaluation_digests(config: EnvConfig, policy_name: str) -> dict:
    """Exact per-seed metrics of a baseline's evaluate_policy run."""
    result = evaluate_policy(config, BaselinePolicy(policy_name), SEEDS)
    return {str(seed): {k: v.hex() for k, v in dataclasses.asdict(m).items()}
            for seed, m in zip(SEEDS, result["per_env"])}


def offline_dataset_digests(config: EnvConfig) -> dict:
    """Digests of the raw normalization data collected under the baselines."""
    ds = collect_offline_dataset(config, list(POLICIES[:3]), 2, np.random.default_rng(0))
    return {"weights": _digest([ds.weights]), "sinr_db": _digest([ds.sinr_db]),
            "rewards": _digest([ds.rewards])}


def decision_log_digests(config: EnvConfig) -> dict:
    """Digest of the bytes of a random policy's decision-log CSV over two seeds."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "decisions.csv"
        rows = export_decision_log(config, RandomPolicy(0), SEEDS[:2], path)
        return {"rows": rows, "csv": hashlib.sha256(path.read_bytes()).hexdigest()}


# 1000 is no multiple of 3, so the 1,800 pushes wrap the replay ring mid-interval
TRAINER = TrainerConfig(num_envs=3, episodes=6, epoch_episodes=3, buffer_capacity=1000,
                        batch_timesteps=64, target_sync_intervals=500,
                        train_period_intervals=50, epsilon_decay_episodes=6,
                        hidden_units=16)


def training_digests(config: EnvConfig) -> dict:
    """Digests of every epoch's checkpoint parameters, plus the epoch log."""
    dataset = collect_offline_dataset(config, ["full_reuse"], 1, np.random.default_rng(0))
    mapper, reward_norm = fit(dataset, 20)
    result = run_training(config, TRAINER, mapper, reward_norm,
                          validation_seeds=SEEDS[:1], seed=9)
    return {"checkpoints": [_digest(params[k] for k in PARAM_NAMES)
                            for params in result.checkpoints],
            "epochs": [dataclasses.asdict(r) for r in result.epoch_log]}


def interference_digests(num_aps: int) -> dict:
    """Exact mean long-term SINR per interferer count over 3 placements."""
    config = EnvConfig(deployment=DeploymentConfig(num_aps=num_aps, num_ues=100))
    profile = interference_profile(config, range(num_aps), 3, np.random.default_rng(0))
    return {str(n): v.hex() for n, v in profile.items()}


def compute_all() -> dict:
    out = {f"{cfg_name}/{policy}/{seed}": rollout_digests(cfg, policy, seed)
           for cfg_name, cfg in _configs().items()
           for policy in POLICIES for seed in SEEDS}
    for cfg_name, cfg in _configs().items():
        out[f"{cfg_name}/offline_dataset"] = offline_dataset_digests(cfg)
        out[f"{cfg_name}/decision_log"] = decision_log_digests(cfg)
        out[f"{cfg_name}/training"] = training_digests(cfg)
        for policy in POLICIES[:3]:
            out[f"{cfg_name}/{policy}/evaluate"] = evaluation_digests(cfg, policy)
    for num_aps in (4, 10):
        out[f"N{num_aps}-K100/interference_profile"] = interference_digests(num_aps)
    for policy in ("full_reuse", "random"):
        for seed in SEEDS[:2]:
            out[f"N10-K100/{policy}/{seed}"] = rollout_digests(LARGE, policy, seed)
    return out


def test_rollouts_match_golden_digests():
    want = json.loads(GOLDEN.read_text())
    got = compute_all()
    assert sorted(got) == sorted(want)
    mismatched = [case for case in want if got[case] != want[case]]
    assert not mismatched, f"outputs changed for {mismatched}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {GOLDEN.name} from the current code")
    args = parser.parse_args()
    got = compute_all()
    if args.write:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(got)} cases to {GOLDEN}")
        return 0
    want = json.loads(GOLDEN.read_text())
    bad = sorted(case for case in set(got) | set(want) if want.get(case) != got.get(case))
    print(f"{len(got) - len(bad)}/{len(got)} cases match" + (f"; differ: {bad}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
