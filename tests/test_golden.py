"""Golden guard: rollouts must reproduce the recorded outputs bit for bit.

For every (config, policy, seed) case, tests/data/golden.json holds SHA-256
digests of the per-interval reward arrays and of the per-UE average rates,
both as little-endian float64 bytes; for the action policy it also holds the
digest of the per-interval observations. A refactor that is meant to keep
outputs unchanged must keep every digest.

Regenerate the file only after a change that is meant to alter outputs:

    PYTHONPATH=src python tests/test_golden.py --write

Under pytest the file is only read, never written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np

from marlsched.env import EnvConfig, NetworkEnv
from marlsched.harness import BaselinePolicy, RandomPolicy
from marlsched.topology import DeploymentConfig

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"
EPISODE_LENGTH = 300
SEEDS = (0, 1, 2)


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
            obs, r, done, _ = env.step(np.asarray(policy.act(env, obs)))
            if obs is not None:
                observations.append(obs)
        else:
            _, r, done, _ = env.step_decisions(policy.act(env, obs), build_obs=False)
        rewards.append(r)
    out = {"rewards": _digest(rewards), "average_rates": _digest([env.average_rates()])}
    if policy.kind == "actions":
        out["observations"] = _digest(observations)
    return out


def compute_all() -> dict:
    return {f"{cfg_name}/{policy}/{seed}": rollout_digests(cfg, policy, seed)
            for cfg_name, cfg in _configs().items()
            for policy in POLICIES for seed in SEEDS}


def test_rollouts_match_golden_digests():
    want = json.loads(GOLDEN.read_text())
    got = compute_all()
    assert sorted(got) == sorted(want)
    mismatched = [case for case in want if got[case] != want[case]]
    assert not mismatched, f"outputs changed for {mismatched}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {GOLDEN.name} from the current code")
    args = parser.parse_args()
    got = compute_all()
    if args.write:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(got)} cases to {GOLDEN}")
        return
    want = json.loads(GOLDEN.read_text())
    bad = [case for case in got if want.get(case) != got[case]]
    print(f"{len(got) - len(bad)}/{len(got)} cases match" + (f"; differ: {bad}" if bad else ""))


if __name__ == "__main__":
    main()
