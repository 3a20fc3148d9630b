"""The array-native interval path against the loop implementations it replaced.

The oracles below are the per-agent, per-slot loops that `NetworkEnv` and
`baselines` used before observations, action decoding and the top-PF
selections were built from the padded pool matrix. A Hypothesis test steps
random small environments and requires every fast-path output to equal its
oracle bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from marlsched import baselines, linklevel
from marlsched.env import EnvConfig, NetworkEnv, OutOfRange
from marlsched.linklevel import ScheduleDecision
from marlsched.topology import DeploymentConfig


# -------------------------------------------------------------------- oracles

def oracle_visible(env, remote):
    """(weight, sinr_db, pf) as the APs see them; pf recomputed from the report."""
    w, s, _, _ = env.visible_link_values(remote=remote)
    return w, s, linklevel.pf_ratio(w, 10.0 ** (s / 10.0))


def oracle_observations(env):
    """Per-agent, per-block sorted() and slot-by-slot writes."""
    cfg = env.config
    n_aps = env.deployment.num_aps
    w_loc, s_loc, pf_loc = oracle_visible(env, remote=False)
    w_rem, s_rem, pf_rem = oracle_visible(env, remote=True)

    obs = np.empty((n_aps, cfg.obs_dim))
    mask = np.zeros((n_aps, cfg.obs_dim), dtype=bool)
    slot_map = np.full((n_aps, cfg.top_k), -1, dtype=int)
    for i in range(n_aps):
        blocks = [(env.pools[i], w_loc, s_loc, pf_loc)]
        for r in env.deployment.remote_agents[i]:
            blocks.append((env.pools[r], w_rem, s_rem, pf_rem))
        while len(blocks) < cfg.num_remote + 1:
            blocks.append((np.empty(0, dtype=int), w_loc, s_loc, pf_loc))
        pos = 0
        for b, (pool, w, s, pf) in enumerate(blocks):
            if cfg.sort_by_pf:
                order = sorted(pool, key=lambda j: (-pf[j], j))[: cfg.top_k]
            else:
                order = list(pool)[: cfg.top_k]
            for slot in range(cfg.top_k):
                if slot < len(order):
                    j = order[slot]
                    obs[i, pos], obs[i, pos + 1] = w[j], s[j]
                    if b == 0:
                        slot_map[i, slot] = j
                else:
                    obs[i, pos] = cfg.default_weight
                    obs[i, pos + 1] = cfg.default_sinr_db
                    mask[i, pos] = mask[i, pos + 1] = True
                pos += 2
    return obs, slot_map, mask


def oracle_decode(env, agent, action):
    """Scalar decode with the power levels rebuilt on every call."""
    cfg = env.config
    if action < 0 or action > cfg.power_levels * cfg.top_k:
        raise OutOfRange(f"action {action} outside [0, {cfg.power_levels * cfg.top_k}]")
    if action == 0:
        return ScheduleDecision.silent(), False
    level = (action - 1) // cfg.top_k
    slot = (action - 1) % cfg.top_k
    ue = env._slot_map[agent, slot]
    if ue < 0:
        return ScheduleDecision.silent(), True
    power = cfg.power_level_watts()[level]
    return ScheduleDecision.serve(int(ue), float(power)), False


def oracle_agent_top_pf(env):
    _, _, pf = oracle_visible(env, remote=False)
    return np.array([pf[pool].max() if len(pool) else 0.0 for pool in env.pools])


def oracle_top_pf_per_pool(env):
    pf = env.true_pf()
    sel = [int(min(pool, key=lambda j: (-pf[j], j))) for pool in env.pools]
    return np.asarray(sel), pf


# --------------------------------------------------------------------- checks

def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_mask_matches_pool_sizes(env, mask):
    cfg = env.config
    k = cfg.top_k
    sizes = [len(p) for p in env.pools]
    for i in range(env.deployment.num_aps):
        block_aps = [i] + [int(r) for r in env.deployment.remote_agents[i]]
        block_sizes = [sizes[a] for a in block_aps]
        block_sizes += [0] * (cfg.num_remote + 1 - len(block_sizes))
        want = np.repeat([[s >= min(m, k) for s in range(k)] for m in block_sizes], 2)
        assert np.array_equal(mask[i], want)


@st.composite
def small_configs(draw):
    n_aps = draw(st.integers(1, 4))
    top_k = draw(st.integers(1, 4))
    sort_by_pf = draw(st.booleans())
    num_ues = (draw(st.integers(n_aps, 4 * n_aps)) if sort_by_pf
               else n_aps * top_k)
    return EnvConfig(
        deployment=DeploymentConfig(num_aps=n_aps, num_ues=num_ues),
        episode_length=draw(st.integers(1, 30)),
        top_k=top_k,
        num_remote=draw(st.integers(0, n_aps + 1)),
        power_levels=draw(st.integers(1, 3)),
        feedback_period=draw(st.integers(1, 4)),
        feedback_delay=draw(st.integers(0, 3)),
        backhaul_delay=draw(st.integers(0, 3)),
        sort_by_pf=sort_by_pf,
    )


@settings(max_examples=80, deadline=None)
@given(cfg=small_configs(), seed=st.integers(0, 2 ** 32 - 1))
# pinned edge cases: N = K = 1 with top_k and num_remote beyond the network;
# the unsorted variant with p > 1 and a report every interval
@example(cfg=EnvConfig(deployment=DeploymentConfig(num_aps=1, num_ues=1),
                       episode_length=25, top_k=3, num_remote=2, power_levels=2),
         seed=0)
@example(cfg=EnvConfig(deployment=DeploymentConfig(num_aps=3, num_ues=6),
                       episode_length=25, top_k=2, num_remote=3, power_levels=3,
                       feedback_period=1, sort_by_pf=False),
         seed=1)
def test_interval_path_matches_loop_oracles(cfg, seed):
    env = NetworkEnv(cfg)
    obs = env.reset(seed)
    mask = env._last_obs_mask
    rng = np.random.default_rng(seed)
    n_aps = cfg.deployment.num_aps
    while True:
        want_obs, want_slots, want_mask = oracle_observations(env)
        assert same_bits(obs, want_obs)
        assert same_bits(env._slot_map, want_slots)
        assert same_bits(mask, want_mask)
        assert_mask_matches_pool_sizes(env, mask)

        _, _, pf, _ = env.visible_link_values(remote=False)
        assert same_bits(pf, oracle_visible(env, remote=False)[2])
        _, _, pf, _ = env.visible_link_values(remote=True)
        assert same_bits(pf, oracle_visible(env, remote=True)[2])
        assert same_bits(env.agent_top_pf(), oracle_agent_top_pf(env))
        sel, pf_true = baselines._top_pf_per_pool(env)
        want_sel, want_pf = oracle_top_pf_per_pool(env)
        assert same_bits(sel, want_sel) and same_bits(pf_true, want_pf)

        actions = rng.integers(0, cfg.num_actions, size=n_aps)
        decoded = [oracle_decode(env, i, int(a)) for i, a in enumerate(actions)]
        for i, a in enumerate(actions):
            assert env.decode_action(i, int(a)) == decoded[i]
        with pytest.raises(OutOfRange):
            env.decode_action(0, cfg.num_actions)

        obs, rewards, done, info = env.step(actions)
        assert info["decisions"] == [dec for dec, _ in decoded]
        for i, dec in enumerate(info["decisions"]):
            assert dec.off or env.association[dec.ue] == i
        assert all(rewards[i] == 0.0 for i, (_, bad) in enumerate(decoded) if bad)
        if done:
            return
        mask = info["obs_padding_mask"]
