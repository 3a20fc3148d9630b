"""The array-native interval path against the loop implementations it replaced.

The oracles below are the per-agent, per-slot loops that `NetworkEnv` and
`baselines` used before observations, action decoding and the top-PF
selections were built from the padded pool matrix and the feedback reports
were kept in a ring. A Hypothesis test steps random small environments and
requires every fast-path output to equal its oracle bit for bit, and the
environment invariants to hold at every interval.

The interferer-profile oracle is the per-UE, per-n loop that
`harness.interference_profile` ran before it gathered the neighbours' powers
as one array; it is compared with the array code on random small layouts from
`draw_layout`, sorted and unsorted.

The topology oracles are the pool-repair, pool-balancing and per-AP sorted()
neighbour loops that `topology` used before it worked on plain arrays; they
are compared with `topology` on random, tied and lopsided gains and on
positions with distance ties.

The fading oracle is the serial in-phase and quadrature sums of
`FadingProcess.sample_all`; it is compared with `sample_all` bit for bit over
2,000 intervals at the default and the N=10, K=100 shapes and at one shape
each side of the size where the two sums go to two threads.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from marlsched import baselines, channel, linklevel
from marlsched.channel import create_fading
from marlsched.env import EnvConfig, NetworkEnv, OutOfRange, draw_layout
from marlsched.harness import interference_profile
from marlsched.linklevel import ScheduleDecision
from marlsched.topology import (
    DeploymentConfig, associate_max_rsrp, balance_pools, nearest_remote_agents,
)


# -------------------------------------------------------------------- oracles

def oracle_visible(env, remote):
    """(weight, sinr_db, pf) as the APs see them; pf recomputed from the report."""
    w, s, _, _ = env.visible_link_values(remote=remote)
    return w, s, linklevel.pf_ratio(w, 10.0 ** (s / 10.0))


def oracle_visible_time(env, remote):
    """When the latest visible report was measured: reports are made at every
    multiple of feedback_period and arrive after the feedback delay, plus the
    backhaul delay for remote APs. None before the first one arrives."""
    cfg = env.config
    limit = env.t - cfg.feedback_delay - (cfg.backhaul_delay if remote else 0)
    made = [t for t in range(1, limit + 1) if t % cfg.feedback_period == 0]
    return made[-1] if made else None


def oracle_pools(env):
    """Each AP's UE ids, ascending."""
    return [np.flatnonzero(env.association == i) for i in range(env.deployment.num_aps)]


def oracle_observations(env):
    """Per-agent, per-block sorted() and slot-by-slot writes."""
    cfg = env.config
    n_aps = env.deployment.num_aps
    pools = oracle_pools(env)
    remotes = oracle_remote_agents(env.deployment.ap_positions, cfg.num_remote)
    w_loc, s_loc, pf_loc = oracle_visible(env, remote=False)
    w_rem, s_rem, pf_rem = oracle_visible(env, remote=True)

    obs = np.empty((n_aps, cfg.obs_dim))
    slot_map = np.full((n_aps, cfg.top_k), -1, dtype=int)
    for i in range(n_aps):
        blocks = [(pools[i], w_loc, s_loc, pf_loc)]
        for r in remotes[i]:
            blocks.append((pools[r], w_rem, s_rem, pf_rem))
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
                pos += 2
    return obs, slot_map


def oracle_decode(env, slot_map, agent, action):
    """Scalar decode with the power levels rebuilt on every call."""
    cfg = env.config
    if action < 0 or action > cfg.power_levels * cfg.top_k:
        raise OutOfRange(f"action {action} outside [0, {cfg.power_levels * cfg.top_k}]")
    if action == 0:
        return ScheduleDecision.silent(), False
    level = (action - 1) // cfg.top_k
    slot = (action - 1) % cfg.top_k
    ue = slot_map[agent, slot]
    if ue < 0:
        return ScheduleDecision.silent(), True
    power = cfg.power_level_watts()[level]
    return ScheduleDecision.serve(int(ue), float(power)), False


def oracle_agent_top_pf(env):
    _, _, pf = oracle_visible(env, remote=False)
    return np.array([pf[pool].max() if len(pool) else 0.0 for pool in oracle_pools(env)])


def oracle_top_pf_per_pool(env):
    pf = env.true_pf()
    sel = [int(min(pool, key=lambda j: (-pf[j], j))) for pool in oracle_pools(env)]
    return np.asarray(sel), pf


def oracle_repair_empty_pools(association, long_term_gains):
    """While some AP has no UEs, move to the first empty one the UE, from a
    pool of size >= 2, with the highest gain toward it."""
    assoc = np.array(association, dtype=int)
    n_aps = long_term_gains.shape[1]
    while True:
        counts = np.bincount(assoc, minlength=n_aps)
        empty = np.flatnonzero(counts == 0)
        if len(empty) == 0:
            return assoc
        tgt = int(empty[0])
        eligible = np.flatnonzero(counts[assoc] >= 2)
        if len(eligible) == 0:
            raise ValueError("cannot repair pools: too few UEs")
        mover = eligible[np.argmax(long_term_gains[eligible, tgt])]
        assoc[mover] = tgt


def oracle_balance_pools(association, long_term_gains, pool_size):
    """Move, from any over-full pool, the UE with the best gain toward the
    first most under-full AP, until every pool holds pool_size UEs."""
    assoc = np.array(association, dtype=int)
    n_aps = long_term_gains.shape[1]
    if len(assoc) != n_aps * pool_size:
        raise ValueError("equal pools require num_ues == num_aps * pool_size")
    while True:
        counts = np.bincount(assoc, minlength=n_aps)
        under = np.flatnonzero(counts < pool_size)
        if len(under) == 0:
            return assoc
        tgt = int(under[np.argmin(counts[under])])
        donors = np.flatnonzero(counts[assoc] > pool_size)
        mover = donors[np.argmax(long_term_gains[donors, tgt])]
        assoc[mover] = tgt


def oracle_remote_agents(ap_positions, n):
    """Per AP, the min(n, N-1) other APs by ascending (distance, id)."""
    n_aps = len(ap_positions)
    out = []
    for i in range(n_aps):
        d = np.linalg.norm(ap_positions - ap_positions[i], axis=1)
        order = sorted((j for j in range(n_aps) if j != i), key=lambda j: (d[j], j))
        out.append(order[: min(n, n_aps - 1)])
    return out


def oracle_interference_profile(cfg, n_values, num_realizations, rng):
    """Per UE and per n, a sum over the serving AP's n nearest neighbours, on
    draw_layout's association."""
    totals = {n: [] for n in n_values}
    for _ in range(num_realizations):
        dep, g2, assoc = draw_layout(cfg, rng)
        remotes = oracle_remote_agents(dep.ap_positions, dep.num_aps - 1)
        for j in range(dep.num_ues):
            a = assoc[j]
            sig = g2[j, a] * cfg.p_max_w
            for n in n_values:
                interferers = np.array(remotes[a][:n], dtype=int)
                interf = float(np.sum(g2[j, interferers] * cfg.p_max_w))
                totals[n].append(10.0 * np.log10(sig / (interf + cfg.noise_w)))
    return {int(n): float(np.mean(v)) for n, v in totals.items()}


def oracle_fading(fading, t):
    """Both sums of the sum-of-sinusoids model on the calling thread, in turn."""
    m = fading.num_sinusoids
    arg = 2.0 * np.pi * fading.doppler_hz * (t * fading.interval_duration)
    re = np.cos(arg * fading.cos_alpha + fading.phi).sum(axis=-1)
    im = np.cos(arg * fading.sin_alpha + fading.psi).sum(axis=-1)
    return (re + 1j * im) / np.sqrt(m)


# --------------------------------------------------------------------- checks

def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_slots_match_pool_sizes(env, remote):
    """A report's slot matrix is -1 exactly beyond each pool's size; the last
    row, the padding row, is all -1."""
    slots = env._latest_visible(env.config.backhaul_delay if remote else 0).slots
    sizes = np.array([len(p) for p in oracle_pools(env)] + [0])
    assert np.array_equal(slots < 0, np.arange(env.config.top_k) >= sizes[:, None])


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
# the unsorted variant with p > 1 and a report every interval; the report ring
# wrapping many times, when it is long (a report every interval, delays of 3),
# when it has its minimum two slots (no delays), and when the delays are no
# multiple of the period, so that the newest and the oldest readable report
# are (fd + bd) // P + 1 apart and every slot is needed
@example(cfg=EnvConfig(deployment=DeploymentConfig(num_aps=1, num_ues=1),
                       episode_length=25, top_k=3, num_remote=2, power_levels=2),
         seed=0)
@example(cfg=EnvConfig(deployment=DeploymentConfig(num_aps=3, num_ues=6),
                       episode_length=25, top_k=2, num_remote=3, power_levels=3,
                       feedback_period=1, sort_by_pf=False),
         seed=1)
@example(cfg=EnvConfig(deployment=DeploymentConfig(num_aps=2, num_ues=5),
                       episode_length=40, feedback_period=1, feedback_delay=3,
                       backhaul_delay=3),
         seed=2)
@example(cfg=EnvConfig(deployment=DeploymentConfig(num_aps=2, num_ues=5),
                       episode_length=40, feedback_period=3, feedback_delay=0,
                       backhaul_delay=0),
         seed=3)
@example(cfg=EnvConfig(deployment=DeploymentConfig(num_aps=2, num_ues=5),
                       episode_length=40, feedback_period=3, feedback_delay=2,
                       backhaul_delay=2),
         seed=4)
def test_interval_path_matches_loop_oracles(cfg, seed):
    env = NetworkEnv(cfg)
    obs = env.reset(seed)
    rng = np.random.default_rng(seed)
    n_aps = cfg.deployment.num_aps
    while True:
        want_obs, want_slots = oracle_observations(env)
        assert same_bits(obs, want_obs)
        assert same_bits(env._latest_visible(0).slots[:-1], want_slots)
        assert_slots_match_pool_sizes(env, remote=False)
        assert_slots_match_pool_sizes(env, remote=True)

        for remote in (False, True):
            _, _, pf, t_measured = env.visible_link_values(remote=remote)
            assert same_bits(pf, oracle_visible(env, remote=remote)[2])
            assert t_measured == oracle_visible_time(env, remote=remote)
        top_pf = env.agent_top_pf()
        assert same_bits(top_pf, oracle_agent_top_pf(env))
        sel, pf_true = baselines._top_pf_per_pool(env)
        want_sel, want_pf = oracle_top_pf_per_pool(env)
        assert same_bits(sel, want_sel) and same_bits(pf_true, want_pf)

        actions = rng.integers(0, cfg.num_actions, size=n_aps)
        decoded = [oracle_decode(env, want_slots, i, int(a))
                   for i, a in enumerate(actions)]
        for i, a in enumerate(actions):
            assert env.decode_action(i, int(a)) == decoded[i]
        with pytest.raises(OutOfRange):
            env.decode_action(0, cfg.num_actions)

        obs, rewards, done, info = env.step(actions)
        assert info["decisions"] == [dec for dec, _ in decoded]
        for i, dec in enumerate(info["decisions"]):
            assert dec.off or env.association[dec.ue] == i
        assert all(rewards[i] == 0.0 for i, (_, bad) in enumerate(decoded) if bad)
        assert np.all(info["rates"] >= 0.0) and np.all(info["interference"] >= 0.0)
        assert np.all(env.stats.avg_rate >= cfg.rate_floor)
        if all(dec.off for dec in info["decisions"]):
            # the all-off penalty: at most one agent, the one with the top pf
            penalized = np.flatnonzero(rewards)
            assert len(penalized) <= 1
            if len(penalized):
                assert rewards[penalized[0]] < 0.0
                assert penalized[0] == np.argmax(top_pf)
        if done:
            return


# ------------------------------------------------------------------- topology

def random_gains(rng, num_ues, num_aps, kind):
    """Positive (K, N) gains: uniform, rounded to a few values (ties), or with
    one AP dominant for every UE (every other pool starts empty)."""
    g = rng.uniform(0.1, 1.0, size=(num_ues, num_aps))
    if kind == "tied":
        g = np.round(g, 1)
    elif kind == "dominant":
        g[:, rng.integers(num_aps)] = 2.0
    return g


@pytest.mark.parametrize("kind", ["uniform", "tied", "dominant"])
def test_association_matches_repair_oracle(kind):
    rng = np.random.default_rng(["uniform", "tied", "dominant"].index(kind))
    for _ in range(300):
        num_aps = int(rng.integers(1, 6))
        # K < N is reachable: both sides must then refuse
        g = random_gains(rng, int(rng.integers(1, 13)), num_aps, kind)
        try:
            want = oracle_repair_empty_pools(np.argmax(g, axis=1), g)
        except ValueError:
            with pytest.raises(ValueError, match="too few UEs"):
                associate_max_rsrp(g)
            continue
        assert same_bits(associate_max_rsrp(g), want)


@pytest.mark.parametrize("kind", ["uniform", "tied", "dominant"])
def test_balanced_pools_match_oracle(kind):
    rng = np.random.default_rng(10 + ["uniform", "tied", "dominant"].index(kind))
    for _ in range(300):
        num_aps, pool_size = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        g = random_gains(rng, num_aps * pool_size, num_aps, kind)
        assoc = associate_max_rsrp(g)
        assert same_bits(balance_pools(assoc, g, pool_size),
                         oracle_balance_pools(assoc, g, pool_size))
        with pytest.raises(ValueError, match="equal pools"):
            balance_pools(assoc, g, pool_size + 1)


@pytest.mark.parametrize("grid", [None, 10.0, 1.0])
def test_remote_agents_match_sorted_oracle(grid):
    """Continuous positions, and positions rounded to a grid, where many
    distances tie and the lower AP id must come first."""
    rng = np.random.default_rng(20 if grid is None else int(grid))
    for _ in range(300):
        num_aps = int(rng.integers(1, 9))
        pos = rng.uniform(0.0, 100.0 if grid is None else 4 * grid, size=(num_aps, 2))
        if grid is not None:
            pos = np.round(pos / grid) * grid
        n = int(rng.integers(0, num_aps + 2))
        got = nearest_remote_agents(pos, n)
        assert [list(map(int, row)) for row in got] == oracle_remote_agents(pos, n)


# ------------------------------------------------------------ interferer profile

def same_hex(a, b):
    return {n: v.hex() for n, v in a.items()} == {n: v.hex() for n, v in b.items()}


@settings(max_examples=40, deadline=None)
@given(n_aps=st.integers(1, 6), top_k=st.integers(1, 4), sort_by_pf=st.booleans(),
       extra_ues=st.integers(0, 12), realizations=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
# N = 1: n_values is [0], no interferers at all
@example(n_aps=1, top_k=2, sort_by_pf=False, extra_ues=0, realizations=2, seed=0)
@example(n_aps=6, top_k=3, sort_by_pf=True, extra_ues=12, realizations=2, seed=1)
def test_interference_profile_matches_loop_oracle(n_aps, top_k, sort_by_pf, extra_ues,
                                                  realizations, seed):
    num_ues = n_aps + extra_ues if sort_by_pf else n_aps * top_k
    cfg = EnvConfig(deployment=DeploymentConfig(num_aps=n_aps, num_ues=num_ues),
                    top_k=top_k, sort_by_pf=sort_by_pf)
    n_values = list(range(n_aps))
    got = interference_profile(cfg, n_values, realizations, np.random.default_rng(seed))
    want = oracle_interference_profile(cfg, n_values, realizations,
                                       np.random.default_rng(seed))
    assert same_hex(got, want)


def test_unsorted_interference_profile_uses_the_environment_pools():
    """Unsorted observations balance the pools to top_k UEs; the profile must
    measure those pools, the ones NetworkEnv.reset builds."""
    cfg = EnvConfig(deployment=DeploymentConfig(num_aps=4, num_ues=12),
                    top_k=3, sort_by_pf=False)
    n_values = [0, 1, 2, 3]
    got = interference_profile(cfg, n_values, 3, np.random.default_rng(0))
    assert same_hex(got, oracle_interference_profile(cfg, n_values, 3,
                                                     np.random.default_rng(0)))
    for seed in range(3):
        _, _, assoc = draw_layout(cfg, np.random.default_rng(seed))
        env = NetworkEnv(cfg)
        env.reset(seed)
        assert same_bits(assoc, env.association)
        assert np.array_equal(np.bincount(assoc, minlength=4), [3, 3, 3, 3])


# --------------------------------------------------------------------- fading

# (K, N) at M=16: the default, one shape each side of the two-thread size and
# the N=10, K=100 network
FADING_SHAPES = [(24, 4), (63, 4), (64, 4), (100, 10)]


def test_fading_shapes_straddle_the_split():
    assert 63 * 4 * 16 < channel.SPLIT_COSINES <= 64 * 4 * 16


@pytest.mark.parametrize("num_ues, num_aps", FADING_SHAPES)
def test_fading_matches_serial_oracle(num_ues, num_aps):
    cfg = EnvConfig()
    fading = create_fading(num_ues, num_aps, cfg.num_sinusoids, cfg.doppler_hz,
                           cfg.interval_duration_s, np.random.default_rng(num_ues))
    for t in range(1, 2001):
        assert same_bits(fading.sample_all(t), oracle_fading(fading, t)), t
