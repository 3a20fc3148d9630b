"""The array-native interval path against the loop implementations it replaced.

The oracles below are the per-agent, per-slot loops that `NetworkEnv` and
`baselines` used before observations, action decoding and the top-PF
selections were built from the padded pool matrix and the feedback reports
were kept in a list indexed by report number, and the per-UE loop whose sum
`compute_reward` took before it used one array expression. A Hypothesis test
steps random small environments and requires every fast-path output, rewards
included, to equal its oracle bit for bit, and the environment invariants to
hold at every interval. One whole default-config episode checks, at every
interval, which report the local and the remote view read; another, that
`step` hands back the previous observations object exactly when neither
view's report changed, with the oracle's values.

The interferer-profile oracle is the per-UE, per-n loop that
`harness.interference_profile` ran before it gathered the neighbours' powers
as one array; it is compared with the array code on random small layouts from
`draw_layout`, sorted and unsorted.

The report-slot oracle is the two-key `np.lexsort` (-pf first, the UE id as
the tie-break) that `NetworkEnv._snapshot` ordered each pool with before it
took one stable sort on -pf; it is compared with the reports' slots on weights
and SINRs drawn from a coarse grid, so that many UEs of a pool tie on pf,
sorted and unsorted.

The topology oracles are the pool-repair, pool-balancing and per-AP sorted()
neighbour loops that `topology` used before it worked on plain arrays; they
are compared with `topology` on random, tied and lopsided gains and on
positions with distance ties.

The fading oracle is the serial in-phase and quadrature sums,
`np.cos(arg * trig + phase).sum(axis=-1)`, that `FadingProcess.sample_all`
evaluated at one interval before a single interval became a block of one;
`oracle_fading` is now the only copy of that serial expression. It is compared
with `sample_all` at one interval bit for bit over 2,000 intervals at the
default and the N=10, K=100 shapes and at one shape each side of the size where
the two sums go to two threads. A block, `sample_all` over an array of
intervals, must give the oracle's bits in every slice, for blocks on either
side of that size. The block kernel, which adds each link's M cosines in place
in numpy's pairwise order, must give the bits of that expression for an M in
every branch of that order.

The eager-gains oracle is the interval path before `NetworkEnv.g2` was
sampled in blocks of intervals: a policy wrapper sets every environment's `g2`
to the full gains of its interval, computed from the fading oracle, before it
decides, so no interval takes its gains from a block. Its per-interval rates
and interference and its average rates must equal the unwrapped run's bit for
bit, for the three baselines and a random policy, at the default and the
N=10, K=100 shapes. TDM transmits from one AP per interval, so its rates also
show that gains of the silent APs, weighed by a power of 0.0, move no bit.

The Q-network oracle is the allocating forward and backward expressions that
`Mlp` evaluated before it wrote its activations into reused workspaces; it is
compared with `Mlp` bit for bit as the batch grows and shrinks, with plain and
cached forwards interleaved as in acceptance criterion 4.

The Adam oracle is the allocating update expression that `nn.adam_update`
evaluated before it updated the moments and the parameters in place; it is
compared with `adam_update` bit for bit over 300 steps with an L2 term,
through several learning-rate halvings.

The replay oracle is the structured-record ring that `dqn.ReplayBuffer` was
before it stored each observation once, reading record i's next_obs from
record i + B, and as level indices rather than floats: every record kept its
own float obs and next_obs. Both rings take the same chained lockstep
intervals of percentile-level observations, with random B and Q, capacities
that are no multiple of B, done intervals and many wraps, and must sample the
same bits for every field from equal generators.

The double-DQN target oracle is the body `dqn.compute_double_dqn_targets` had
before a row whose next_obs equals its obs took online's argmax from the cached
forward of obs: online's argmax over a forward of all of next_obs, evaluated by
the target. The targets must equal it bit for bit on a batch sampled from
default-config rollouts (about 80% of the rows unchanged), on random records
(every row fresh), on records with no fresh row and on records with one.

The training-schedule oracle is the trigger-counter loop (`next_train`,
`next_sync`, `next_epoch`) that `dqn.run_training` ran before it derived train
steps, target syncs and epochs from its interval and episode totals; the
train steps, syncs and validations of tiny runs are compared with it,
including periods that the number of parallel environments does not divide.

The acting oracle is the body `DqnPolicy.act` had before it reused its greedy
actions between reports, `select_actions(net, map(obs), epsilon, rng)` every
interval: a greedy training run with a train step every interval must give
the same epoch log and checkpoints bit for bit through both.

The validation-set oracle is the seed-by-seed acceptance loop (`within`,
`accepted`, `reference_rows`) that `harness.build_validation_set` ran before it
took the first seeds of one typicality mask; both run on synthetic per-seed
metrics, with values exactly on the band edge and populations with too few
typical seeds, and must give the same seeds, reference and error message.
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from marlsched import channel, dqn, harness, linklevel, nn
from marlsched.channel import create_fading
from marlsched.dqn import TrainerConfig, run_training
from marlsched.env import (
    BLOCK_INTERVALS, DEFAULT_SINR_DB, DEFAULT_WEIGHT, INTERVAL_DURATION_S, NUM_SINUSOIDS,
    RATE_FLOOR, EnvConfig, NetworkEnv, OutOfRange, draw_layout,
)
from marlsched.harness import (
    BaselinePolicy, EpisodeMetrics, InsufficientCandidates, RandomPolicy,
    build_validation_set, fresh_seeds, interference_profile, run_episode,
)
from marlsched.linklevel import ScheduleDecision
from marlsched.nn import (
    ADAM_BETA1, ADAM_BETA2, ADAM_EPS, PARAM_NAMES, AdamState, Mlp, adam_update,
)
from marlsched.normalize import PercentileMapper, RewardNormalizer
from marlsched.topology import (
    DeploymentConfig, associate_max_rsrp, balance_pools, nearest_remote_agents,
)

from conftest import levels, rollout_ring


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
                    obs[i, pos] = DEFAULT_WEIGHT
                    obs[i, pos + 1] = DEFAULT_SINR_DB
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
    return ScheduleDecision(int(ue), float(power)), False


def oracle_agent_top_pf(env):
    _, _, pf = oracle_visible(env, remote=False)
    return np.array([pf[pool].max() if len(pool) else 0.0 for pool in oracle_pools(env)])


def oracle_reward_sum(w_vis, exponent, decisions, rates):
    """The weighted sum rate as compute_reward added it before it took one array
    expression: one np.power scalar per served UE, left to right from 0.0."""
    total = 0.0
    for dec in decisions:
        if not dec.off:
            total += np.power(w_vis[dec.ue], exponent) * rates[dec.ue]
    return total


def oracle_top_pf_per_pool(env):
    pf = env.true_pf()
    sel = [int(min(pool, key=lambda j: (-pf[j], j))) for pool in oracle_pools(env)]
    return np.asarray(sel), pf


def oracle_report_slots(env, pf):
    """A report's slot matrix as `NetworkEnv._snapshot` ordered it before it
    sorted on one key: a two-key lexsort, -pf first (padding last) and the UE id
    as the tie-break."""
    order = env._pool_matrix
    if env.config.sort_by_pf:
        key = np.where(order >= 0, -pf[order], np.inf)
        order = np.take_along_axis(order, np.lexsort((order, key), axis=1), axis=1)
    return order[:, :env.config.top_k]


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


class OracleEagerGains:
    """A policy that hands every environment its interval's full gains from
    oracle_fading before it decides; the rates then use those gains. The reports
    still read the environment's own g2, but no output that recorded_run records
    depends on them: the baselines run rates-only, and a random policy ignores its
    observations."""

    def __init__(self, policy):
        self.policy, self.kind = policy, policy.kind

    def act(self, envs, obs):
        for env in envs:
            env.g2 = env._power * np.abs(oracle_fading(env.fading, env.t)) ** 2
        return self.policy.act(envs, obs)


def oracle_mlp_forward(net, x):
    """(output, a1, a2): every layer a fresh array."""
    p = net.params
    a1 = np.tanh(x @ p["w1"] + p["b1"])
    a2 = np.tanh(a1 @ p["w2"] + p["b2"])
    return a2 @ p["w3"] + p["b3"], a1, a2


def oracle_mlp_backward(net, x, grad_out):
    """Batch-averaged parameter gradients of one forward on x."""
    p = net.params
    _, a1, a2 = oracle_mlp_forward(net, x)
    g = grad_out / x.shape[0]
    grads = {"w3": a2.T @ g, "b3": g.sum(axis=0)}
    d2 = (g @ p["w3"].T) * (1.0 - a2 ** 2)
    grads["w2"] = a1.T @ d2
    grads["b2"] = d2.sum(axis=0)
    d1 = (d2 @ p["w2"].T) * (1.0 - a1 ** 2)
    grads["w1"] = x.T @ d1
    grads["b1"] = d1.sum(axis=0)
    return grads


def oracle_adam_update(net, grads, state, l2_coeff=0.0):
    """One Adam step on (grad + l2 * param), every term a fresh array."""
    lr = state.learning_rate()
    t = state.step + 1
    for name, p in net.params.items():
        g = grads[name] + l2_coeff * p
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        state.m[name] = ADAM_BETA1 * state.m[name] + (1 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1 - ADAM_BETA2) * g ** 2
        m_hat = state.m[name] / (1 - ADAM_BETA1 ** t)
        v_hat = state.v[name] / (1 - ADAM_BETA2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    state.step = t


def oracle_double_dqn_targets(batch, online, target, gamma):
    """Online's argmax over a forward of all of next_obs, evaluated by the target."""
    n_agents, obs_dim = batch.next_obs.shape[1:]
    next_obs = batch.next_obs.reshape(-1, obs_dim)
    rewards = batch.rewards.reshape(-1)
    not_done = np.repeat(1.0 - batch.done, n_agents)
    best = np.argmax(online.forward(next_obs), axis=1)
    q_next = online.forward(next_obs, params=target.params)[np.arange(len(best)), best]
    return rewards + gamma * not_done * q_next


class OracleReplayBuffer:
    """The ring of structured records, each with its own next_obs."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._data = None
        self._pushed = 0

    def __len__(self) -> int:
        return min(self._pushed, self.capacity)

    def push(self, obs, actions, rewards, next_obs, done) -> None:
        if self._data is None:
            n, d = obs.shape[1:]
            self._data = np.empty(self.capacity, dtype=[
                ("obs", float, (n, d)), ("actions", int, (n,)), ("rewards", float, (n,)),
                ("next_obs", float, (n, d)), ("done", bool)])
        idx = (self._pushed + np.arange(len(obs))) % self.capacity
        values = (obs, actions, rewards, next_obs, done)
        for name, value in zip(self._data.dtype.names, values):
            self._data[name][idx] = value
        self._pushed += len(obs)

    def sample(self, batch_size: int, rng: np.random.Generator) -> np.recarray:
        idx = rng.choice(len(self), size=batch_size, replace=False)
        return self._data[idx].view(np.recarray)


def oracle_schedule(tcfg, episode_length):
    """("sync", 0) for the initial target copy, then ("train" | "sync", interval
    total) and ("epoch", episodes done) in the order the counter loop ran them.
    A train step also needs batch_timesteps records in the buffer."""
    events = [("sync", 0)]
    episodes_done = intervals = 0
    next_train = tcfg.train_period_intervals
    next_sync = tcfg.target_sync_intervals
    next_epoch = tcfg.epoch_episodes
    while episodes_done < tcfg.episodes:
        for _ in range(episode_length):
            intervals += tcfg.num_envs
            while intervals >= next_train:
                next_train += tcfg.train_period_intervals
                if min(intervals, tcfg.buffer_capacity) >= tcfg.batch_timesteps:
                    events.append(("train", intervals))
            while intervals >= next_sync:
                next_sync += tcfg.target_sync_intervals
                events.append(("sync", intervals))
        episodes_done += tcfg.num_envs
        if episodes_done >= next_epoch or episodes_done >= tcfg.episodes:
            while next_epoch <= episodes_done:
                next_epoch += tcfg.epoch_episodes
            events.append(("epoch", episodes_done))
    return events


def oracle_validation_set(env_config, target_count, population_size, tolerance, rng):
    """(seeds, reference): the seed-by-seed acceptance loop, stopping at the
    target count; InsufficientCandidates when fewer seeds are typical."""
    seeds = [int(rng.integers(2 ** 63)) for _ in range(population_size)]
    names = ("full_reuse", "tdm")
    evals = {name: harness.evaluate_policy(env_config, BaselinePolicy(name), seeds)
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
    return accepted, reference


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
# the unsorted variant with p > 1 and a report every interval; report lists
# read far behind their newest report (a report every interval, delays of 3),
# read at their newest report (no delays), and read with delays that are no
# multiple of the period, so that the newest and the oldest visible report
# are (fd + bd) // P + 1 apart
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
        want_sel, _ = oracle_top_pf_per_pool(env)
        assert same_bits(env.pool_argmax(env.true_pf()), want_sel)

        actions = rng.integers(0, cfg.num_actions, size=n_aps)
        decoded = [oracle_decode(env, want_slots, i, int(a))
                   for i, a in enumerate(actions)]
        for i, a in enumerate(actions):
            assert env.decode_action(i, int(a)) == decoded[i]
        with pytest.raises(OutOfRange):
            env.decode_action(0, cfg.num_actions)

        w_vis = env.visible_link_values(remote=False)[0]
        obs, rewards, done, info = env.step(actions)
        assert info["decisions"] == [dec for dec, _ in decoded]
        for i, dec in enumerate(info["decisions"]):
            assert dec.off or env.association[dec.ue] == i
        assert all(rewards[i] == 0.0 for i, (_, bad) in enumerate(decoded) if bad)
        assert np.all(info["rates"] >= 0.0) and np.all(info["interference"] >= 0.0)
        assert np.all(env.stats.avg_rate >= RATE_FLOOR)
        if all(dec.off for dec in info["decisions"]):
            # the all-off penalty: at most one agent, the one with the top pf
            penalized = np.flatnonzero(rewards)
            assert len(penalized) <= 1
            if len(penalized):
                assert rewards[penalized[0]] < 0.0
                assert penalized[0] == np.argmax(top_pf)
        else:
            want = oracle_reward_sum(w_vis, cfg.reward_exponent, info["decisions"],
                                     info["rates"])
            valid = [not bad for _, bad in decoded]
            assert same_bits(rewards[valid], np.full(sum(valid), want))
        if done:
            return


def test_visible_report_times_over_a_default_episode():
    """A whole default episode, T = 2,000 with a report every 10 intervals (about
    200 reports), far longer than the Hypothesis episodes: at every interval the
    local and the remote view read the report the oracle names."""
    cfg = EnvConfig()
    env = NetworkEnv(cfg)
    env.reset(seed=0)
    rng = np.random.default_rng(0)
    done = False
    while not done:
        for remote in (False, True):
            assert env.visible_link_values(remote)[3] == oracle_visible_time(env, remote)
        _, _, done, _ = env.step(rng.integers(0, cfg.num_actions, cfg.deployment.num_aps))
    assert env.t == cfg.episode_length + 1


def test_observations_kept_exactly_while_the_visible_reports_stay():
    """A whole default episode: step returns the previous observations object
    exactly when neither view's report changed, with the oracle's values every
    interval."""
    cfg = EnvConfig()
    env = NetworkEnv(cfg)
    obs, done = env.reset(seed=0), False
    rng = np.random.default_rng(1)
    while not done:
        assert same_bits(obs, oracle_observations(env)[0])
        times = [oracle_visible_time(env, remote) for remote in (False, True)]
        last = obs
        obs, _, done, _ = env.step(rng.integers(0, cfg.num_actions, cfg.deployment.num_aps))
        if not done:
            now = [oracle_visible_time(env, remote) for remote in (False, True)]
            assert (obs is last) == (now == times)


PF_GRID_WEIGHTS, PF_GRID_SINR_DB = (1.0, 2.0, 4.0), (-10.0, 0.0, 10.0)


@st.composite
def graded_reports(draw):
    """A small config and per-UE weights and SINRs on a 3 x 3 grid, so that
    many UEs of one pool share a pf."""
    cfg = draw(small_configs())
    k = cfg.deployment.num_ues
    weight = draw(st.lists(st.sampled_from(PF_GRID_WEIGHTS), min_size=k, max_size=k))
    sinr_db = draw(st.lists(st.sampled_from(PF_GRID_SINR_DB), min_size=k, max_size=k))
    return cfg, np.array(weight), np.array(sinr_db)


def grid_report(cfg, seed):
    rng = np.random.default_rng(seed)
    k = cfg.deployment.num_ues
    return cfg, rng.choice(PF_GRID_WEIGHTS, k), rng.choice(PF_GRID_SINR_DB, k)


N10_K100 = EnvConfig(deployment=DeploymentConfig(num_aps=10, num_ues=100), episode_length=5)


@settings(max_examples=80, deadline=None)
@given(report=graded_reports(), seed=st.integers(0, 2 ** 32 - 1))
# pinned: every UE on one pf (the order is the pools' ascending UE ids), and the
# grid at N=10, sorted (K=100, pools of 3 to 16 UEs over nine pf values) and unsorted
@example(report=(N10_K100, np.ones(100), np.zeros(100)), seed=0)
@example(report=grid_report(N10_K100, 1), seed=1)
@example(report=grid_report(EnvConfig(deployment=DeploymentConfig(num_aps=10, num_ues=30),
                                      episode_length=5, sort_by_pf=False), 2), seed=2)
def test_report_slots_match_two_key_sort_oracle(report, seed):
    cfg, weight, sinr_db = report
    env = NetworkEnv(cfg)
    env.reset(seed)
    snap = env._snapshot(env.t, weight, sinr_db)
    assert same_bits(snap.slots[:-1], oracle_report_slots(env, snap.pf))
    assert np.all(snap.slots[-1] == -1)


def test_greedy_training_matches_acting_every_interval(monkeypatch):
    """At epsilon 0, DqnPolicy reuses its greedy actions while the observations
    stay. A train step every lockstep interval changes the network inside each
    5-interval window between reports, at a learning rate large enough to flip
    greedy actions there, and the run must equal, bit for bit, one whose act
    selects anew every interval, as it did before the reuse."""
    cfg = EnvConfig(deployment=DeploymentConfig(num_aps=2, num_ues=6), episode_length=60)
    tcfg = TrainerConfig(num_envs=2, episodes=4, epoch_episodes=2, buffer_capacity=500,
                         batch_timesteps=16, target_sync_intervals=50,
                         train_period_intervals=2, epsilon_start=0.0, epsilon_end=0.0,
                         hidden_units=16, learning_rate=0.1)
    mapper = PercentileMapper(weight_thresholds=np.linspace(0, 1000, 20),
                              sinr_db_thresholds=np.linspace(-60, 60, 20))

    def train():
        result = run_training(cfg, tcfg, mapper, RewardNormalizer(mu=0.0, sigma=100.0),
                              validation_seeds=[0], seed=3)
        return [asdict(r) for r in result.epoch_log], result.checkpoints

    kept_log, kept_params = train()
    monkeypatch.setattr(dqn.DqnPolicy, "act", lambda self, envs, obs: dqn.select_actions(
        self.net, self.map(obs), self.epsilon, self.rng))
    anew_log, anew_params = train()
    assert kept_log == anew_log
    assert all(same_bits(a[k], b[k]) for a, b in zip(kept_params, anew_params, strict=True)
               for k in PARAM_NAMES)


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
    fading = create_fading(num_ues, num_aps, NUM_SINUSOIDS, EnvConfig().doppler_hz,
                           INTERVAL_DURATION_S, np.random.default_rng(num_ues))
    for t in range(1, 2001):
        assert same_bits(fading.sample_all(t), oracle_fading(fading, t)), t


# intervals per block: at the default shape 2 run serially and 3 on two threads;
# 64 is NetworkEnv's block (BLOCK_INTERVALS) and 21 a shorter one
BLOCK_LENGTHS = (1, 2, 3, 21, 64)


def test_block_lengths_straddle_the_split():
    assert 2 * 24 * 4 * 16 < channel.SPLIT_COSINES <= 3 * 24 * 4 * 16
    assert BLOCK_INTERVALS in BLOCK_LENGTHS


# (37, 10): K is prime, so a block's last chunk of rows is short (one row at 16,
# 21 and 64 intervals)
@pytest.mark.parametrize("num_ues, num_aps", FADING_SHAPES + [(37, 10)])
def test_block_samples_match_serial_oracle(num_ues, num_aps):
    fading = create_fading(num_ues, num_aps, NUM_SINUSOIDS, EnvConfig().doppler_hz,
                           INTERVAL_DURATION_S, np.random.default_rng(num_ues))
    cut = (2000 - 1) % BLOCK_INTERVALS + 1   # NetworkEnv's last block at T=2000
    for length in BLOCK_LENGTHS + (cut,):
        for start in (1, 777, 2001 - length):
            ts = np.arange(start, start + length)
            block = fading.sample_all(ts)
            assert block.shape == (length, num_ues, num_aps)
            for i, t in enumerate(ts.tolist()):
                assert same_bits(block[i], oracle_fading(fading, t)), (length, t)


# numpy's pairwise sum adds 8 to 128 terms in 8 accumulators; FadingProcess
# allows only multiples of 8 in that range, and these are both its ends
@pytest.mark.parametrize("m", [8, 16, 24, 128])
def test_block_sum_matches_numpy_sum(m):
    """_block_sum adds each link's M cosines in place; every slice must have the
    bits of the interval-outermost expression summed by numpy, at a K whose last
    chunk of rows is short."""
    rng = np.random.default_rng(m)
    n, length = 2, 64
    rows = channel.CHUNK_COSINES // (n * m * length)
    k = 2 * rows + 1
    assert rows >= 2, rows   # so the last chunk is short
    trig = rng.uniform(-1.0, 1.0, (k, n, m))
    phase = rng.uniform(-np.pi, np.pi, (k, n, m))
    arg = rng.uniform(0.0, 1e3, length)
    block = channel._block_sum(arg, trig, phase)
    assert block.shape == (length, k, n)
    for i, a in enumerate(arg):
        assert same_bits(block[i], np.cos(a * trig + phase).sum(axis=-1)), (m, i)


def recorded_run(cfg, policy, seed):
    """run_episode's per-interval (rates, interference) bytes and average-rate bytes."""
    env = NetworkEnv(cfg)
    steps, step_decisions = [], env.step_decisions

    def recording(decisions, invalid=None):
        out = step_decisions(decisions, invalid)
        steps.append((out[3]["rates"].tobytes(), out[3]["interference"].tobytes()))
        return out

    env.step_decisions = recording
    return steps, run_episode([env], [seed], policy).tobytes()


def make_policy(name):
    return RandomPolicy(5) if name == "random" else BaselinePolicy(name)


@pytest.mark.parametrize("cfg, name", [
    *[(EnvConfig(episode_length=300), name)
      for name in ("tdm", "full_reuse", "itlinq", "random")],
    *[(EnvConfig(deployment=DeploymentConfig(num_aps=10, num_ues=100),
                 episode_length=200), name)
      for name in ("tdm", "full_reuse", "itlinq", "random")],
], ids=lambda v: v if isinstance(v, str) else f"N{v.deployment.num_aps}")
def test_block_gains_match_eager_gains_oracle(cfg, name):
    for seed in (0, 1):
        steps, average = recorded_run(cfg, make_policy(name), seed)
        want_steps, want_average = recorded_run(cfg, OracleEagerGains(make_policy(name)), seed)
        assert len(steps) == cfg.episode_length
        assert steps == want_steps and average == want_average


# ------------------------------------------------------------------ Q-network

# single row, a small batch, the default train_step batch (1024 timesteps x 4
# agents), then growing and shrinking again through sizes already seen
MLP_ROWS = (1, 16, 4096, 16, 1, 4096, 4097, 16)


def same_grads(got, want):
    return sorted(got) == sorted(want) and all(same_bits(got[k], want[k]) for k in want)


@pytest.mark.parametrize("in_dim, out_dim, hidden", [(24, 4, 128), (5, 3, 8)])
def test_mlp_matches_allocating_oracle(in_dim, out_dim, hidden):
    net = Mlp(in_dim, out_dim, hidden, rng=np.random.default_rng(hidden))
    rng = np.random.default_rng(in_dim)
    for rows in MLP_ROWS:
        x = rng.normal(size=(rows, in_dim))
        want, _, _ = oracle_mlp_forward(net, x)
        # criterion 4's order: a plain forward, a cached one, then its backward
        assert same_bits(net.forward(x), want), rows
        out = net.forward(x, cache=True)
        assert same_bits(out, want), rows
        grad_out = 2.0 * (out - rng.normal(size=out.shape))
        assert same_grads(net.backward(grad_out), oracle_mlp_backward(net, x, grad_out)), rows


def test_mlp_plain_forward_drops_the_cache():
    """A plain forward between a cached forward and its backward reuses the
    activations the backward would read, so that backward raises instead of
    returning gradients of another batch; the plain forward's output is exact."""
    net = Mlp(24, 4, 128, rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(16, 24)), rng.normal(size=(4096, 24))
    grad_out = rng.normal(size=(16, 4))
    net.forward(x, cache=True)
    assert same_bits(net.forward(y), oracle_mlp_forward(net, y)[0])
    with pytest.raises(RuntimeError, match="plain forward"):
        net.backward(grad_out)
    net.forward(x, cache=True)
    assert same_grads(net.backward(grad_out), oracle_mlp_backward(net, x, grad_out))


def test_mlp_forward_with_other_params_matches_oracle():
    """The target network's forward run through the online network's
    workspace: the same bits as the target's own forward, no workspace for
    the target, and the online network's pending cache dropped."""
    online = Mlp(24, 4, 128, rng=np.random.default_rng(2))
    target = Mlp(24, 4, 128, rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    for rows in MLP_ROWS:
        x = rng.normal(size=(rows, 24))
        assert same_bits(online.forward(x, params=target.params),
                         oracle_mlp_forward(target, x)[0]), rows
    assert target._ws is None
    x = rng.normal(size=(16, 24))
    online.forward(x, cache=True)
    online.forward(x, params=target.params)
    with pytest.raises(RuntimeError, match="plain forward"):
        online.backward(rng.normal(size=(16, 4)))


@pytest.mark.parametrize("in_dim, out_dim, hidden", [(24, 4, 128), (5, 3, 8)])
def test_adam_matches_allocating_oracle(in_dim, out_dim, hidden, monkeypatch):
    """300 steps with L2 on, the learning rate halving every 50, on gradients
    of every sign and several magnitudes."""
    nets = [Mlp(in_dim, out_dim, hidden, rng=np.random.default_rng(5)) for _ in range(2)]
    monkeypatch.setattr(nn, "LR_HALVING_STEPS", 50)
    states = [AdamState(base_lr=0.01) for _ in range(2)]
    rng = np.random.default_rng(6)
    for step in range(300):
        grads = {k: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=p.shape)
                 for k, p in nets[0].params.items()}
        adam_update(nets[0], grads, states[0], l2_coeff=0.001)
        oracle_adam_update(nets[1], grads, states[1], l2_coeff=0.001)
        assert states[0].step == states[1].step
        for k in PARAM_NAMES:
            assert same_bits(nets[0].params[k], nets[1].params[k]), (step, k)
            assert same_bits(states[0].m[k], states[1].m[k]), (step, k)
            assert same_bits(states[0].v[k], states[1].v[k]), (step, k)


# ---------------------------------------------------------------------- replay

@settings(max_examples=60, deadline=None)
@given(envs=st.integers(1, 5), spare=st.integers(0, 13), episode=st.integers(1, 6),
       count=st.integers(1, 40), q=st.integers(2, 300), seed=st.integers(0, 2 ** 32 - 1))
# 3 environments in a ring of 7: 120 records wrap it 17 times, mid-interval
@example(envs=3, spare=4, episode=5, count=40, q=20, seed=0)
# one environment whose every interval is done, and a ring of exactly B; at
# odd Q a done record's zero next_obs is no level
@example(envs=1, spare=0, episode=1, count=10, q=7, seed=1)
@example(envs=4, spare=0, episode=3, count=12, q=20, seed=2)
def test_replay_matches_record_oracle(envs, spare, episode, count, q, seed):
    """Chained intervals as run_training pushes them: each starts from the
    last one's next_obs, or afresh after a done one, whose next_obs is zeros.
    After every push both rings sample a random number of records from equal
    generators."""
    rng = np.random.default_rng(seed)
    rings = (dqn.ReplayBuffer(envs + spare, q), OracleReplayBuffer(envs + spare))

    def random_levels():
        return levels(q)[rng.integers(0, q + 1, size=(envs, 3, 5))]

    obs = random_levels()
    for t in range(count):
        done = (t + 1) % episode == 0
        next_obs = np.zeros_like(obs) if done else random_levels()
        step = (obs, rng.integers(0, 4, size=(envs, 3)), rng.normal(size=(envs, 3)),
                next_obs, done)
        for ring in rings:
            ring.push(*step)
        obs = random_levels() if done else next_obs
        size = int(rng.integers(1, len(rings[0]) + 1))
        got, want = (ring.sample(size, np.random.default_rng(t)) for ring in rings)
        for name in ("obs", "actions", "rewards", "next_obs", "done"):
            assert same_bits(getattr(got, name), getattr(want, name)), (t, name)


# ------------------------------------------------------------ double-DQN targets

def target_batches():
    """(name, batch) pairs: 1,024 records sampled from a ring of default-config
    rollouts, where about 80% of the rows' next_obs equal their obs; 64 random
    records, every row fresh, the done ones (obs and next_obs zeros) for being
    done; those records with next_obs = obs and none done, no row fresh; and the
    same with one agent's next_obs changed, one row fresh."""
    yield "rollouts", rollout_ring().sample(1024, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    obs, next_obs = (levels(20)[rng.integers(0, 21, size=(64, 4, 24))] for _ in range(2))
    done = rng.random(64) < 0.1
    obs[done] = next_obs[done] = 0.0
    fields = (rng.integers(0, 4, size=(64, 4)), rng.normal(size=(64, 4)))
    yield "random", dqn.Transitions(obs, fields[0], fields[1], next_obs, done)
    yield "none fresh", dqn.Transitions(obs, *fields, obs.copy(), np.zeros(64, bool))
    one = obs.copy()
    one[17, 2] = levels(20)[rng.integers(0, 21, size=24)]
    yield "one fresh", dqn.Transitions(obs, *fields, one, np.zeros(64, bool))


def test_double_dqn_targets_match_full_forward_oracle():
    """Online's argmax of a row whose next_obs equals its obs is read from the
    cached forward of obs, and only the other rows get a forward of their own:
    the targets must be the oracle's bit for bit, and the returned Q-values
    those of a plain forward of obs. The fresh forward runs on exactly the
    fresh rows, and not at all when there are none."""
    online, target = (Mlp(24, 4, 128, rng=np.random.default_rng(s)) for s in (2, 3))
    fresh_counts = {}
    for name, batch in target_batches():
        obs, next_obs = (a.reshape(-1, 24) for a in (batch.obs, batch.next_obs))
        n = len(obs)
        want = oracle_double_dqn_targets(batch, online, target, gamma=0.9)
        rows = []
        online.forward = lambda x, **kw: rows.append(len(x)) or Mlp.forward(online, x, **kw)
        try:
            y, q = dqn.compute_double_dqn_targets(batch, online, target, gamma=0.9)
        finally:
            del online.forward
        assert same_bits(y, want), name
        assert same_bits(q, online.forward(obs)), name
        m = int(((next_obs != obs).any(axis=1) | np.repeat(batch.done, 4)).sum())
        assert rows == ([n, m, n] if m else [n, n]), name
        fresh_counts[name] = m / n
    assert 0.1 < fresh_counts.pop("rollouts") < 0.3
    assert fresh_counts == {"random": 1.0, "none fresh": 0.0, "one fresh": 1 / 256}


# ---------------------------------------------------------- training schedule

def once_per_interval(events):
    """Several syncs due in one interval copy the same network; the counter
    loop copied it once for each, run_training copies it once."""
    return [e for i, e in enumerate(events) if e[0] != "sync" or events[i - 1:i] != [e]]


@pytest.mark.parametrize("num_envs, train_period, sync_period, epoch_episodes, episodes", [
    (2, 4, 8, 2, 4),        # every period a multiple of num_envs
    (3, 7, 10, 4, 10),      # none is, and the last epoch ends past `episodes`
    (3, 2, 1, 1, 7),        # several train steps and syncs fall due in one interval
    (4, 5, 3, 3, 12),
])
def test_training_schedule_matches_counter_oracle(monkeypatch, num_envs, train_period,
                                                  sync_period, epoch_episodes, episodes):
    cfg = EnvConfig(deployment=DeploymentConfig(num_aps=2, num_ues=6), episode_length=5)
    tcfg = TrainerConfig(num_envs=num_envs, episodes=episodes,
                         epoch_episodes=epoch_episodes, buffer_capacity=40,
                         batch_timesteps=8, target_sync_intervals=sync_period,
                         train_period_intervals=train_period, hidden_units=8)
    events, steps = [], [0]
    env_step, train_step, load_params = NetworkEnv.step, dqn.train_step, Mlp.load_params

    def counting_step(env, actions):
        steps[0] += 1
        return env_step(env, actions)

    def recording_train_step(*args):
        events.append(("train", steps[0]))
        return train_step(*args)

    def recording_load_params(net, params):
        events.append(("sync", steps[0]))
        load_params(net, params)

    monkeypatch.setattr(NetworkEnv, "step", counting_step)
    monkeypatch.setattr(dqn, "train_step", recording_train_step)
    monkeypatch.setattr(Mlp, "load_params", recording_load_params)
    monkeypatch.setattr(harness, "evaluate_policy", lambda *args: dict.fromkeys(
        ("sum_rate_mbps", "pct5_mbps", "score"), 0.0))
    mapper = PercentileMapper(weight_thresholds=np.linspace(0, 1000, 20),
                              sinr_db_thresholds=np.linspace(-60, 60, 20))
    run_training(cfg, tcfg, mapper, RewardNormalizer(mu=0.0, sigma=100.0),
                 validation_seeds=[0], seed=0,
                 log=lambda rec: events.append(("epoch", rec.episodes)))
    assert events == once_per_interval(oracle_schedule(tcfg, cfg.episode_length))


# ------------------------------------------------------------- validation set

def synthetic_evaluate(metrics):
    """An evaluate_policy stand-in: metrics[name][i] is the (sum rate, 5th
    percentile) of the i-th seed that the first call is given."""
    order = {}

    def evaluate(env_config, policy, seeds):
        for s in seeds:
            order.setdefault(s, len(order))
        per_env = [EpisodeMetrics(*metrics[policy.name][order[s]], score=0.0)
                   for s in seeds]
        return {"per_env": per_env,
                "sum_rate_mbps": float(np.mean([m.sum_rate_mbps for m in per_env])),
                "pct5_mbps": float(np.mean([m.pct5_mbps for m in per_env]))}
    return evaluate


def selection_outcome(build, metrics, target_count, tolerance, seed, monkeypatch):
    """(seeds, reference) of one selection, or the InsufficientCandidates message."""
    monkeypatch.setattr(harness, "evaluate_policy", synthetic_evaluate(metrics))
    population = len(metrics["full_reuse"])
    try:
        vset = build(EnvConfig(), target_count, population, tolerance,
                     np.random.default_rng(seed))
    except InsufficientCandidates as exc:
        return str(exc)
    return vset if isinstance(vset, tuple) else (vset.seeds, asdict(vset.reference))


# dyadic values, so that means and band edges are exact: with tolerance 0.5
# and mean 2.0 (4.0), 1.0 and 3.0 (2.0 and 6.0) lie exactly on the band edge
EDGE = {"full_reuse": [(1.0, 2.0), (2.0, 4.0), (3.0, 6.0), (2.0, 4.0)],
        "tdm": [(2.0, 1.0), (2.0, 1.0), (2.0, 1.0), (2.0, 1.0)]}
# with tolerance 0.5, each baseline and metric but TDM's 5th percentile
# rejects a seed; only the fourth is typical
OUTSIDE = {"full_reuse": [(0.5, 4.0), (2.0, 4.0), (2.0, 1.0), (2.0, 4.0), (3.5, 7.0)],
           "tdm": [(1.0, 1.0), (0.25, 1.0), (1.0, 1.0), (1.0, 1.0), (1.75, 1.0)]}


@pytest.mark.parametrize("metrics, target_count, tolerance, too_few", [
    (EDGE, 4, 0.5, False),      # every seed typical, two on the edge
    (EDGE, 2, 0.5, False),      # the first two typical seeds
    (EDGE, 1, 0.25, False),     # the edges fall outside a narrower band
    (EDGE, 3, 0.25, True),
    (OUTSIDE, 1, 0.5, False),
    (OUTSIDE, 2, 0.5, True),
], ids=["edge-all", "edge-first", "edge-narrow", "edge-too-few", "outside",
        "outside-too-few"])
def test_validation_set_matches_loop_oracle(metrics, target_count, tolerance, too_few,
                                            monkeypatch):
    got = selection_outcome(build_validation_set, metrics, target_count, tolerance, 0,
                            monkeypatch)
    want = selection_outcome(oracle_validation_set, metrics, target_count, tolerance, 0,
                             monkeypatch)
    assert got == want
    assert isinstance(want, str) == too_few


def test_validation_set_refuses_an_empty_target(monkeypatch):
    """The loop never stopped at a target of 0 and kept every typical seed; a
    set without seeds cannot be loaded, so the target must be at least 1."""
    with pytest.raises(ValueError, match="target count"):
        selection_outcome(build_validation_set, EDGE, 0, 0.5, 0, monkeypatch)


def test_validation_set_matches_loop_oracle_on_random_populations(monkeypatch):
    """Values on a coarse grid, so that ties and band edges are common."""
    rng = np.random.default_rng(0)
    for trial in range(200):
        population = int(rng.integers(1, 12))
        metrics = {name: [tuple(rng.integers(1, 9, size=2) / 4.0) for _ in range(population)]
                   for name in ("full_reuse", "tdm")}
        target = int(rng.integers(1, population + 1))
        tolerance = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
        args = (metrics, target, tolerance, trial, monkeypatch)
        assert (selection_outcome(build_validation_set, *args)
                == selection_outcome(oracle_validation_set, *args)), trial
