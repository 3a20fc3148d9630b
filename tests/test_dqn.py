import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from marlsched import dqn
from marlsched.dqn import (
    BufferUnderfilled, DqnPolicy, NonFiniteLoss, ReplayBuffer, TrainerConfig,
    compute_double_dqn_targets, run_training, select_actions, train_step,
)
from marlsched.env import ConfigError, EnvConfig, NetworkEnv, read_config
from marlsched.harness import run_episode
from marlsched.nn import PARAM_NAMES, AdamState, Mlp
from marlsched.normalize import PercentileMapper, RewardNormalizer
from marlsched.topology import DeploymentConfig

from conftest import levels, rollout_ring


def tiny_net(seed=0, in_dim=4, out_dim=3):
    return Mlp(in_dim, out_dim, hidden=8, rng=np.random.default_rng(seed))


Q = 20     # percentile levels of the observations pushed to the replay rings


def random_levels(rng, shape, q=Q):
    """Percentile-mapped observations: each entry one of the q + 1 levels."""
    return levels(q)[rng.integers(0, q + 1, size=shape)]


def intervals(rng, count, n_envs=1, n_agents=2, obs_dim=4, dones=None, q=Q):
    """count chained lockstep intervals (obs, actions, rewards, next_obs, done),
    as run_training pushes them: each starts from the last one's next_obs, or
    afresh after a done one, whose next_obs is zeros."""
    obs = random_levels(rng, (n_envs, n_agents, obs_dim), q)
    for done in dones or [False] * count:
        next_obs = np.zeros_like(obs) if done else random_levels(rng, obs.shape, q)
        yield (obs, rng.integers(0, 3, size=(n_envs, n_agents)),
               rng.normal(size=(n_envs, n_agents)), next_obs, done)
        obs = random_levels(rng, obs.shape, q) if done else next_obs


def tagged(step, tags):
    """The interval step of len(tags) environments, its rewards carrying their tag."""
    obs, actions, rewards, next_obs, done = step
    rewards = np.repeat(np.asarray(tags, float)[:, None], rewards.shape[1], axis=1)
    return obs, actions, rewards, next_obs, done


def make_batch(rng, dones):
    """One record per entry of dones, pushed one at a time, sampled back shuffled."""
    buf = ReplayBuffer(len(dones), Q)
    for step in intervals(rng, len(dones), dones=dones):
        buf.push(*step)
    return buf.sample(len(dones), rng)


# -------------------------------------------------------------- replay buffer

def test_buffer_ring_overwrites_oldest():
    buf = ReplayBuffer(3, Q)
    rng = np.random.default_rng(0)
    for t, step in enumerate(intervals(rng, 5)):
        buf.push(*tagged(step, [t]))
    assert len(buf) == 3
    assert set(buf.sample(3, rng).rewards[:, 0]) == {2.0, 3.0, 4.0}


def test_buffer_wraps_mid_interval():
    # capacity 7 is no multiple of B = 3: slot i holds the latest record
    # pushed with index = i mod 7, as with one record pushed at a time
    buf = ReplayBuffer(7, Q)
    rng = np.random.default_rng(1)
    for t, step in enumerate(intervals(rng, 5, n_envs=3)):
        buf.push(*tagged(step, 3 * t + np.arange(3)))
    assert len(buf) == 7
    assert list(buf._rewards[:, 0]) == [14, 8, 9, 10, 11, 12, 13]
    assert set(buf.sample(7, rng).rewards[:, 1]) == set(range(8, 15))


def test_buffer_underfilled_raises():
    buf = ReplayBuffer(10, Q)
    buf.push(*next(intervals(np.random.default_rng(1), 1)))
    with pytest.raises(BufferUnderfilled):
        buf.sample(2, np.random.default_rng(2))


def test_buffer_sample_without_replacement():
    buf = ReplayBuffer(100, Q)
    rng = np.random.default_rng(3)
    for t, step in enumerate(intervals(rng, 10)):
        buf.push(*tagged(step, [t]))
    batch = buf.sample(10, np.random.default_rng(4))
    assert sorted(batch.rewards[:, 0]) == list(range(10))


def test_transitions_keep_agents_together():
    # a sampled timestep always carries every agent's row of that interval
    buf = ReplayBuffer(50, Q)
    rng = np.random.default_rng(5)
    for t, step in enumerate(intervals(rng, 10, n_envs=2, n_agents=3)):
        buf.push(*tagged(step, [2 * t, 2 * t + 1]))     # tag rows by env
    for tr in buf.sample(20, np.random.default_rng(6)):
        assert len(set(tr.rewards)) == 1
        assert tr.obs.shape[0] == tr.next_obs.shape[0] == len(tr.actions) == 3


def test_buffer_refuses_an_interval_that_breaks_the_chain():
    buf = ReplayBuffer(20, Q)
    rng = np.random.default_rng(41)
    first, second = intervals(rng, 2)
    buf.push(*first)
    obs, actions, rewards, next_obs, done = second
    with pytest.raises(ValueError, match="not the next_obs of the last interval"):
        buf.push(obs + 1.0, actions, rewards, next_obs, done)
    with pytest.raises(ValueError, match="not the next_obs of the last interval"):
        buf.push(obs.copy(), actions, rewards, next_obs, done)  # equal, not the same object
    assert len(buf) == 1


def test_buffer_takes_any_obs_after_a_done_interval():
    buf = ReplayBuffer(20, Q)
    rng = np.random.default_rng(42)
    buf.push(*next(intervals(rng, 1, dones=[True])))
    buf.push(*next(intervals(rng, 1)))
    assert len(buf) == 2


def test_buffer_refuses_another_number_of_environments():
    buf = ReplayBuffer(20, Q)
    rng = np.random.default_rng(43)
    buf.push(*next(intervals(rng, 1, n_envs=2)))
    with pytest.raises(ValueError, match="an interval of 3 environments after intervals of 2"):
        buf.push(*next(intervals(rng, 1, n_envs=3)))


def test_sampled_fields_are_contiguous():
    # train_step flattens obs and next_obs to (rows, obs_dim) without a copy
    buf = ReplayBuffer(30, Q)
    rng = np.random.default_rng(44)
    for step in intervals(rng, 10, n_envs=3, dones=[False, True] * 5):
        buf.push(*step)
    batch = buf.sample(12, rng)
    for field in (batch.obs, batch.next_obs):
        assert np.shares_memory(field, field.reshape(-1, field.shape[-1]))
    assert all(f.flags.c_contiguous for f in (batch.actions, batch.rewards, batch.done))


def test_buffer_reads_a_done_records_next_obs_as_zero_at_odd_q():
    # at Q = 7, 0.0 is no level; index 0 would decode to -0.5. The newest
    # interval is done too, its pending next_obs not zeros.
    buf = ReplayBuffer(12, 7)
    rng = np.random.default_rng(45)
    for step in intervals(rng, 5, n_envs=2, dones=[False, True] * 2 + [False], q=7):
        buf.push(*step)
    obs, actions, rewards, next_obs, _ = step
    buf.push(next_obs, actions, rewards, random_levels(rng, next_obs.shape, 7), True)
    batch = buf.sample(12, rng)
    assert batch.done.sum() == 6
    assert np.all(batch.next_obs[batch.done] == 0.0)
    assert not np.signbit(batch.next_obs[batch.done]).any()


# the last two are on the grid k / q - 1/2 but above +1/2; k = 256 would not fit a uint8 ring
NO_LEVELS = [(Q, bad) for bad in (0.123, float("nan"), float("inf"), -0.5 - 1 / 20, 0.5 + 1e-12,
                                  -float("inf"), 1e308, 21 / 20 - 0.5)] + [(255, 256 / 255 - 0.5)]


@pytest.mark.parametrize("q, bad", NO_LEVELS,
                         ids=[str(bad) if q == Q else f"q{q}-{bad}" for q, bad in NO_LEVELS])
def test_buffer_refuses_an_observation_that_is_no_level(q, bad):
    buf = ReplayBuffer(10, q)
    obs, *rest = next(intervals(np.random.default_rng(46), 1, q=q))
    obs = obs.copy()
    obs[0, 1, 2] = bad
    with pytest.raises(ValueError, match=f"entry {re.escape(str(bad))} is none of the {q + 1} "):
        buf.push(obs, *rest)
    assert len(buf) == 0


@pytest.mark.parametrize("q, dtype", [(2, np.uint8), (255, np.uint8), (300, np.uint16)])
def test_buffer_stores_level_indices_in_the_smallest_dtype(q, dtype):
    buf = ReplayBuffer(40, q)
    rng = np.random.default_rng(47)
    pushed = []
    obs = levels(q)[rng.integers(0, q + 1, size=(2, 3, 4))]
    for _ in range(10):
        next_obs = levels(q)[rng.integers(0, q + 1, size=obs.shape)]
        buf.push(obs, rng.integers(0, 3, size=(2, 3)), rng.normal(size=(2, 3)), next_obs, False)
        pushed.extend(zip(obs, next_obs))
        obs = next_obs
    assert buf._obs.dtype == dtype
    batch = buf.sample(20, np.random.default_rng(48))
    for record in batch:    # rewards tag no record, so find each by its obs bits
        match = [(o, n) for o, n in pushed if o.tobytes() == record.obs.tobytes()]
        assert len(match) == 1 and match[0][1].tobytes() == record.next_obs.tobytes()


def test_default_ring_reserves_under_4_5_mb():
    """One level index byte per observation entry: 25,000 records of 4 agents x
    24 entries take 2.4 MB, with actions, rewards and done about 4.0 MB. As
    float64 observations the ring reserved about 20.8 MB."""
    cfg, tc = EnvConfig(), TrainerConfig()
    step = next(intervals(np.random.default_rng(50), 1, tc.num_envs,
                          cfg.deployment.num_aps, cfg.obs_dim))
    tracemalloc.start()
    try:
        buf = ReplayBuffer(tc.buffer_capacity, Q)
        buf.push(*step)
        reserved = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert reserved <= 4.5e6, f"{reserved / 1e6:.1f} MB"


# ------------------------------------------------------------ action selection

def test_greedy_when_epsilon_zero():
    net = tiny_net(7)
    obs = np.random.default_rng(8).normal(size=(5, 4))
    q = net.forward(obs)
    actions = select_actions(net, obs, 0.0, np.random.default_rng(9))
    assert np.array_equal(actions, np.argmax(q, axis=1))


def test_greedy_selection_draws_nothing():
    """Validation, `marlsched evaluate` and the benchmark act at epsilon 0, where a
    draw could never change an action."""
    rng = np.random.default_rng(9)
    before = rng.bit_generator.state
    select_actions(tiny_net(7), np.ones((2, 3, 4)), 0.0, rng)
    assert rng.bit_generator.state == before


def test_greedy_tie_breaks_to_lowest_action():
    net = tiny_net(10)
    for k in net.params:
        net.params[k][:] = 0.0                  # all Q-values identically zero
    actions = select_actions(net, np.ones((4, 4)), 0.0, np.random.default_rng(11))
    assert np.all(actions == 0)


def test_uniform_when_epsilon_one():
    net = tiny_net(12)
    obs = np.tile(np.random.default_rng(13).normal(size=4), (100_000, 1))
    actions = select_actions(net, obs, 1.0, np.random.default_rng(14))
    freqs = np.bincount(actions, minlength=3) / len(actions)
    assert np.all(np.abs(freqs - 1 / 3) < 0.02)


def test_epsilon_schedule():
    tc = TrainerConfig(epsilon_start=1.0, epsilon_end=0.01,
                       epsilon_decay_episodes=25)
    assert tc.epsilon(0) == pytest.approx(1.0)
    assert tc.epsilon(25) == pytest.approx(0.01)
    assert tc.epsilon(100) == pytest.approx(0.01)
    mid = tc.epsilon(12)
    assert tc.epsilon(13) < mid < tc.epsilon(11)
    # linear: equal decrements per episode
    d1 = tc.epsilon(1) - tc.epsilon(2)
    d2 = tc.epsilon(20) - tc.epsilon(21)
    assert d1 == pytest.approx(d2)


# --------------------------------------------------------------------- targets

def test_targets_gamma_zero_equal_rewards():
    online, target = tiny_net(15), tiny_net(16)
    batch = make_batch(np.random.default_rng(17), [False] * 4)
    y, _ = compute_double_dqn_targets(batch, online, target, gamma=0.0)
    assert np.allclose(y, batch.rewards.reshape(-1))


def test_targets_terminal_drops_bootstrap():
    online, target = tiny_net(18), tiny_net(19)
    batch = make_batch(np.random.default_rng(20), [True] * 3)
    y, _ = compute_double_dqn_targets(batch, online, target, gamma=0.9)
    assert np.allclose(y, batch.rewards.reshape(-1))


def test_targets_match_manual_double_dqn():
    online, target = tiny_net(21), tiny_net(22)
    batch = make_batch(np.random.default_rng(23), [False, True])
    assert sorted(batch.done) == [False, True]
    y, _ = compute_double_dqn_targets(batch, online, target, gamma=0.9)
    k = 0
    for tr in batch:
        for a in range(tr.obs.shape[0]):
            s_next = tr.next_obs[a:a + 1]
            best = int(np.argmax(online.forward(s_next)))
            boot = 0.0 if tr.done else 0.9 * target.forward(s_next)[0, best]
            assert y[k] == pytest.approx(tr.rewards[a] + boot)
            k += 1


def test_targets_online_selects_target_evaluates():
    # craft nets where online's argmax differs from target's argmax so the
    # double estimator is distinguishable from plain max_a Q_target
    online, target = tiny_net(24), tiny_net(25)
    batch = make_batch(np.random.default_rng(26), [False] * 6)
    y, _ = compute_double_dqn_targets(batch, online, target, gamma=0.9)
    next_obs = batch.next_obs.reshape(-1, 4)
    rewards = batch.rewards.reshape(-1)
    plain_max = rewards + 0.9 * np.max(target.forward(next_obs), axis=1)
    sel_online = np.argmax(online.forward(next_obs), axis=1)
    sel_target = np.argmax(target.forward(next_obs), axis=1)
    assert np.any(sel_online != sel_target)   # the crafting worked
    assert not np.allclose(y, plain_max)
    assert np.all(y <= plain_max + 1e-12)     # double estimate never exceeds max


# ------------------------------------------------------------------ train step

def _filled_buffer(rng, n=16):
    buf = ReplayBuffer(64, Q)
    for step in intervals(rng, n):
        buf.push(*step)
    return buf


def test_train_step_zero_loss_at_fixed_point():
    # make rewards equal to current Q minus bootstrap so the TD error is 0
    online = tiny_net(27)
    target = online.copy()
    obs, actions, _, next_obs, done = next(intervals(np.random.default_rng(28), 1, 8,
                                                     dones=[True]))
    q = online.forward(obs.reshape(-1, 4)).reshape(8, 2, 3)
    rewards = np.take_along_axis(q, actions[..., None], axis=2)[..., 0]
    buf = ReplayBuffer(8, Q)
    buf.push(obs, actions, rewards, next_obs, done)
    before = {k: v.copy() for k, v in online.params.items()}
    tc = TrainerConfig(batch_timesteps=8, l2_coeff=0.0)
    loss = train_step(buf, online, target, AdamState(), tc, np.random.default_rng(29))
    assert loss == pytest.approx(0.0, abs=1e-20)
    for k in before:   # zero gradient + zero l2 leaves parameters untouched
        assert np.array_equal(online.params[k], before[k])


def test_train_step_reduces_td_error():
    online = tiny_net(30)
    target = online.copy()
    rng = np.random.default_rng(31)
    buf = _filled_buffer(rng, 16)
    tc = TrainerConfig(batch_timesteps=16, gamma=0.9, l2_coeff=0.0)
    # level observations (std ~0.3) learn slower than the unit normals once
    # pushed: 300 steps left 0.26 of the first loss, 500 left 0.025
    adam = AdamState(base_lr=0.003)
    srng = np.random.default_rng(32)
    first = train_step(buf, online, target, adam, tc, srng)
    for _ in range(600):
        last = train_step(buf, online, target, adam, tc, srng)
    assert last < 0.1 * first


def test_train_step_deterministic():
    def run():
        online = tiny_net(33)
        target = tiny_net(34)
        buf = _filled_buffer(np.random.default_rng(35), 16)
        tc = TrainerConfig(batch_timesteps=8)
        adam = AdamState()
        rng = np.random.default_rng(36)
        return [train_step(buf, online, target, adam, tc, rng) for _ in range(5)]

    assert run() == run()


def test_warm_default_train_step_allocates_little():
    """After its first step a train_step at the default batch (1024 timesteps
    x 4 agents, hidden 128) reuses the networks' activation workspaces: its
    traced peak stays under 8 MB. With a fresh 4 MB array for every hidden
    activation, bias add, tanh and backward delta it was about 28 MB."""
    cfg, tc = EnvConfig(), TrainerConfig()
    rng = np.random.default_rng(37)
    buf = ReplayBuffer(2 * tc.batch_timesteps, Q)
    for step in intervals(rng, buf.capacity // tc.num_envs, tc.num_envs,
                          cfg.deployment.num_aps, cfg.obs_dim):
        buf.push(*step)
    online = Mlp(cfg.obs_dim, cfg.num_actions, tc.hidden_units, rng=rng)
    target = online.copy()
    adam = AdamState()
    train_step(buf, online, target, adam, tc, rng)
    tracemalloc.start()
    try:
        train_step(buf, online, target, adam, tc, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6, f"{peak / 1e6:.1f} MB"


def test_train_steps_allocate_little_across_target_syncs(monkeypatch):
    """A target sync copies the parameters into the target network and keeps
    its workspace: 8 default episodes of 1,000 intervals with a sync every
    2,000 make 70 train steps, and each after the second stays under 8 MB,
    steps 11, 31 and 51, the first after a sync, included."""
    cfg = EnvConfig(episode_length=1000)
    tc = TrainerConfig(episodes=8, target_sync_intervals=2000)
    peaks, real_step = [], dqn.train_step

    def traced_step(*args):
        tracemalloc.start()
        try:
            return real_step(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(dqn, "train_step", traced_step)
    run_training(cfg, tc, _identity_mapper(cfg.obs_dim),
                 RewardNormalizer(mu=0.0, sigma=100.0), validation_seeds=[0], seed=0)
    assert len(peaks) == 70
    over = {step: f"{peak / 1e6:.1f} MB" for step, peak in enumerate(peaks, start=1)
            if step > 2 and peak > 8e6}
    assert not over, over


def test_warm_default_train_step_runs_online_on_2n_plus_fresh_rows(monkeypatch):
    """A row whose next_obs equals its obs takes online's argmax from the
    cached forward of obs, so a default step on a ring of real rollouts passes
    n rows to the target pass, n to the cached pass and only the m fresh ones
    to a third; with a full forward of next_obs it passed 3n."""
    cfg, tc = EnvConfig(), TrainerConfig()
    ring = rollout_ring()
    online = Mlp(cfg.obs_dim, cfg.num_actions, tc.hidden_units, rng=np.random.default_rng(39))
    target = online.copy()
    adam = AdamState()
    train_step(ring, online, target, adam, tc, np.random.default_rng(40))
    batch = ring.sample(tc.batch_timesteps, np.random.default_rng(41))
    obs, next_obs = (a.reshape(-1, cfg.obs_dim) for a in (batch.obs, batch.next_obs))
    n, m = len(obs), int((next_obs != obs).any(axis=1).sum())
    rows, forward = [], Mlp.forward
    monkeypatch.setattr(Mlp, "forward", lambda net, x, **kw: rows.append(len(x))
                        or forward(net, x, **kw))
    train_step(ring, online, target, adam, tc, np.random.default_rng(41))
    assert 0 < m < n / 2
    assert sum(rows) == 2 * n + m, (rows, n, m)


def test_warm_default_train_step_keeps_its_peak_under_3_5_mb():
    """Gathering each sampled field into one contiguous array makes the
    (rows, obs_dim) flattening a view, and Adam updates its moments and the
    parameters in place: a warm default step peaked at about 4.1 MB with a
    structured-record sample and an allocating Adam."""
    cfg, tc = EnvConfig(), TrainerConfig()
    rng = np.random.default_rng(38)
    buf = ReplayBuffer(2 * tc.batch_timesteps, Q)
    for step in intervals(rng, buf.capacity // tc.num_envs, tc.num_envs,
                          cfg.deployment.num_aps, cfg.obs_dim):
        buf.push(*step)
    online = Mlp(cfg.obs_dim, cfg.num_actions, tc.hidden_units, rng=rng)
    target = online.copy()
    adam = AdamState()
    train_step(buf, online, target, adam, tc, rng)
    tracemalloc.start()
    try:
        train_step(buf, online, target, adam, tc, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5e6, f"{peak / 1e6:.2f} MB"


# ------------------------------------------------------------------- training

def _identity_mapper(obs_dim):
    # thresholds wide enough that mapping is monotone over observed values
    return PercentileMapper(weight_thresholds=np.linspace(0, 1000, 20),
                            sinr_db_thresholds=np.linspace(-60, 60, 20))


def _mini_setup():
    cfg = EnvConfig(deployment=DeploymentConfig(num_aps=2, num_ues=6),
                    episode_length=30)
    tc = TrainerConfig(num_envs=2, episodes=4, epoch_episodes=2,
                       buffer_capacity=500, batch_timesteps=16,
                       target_sync_intervals=40, train_period_intervals=10,
                       epsilon_decay_episodes=4)
    mapper = _identity_mapper(cfg.obs_dim)
    rnorm = RewardNormalizer(mu=0.0, sigma=100.0)
    return cfg, tc, mapper, rnorm


def test_run_training_structure():
    cfg, tc, mapper, rnorm = _mini_setup()
    res = run_training(cfg, tc, mapper, rnorm, validation_seeds=[0, 1], seed=5)
    assert len(res.epoch_log) == 2                       # 4 episodes / 2 per epoch
    assert [r.epoch for r in res.epoch_log] == [1, 2]
    assert [r.episodes for r in res.epoch_log] == [2, 4]
    assert len(res.checkpoints) == 2
    best = max(range(2), key=lambda i: res.epoch_log[i].score)
    assert res.best_epoch == best + 1
    template = Mlp(cfg.obs_dim, cfg.num_actions, tc.hidden_units)
    for k in PARAM_NAMES:
        assert res.checkpoints[best][k].shape == template.params[k].shape


def test_run_training_stops_on_a_non_finite_loss():
    cfg, tc, mapper, _ = _mini_setup()
    nan_rewards = RewardNormalizer(mu=float("nan"), sigma=1.0)
    with pytest.raises(NonFiniteLoss, match=r"train step 1 \(epoch 1\) gave loss nan"):
        run_training(cfg, tc, mapper, nan_rewards, validation_seeds=[0], seed=5)


def test_run_training_deterministic():
    cfg, tc, mapper, rnorm = _mini_setup()
    a = run_training(cfg, tc, mapper, rnorm, validation_seeds=[0], seed=9)
    b = run_training(cfg, tc, mapper, rnorm, validation_seeds=[0], seed=9)
    assert [r.score for r in a.epoch_log] == [r.score for r in b.epoch_log]
    assert [r.mean_loss for r in a.epoch_log] == [r.mean_loss for r in b.epoch_log]
    for ca, cb in zip(a.checkpoints, b.checkpoints):
        for k in ca:
            assert np.array_equal(ca[k], cb[k])


def test_run_training_gives_the_target_network_no_workspace(monkeypatch):
    """The double-DQN targets evaluate the target's parameters through the
    online network's workspace, so the target made at the start and synced
    by load_params never allocates one of its own."""
    cfg, tc, mapper, rnorm = _mini_setup()
    copies, real_copy = [], Mlp.copy

    def recording_copy(net):
        copies.append(real_copy(net))
        return copies[-1]

    monkeypatch.setattr(Mlp, "copy", recording_copy)
    res = run_training(cfg, tc, mapper, rnorm, validation_seeds=[0], seed=5)
    assert res.epoch_log[-1].mean_loss > 0          # it trained and synced
    assert len(copies) == 1 and copies[0]._ws is None


def test_run_training_maps_each_observation_once(monkeypatch):
    """Acting and pushing share one percentile map per distinct pair of visible
    reports (local, remote), since observations are kept until one changes: two
    rounds of 2 environments and two 1-seed validations, 30 intervals each."""
    cfg, tc, mapper, rnorm = _mini_setup()
    shapes = []
    original = PercentileMapper.map_observation_vector
    monkeypatch.setattr(PercentileMapper, "map_observation_vector",
                        lambda self, obs: shapes.append(obs.shape) or original(self, obs))
    run_training(cfg, tc, mapper, rnorm, validation_seeds=[0], seed=5)
    # report r is made at r * period; the local view sees it after the feedback
    # delay, the remote views after the backhaul delay too
    pairs = len({tuple(max((t - cfg.feedback_delay - extra) // cfg.feedback_period, 0)
                       for extra in (0, cfg.backhaul_delay))
                 for t in range(1, cfg.episode_length + 1)})
    assert pairs == 5               # t = 1, 15, 20, 25 and 30
    assert sorted(shapes) == [(1, 2, cfg.obs_dim)] * 2 * pairs + [(2, 2, cfg.obs_dim)] * 2 * pairs


def test_run_training_seed_changes_outcome():
    cfg, tc, mapper, rnorm = _mini_setup()
    a = run_training(cfg, tc, mapper, rnorm, validation_seeds=[0], seed=9)
    b = run_training(cfg, tc, mapper, rnorm, validation_seeds=[0], seed=10)
    assert not np.array_equal(a.checkpoints[-1]["w1"], b.checkpoints[-1]["w1"])


def test_dqn_policy_rolls_out():
    cfg, tc, mapper, rnorm = _mini_setup()
    net = Mlp(cfg.obs_dim, cfg.num_actions, 8, rng=np.random.default_rng(40))
    envs = [NetworkEnv(cfg) for _ in range(2)]
    calls = []
    run_episode(envs, [0, 1], DqnPolicy(net, mapper), lambda *args: calls.append(args))
    assert len(calls) == cfg.episode_length and all(env.done for env in envs)
    for obs, actions, *_ in calls:
        greedy = np.argmax(net.forward(mapper.map_observation_vector(obs).reshape(
            -1, cfg.obs_dim)), axis=1)
        assert actions.shape == (2, 2)
        assert np.array_equal(actions.ravel(), greedy)
    # at epsilon 1 every action is the rng's draw
    explore = DqnPolicy(net, mapper, 1.0, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    rng.random(4)
    assert np.array_equal(explore.act(envs, calls[0][0]).ravel(),
                          rng.integers(0, cfg.num_actions, size=4))


def test_trainer_config_roundtrip():
    tc = TrainerConfig(num_envs=3, episodes=7, gamma=0.5)
    assert read_config(TrainerConfig, asdict(tc)) == tc


@pytest.mark.parametrize("field, value", [
    ("train_period_intervals", 0),      # these three loop forever on += 0
    ("target_sync_intervals", 0),
    ("epoch_episodes", 0),
    ("epsilon_decay_episodes", 0),      # ZeroDivisionError
    ("num_envs", 0),
    ("batch_timesteps", 30_000),        # above buffer_capacity: never trains
])
def test_trainer_config_rejects_values_that_hang_or_never_train(field, value):
    with pytest.raises(ConfigError, match=field):
        read_config(TrainerConfig, {field: value}).validate()
    with pytest.raises(ConfigError, match=field):
        TrainerConfig(**{field: value}).validate()


@pytest.mark.parametrize("field, value", [
    ("gamma", -0.1), ("gamma", 1.5), ("gamma", float("nan")),     # NaN: NonFiniteLoss
    ("learning_rate", -5.0), ("learning_rate", 0.0),              # -5.0 trains to the end
    ("learning_rate", float("nan")),
    ("epsilon_start", 1.5), ("epsilon_start", float("nan")),
    ("epsilon_end", -0.01), ("epsilon_end", float("nan")),
    ("l2_coeff", -0.001), ("l2_coeff", float("nan")),
    ("num_envs", float("nan")), ("episodes", float("nan")),        # NaN in counts
])
def test_trainer_config_rejects_hyperparameters_out_of_range(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainerConfig(**{field: value}).validate()


def test_trainer_config_accepts_the_edges_of_its_ranges():
    for edges in ({"gamma": 0.0, "epsilon_start": 0.0, "epsilon_end": 0.0, "l2_coeff": 0.0},
                  {"gamma": 1.0, "epsilon_start": 1.0, "epsilon_end": 1.0,
                   "learning_rate": 1e-12}):
        TrainerConfig(**edges).validate()


def test_run_training_validates_its_config():
    cfg, tc, mapper, rnorm = _mini_setup()
    tc.num_envs = 0
    with pytest.raises(ConfigError, match="num_envs"):
        run_training(cfg, tc, mapper, rnorm, validation_seeds=[0], seed=9)


@pytest.mark.parametrize("missing", ["no_such_dir", "a_file"])
def test_run_training_refuses_a_missing_out_dir_before_its_first_episode(monkeypatch, tmp_path,
                                                                         missing):
    def no_step(*args, **kwargs):
        raise AssertionError("an interval was stepped")

    monkeypatch.setattr(NetworkEnv, "step", no_step)
    (tmp_path / "a_file").write_text("")
    out_dir = str(tmp_path / missing)
    cfg, tc, mapper, rnorm = _mini_setup()
    with pytest.raises(NotADirectoryError, match=re.escape(f"out_dir {out_dir!r} is not a "
                                                           f"directory")):
        run_training(cfg, tc, mapper, rnorm, validation_seeds=[0], seed=9, out_dir=out_dir)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file"]


@pytest.mark.parametrize("seeds", [[], (), [0, -1], [np.int64(-2)], [0, 1.0], ["0"], {0},
                                   np.array([0]), None, [True]])
def test_run_training_refuses_bad_validation_seeds_before_its_first_episode(monkeypatch, seeds):
    def no_episode(*args, **kwargs):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(NetworkEnv, "reset", no_episode)
    cfg, tc, mapper, rnorm = _mini_setup()
    with pytest.raises(ValueError, match=r"validation_seeds must be a non-empty list of "
                                         r"non-negative ints, got " + re.escape(repr(seeds))):
        run_training(cfg, tc, mapper, rnorm, validation_seeds=seeds, seed=9)
