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


def tiny_net(seed=0, in_dim=4, out_dim=3):
    return Mlp(in_dim, out_dim, hidden=8, rng=np.random.default_rng(seed))


def intervals(rng, count, n_envs=1, n_agents=2, obs_dim=4, dones=None):
    """count chained lockstep intervals (obs, actions, rewards, next_obs, done),
    as run_training pushes them: each starts from the last one's next_obs, or
    afresh after a done one, whose next_obs is zeros."""
    obs = rng.normal(size=(n_envs, n_agents, obs_dim))
    for done in dones or [False] * count:
        next_obs = np.zeros_like(obs) if done else rng.normal(size=obs.shape)
        yield (obs, rng.integers(0, 3, size=(n_envs, n_agents)),
               rng.normal(size=(n_envs, n_agents)), next_obs, done)
        obs = rng.normal(size=obs.shape) if done else next_obs


def tagged(step, tags):
    """The interval step of len(tags) environments, its rewards carrying their tag."""
    obs, actions, rewards, next_obs, done = step
    rewards = np.repeat(np.asarray(tags, float)[:, None], rewards.shape[1], axis=1)
    return obs, actions, rewards, next_obs, done


def make_batch(rng, dones):
    """One record per entry of dones, pushed one at a time, sampled back shuffled."""
    buf = ReplayBuffer(len(dones))
    for step in intervals(rng, len(dones), dones=dones):
        buf.push(*step)
    return buf.sample(len(dones), rng)


# -------------------------------------------------------------- replay buffer

def test_buffer_ring_overwrites_oldest():
    buf = ReplayBuffer(3)
    rng = np.random.default_rng(0)
    for t, step in enumerate(intervals(rng, 5)):
        buf.push(*tagged(step, [t]))
    assert len(buf) == 3
    assert set(buf.sample(3, rng).rewards[:, 0]) == {2.0, 3.0, 4.0}


def test_buffer_wraps_mid_interval():
    # capacity 7 is no multiple of B = 3: slot i holds the latest record
    # pushed with index = i mod 7, as with one record pushed at a time
    buf = ReplayBuffer(7)
    rng = np.random.default_rng(1)
    for t, step in enumerate(intervals(rng, 5, n_envs=3)):
        buf.push(*tagged(step, 3 * t + np.arange(3)))
    assert len(buf) == 7
    assert list(buf._rewards[:, 0]) == [14, 8, 9, 10, 11, 12, 13]
    assert set(buf.sample(7, rng).rewards[:, 1]) == set(range(8, 15))


def test_buffer_underfilled_raises():
    buf = ReplayBuffer(10)
    buf.push(*next(intervals(np.random.default_rng(1), 1)))
    with pytest.raises(BufferUnderfilled):
        buf.sample(2, np.random.default_rng(2))


def test_buffer_sample_without_replacement():
    buf = ReplayBuffer(100)
    rng = np.random.default_rng(3)
    for t, step in enumerate(intervals(rng, 10)):
        buf.push(*tagged(step, [t]))
    batch = buf.sample(10, np.random.default_rng(4))
    assert sorted(batch.rewards[:, 0]) == list(range(10))


def test_transitions_keep_agents_together():
    # a sampled timestep always carries every agent's row of that interval
    buf = ReplayBuffer(50)
    rng = np.random.default_rng(5)
    for t, step in enumerate(intervals(rng, 10, n_envs=2, n_agents=3)):
        buf.push(*tagged(step, [2 * t, 2 * t + 1]))     # tag rows by env
    for tr in buf.sample(20, np.random.default_rng(6)):
        assert len(set(tr.rewards)) == 1
        assert tr.obs.shape[0] == tr.next_obs.shape[0] == len(tr.actions) == 3


def test_buffer_refuses_an_interval_that_breaks_the_chain():
    buf = ReplayBuffer(20)
    rng = np.random.default_rng(41)
    first, second = intervals(rng, 2)
    buf.push(*first)
    obs, actions, rewards, next_obs, done = second
    with pytest.raises(ValueError, match="not the next_obs of the last interval"):
        buf.push(obs + 1.0, actions, rewards, next_obs, done)
    buf.push(obs.copy(), actions, rewards, next_obs, done)     # equal, not the same object
    assert len(buf) == 2


def test_buffer_takes_any_obs_after_a_done_interval():
    buf = ReplayBuffer(20)
    rng = np.random.default_rng(42)
    buf.push(*next(intervals(rng, 1, dones=[True])))
    buf.push(*next(intervals(rng, 1)))
    assert len(buf) == 2


def test_buffer_refuses_another_number_of_environments():
    buf = ReplayBuffer(20)
    rng = np.random.default_rng(43)
    buf.push(*next(intervals(rng, 1, n_envs=2)))
    with pytest.raises(ValueError, match="an interval of 3 environments after intervals of 2"):
        buf.push(*next(intervals(rng, 1, n_envs=3)))


def test_sampled_fields_are_contiguous():
    # train_step flattens obs and next_obs to (rows, obs_dim) without a copy
    buf = ReplayBuffer(30)
    rng = np.random.default_rng(44)
    for step in intervals(rng, 10, n_envs=3, dones=[False, True] * 5):
        buf.push(*step)
    batch = buf.sample(12, rng)
    for field in (batch.obs, batch.next_obs):
        assert np.shares_memory(field, field.reshape(-1, field.shape[-1]))
    assert all(f.flags.c_contiguous for f in (batch.actions, batch.rewards, batch.done))


# ------------------------------------------------------------ action selection

def test_greedy_when_epsilon_zero():
    net = tiny_net(7)
    obs = np.random.default_rng(8).normal(size=(5, 4))
    q = net.forward(obs)
    actions = select_actions(net, obs, 0.0, np.random.default_rng(9))
    assert np.array_equal(actions, np.argmax(q, axis=1))


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
    y = compute_double_dqn_targets(batch, online, target, gamma=0.0)
    assert np.allclose(y, batch.rewards.reshape(-1))


def test_targets_terminal_drops_bootstrap():
    online, target = tiny_net(18), tiny_net(19)
    batch = make_batch(np.random.default_rng(20), [True] * 3)
    y = compute_double_dqn_targets(batch, online, target, gamma=0.9)
    assert np.allclose(y, batch.rewards.reshape(-1))


def test_targets_match_manual_double_dqn():
    online, target = tiny_net(21), tiny_net(22)
    batch = make_batch(np.random.default_rng(23), [False, True])
    assert sorted(batch.done) == [False, True]
    y = compute_double_dqn_targets(batch, online, target, gamma=0.9)
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
    y = compute_double_dqn_targets(batch, online, target, gamma=0.9)
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
    buf = ReplayBuffer(64)
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
    buf = ReplayBuffer(8)
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
    adam = AdamState(base_lr=0.003)
    srng = np.random.default_rng(32)
    first = train_step(buf, online, target, adam, tc, srng)
    for _ in range(300):
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
    buf = ReplayBuffer(2 * tc.batch_timesteps)
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


def test_warm_default_train_step_keeps_its_peak_under_3_5_mb():
    """Gathering each sampled field into one contiguous array makes the
    (rows, obs_dim) flattening a view, and Adam updates its moments and the
    parameters in place: a warm default step peaked at about 4.1 MB with a
    structured-record sample and an allocating Adam."""
    cfg, tc = EnvConfig(), TrainerConfig()
    rng = np.random.default_rng(38)
    buf = ReplayBuffer(2 * tc.batch_timesteps)
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
        assert res.best_params[k].shape == template.params[k].shape
        assert np.array_equal(res.best_params[k], res.checkpoints[best][k])


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
    """Acting and pushing share one percentile map per lockstep interval: two
    rounds of 2 environments and two 1-seed validations, 30 intervals each."""
    cfg, tc, mapper, rnorm = _mini_setup()
    shapes = []
    original = PercentileMapper.map_observation_vector
    monkeypatch.setattr(PercentileMapper, "map_observation_vector",
                        lambda self, obs: shapes.append(obs.shape) or original(self, obs))
    run_training(cfg, tc, mapper, rnorm, validation_seeds=[0], seed=5)
    assert sorted(shapes) == [(1, 2, cfg.obs_dim)] * 60 + [(2, 2, cfg.obs_dim)] * 60


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
