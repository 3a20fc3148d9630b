import contextlib
import typing
from dataclasses import asdict, fields

import numpy as np
import pytest

from marlsched.channel import FadingProcess, PathLossParams
from marlsched.dqn import TrainerConfig
from marlsched.env import (
    BLOCK_INTERVALS, DEFAULT_SINR_DB, DEFAULT_WEIGHT, RATE_FLOOR, ConfigError, EnvConfig,
    EpisodeFinished, NetworkEnv, OutOfRange, read_config,
)
from marlsched.harness import BaselinePolicy, run_episode
from marlsched.linklevel import ScheduleDecision, compute_rates
from marlsched.topology import DeploymentConfig


def small_config(**kw):
    base = dict(deployment=DeploymentConfig(num_aps=2, num_ues=6),
                episode_length=60)
    base.update(kw)
    return EnvConfig(**base)


# ------------------------------------------------------------- config algebra

def test_default_dimensions():
    cfg = EnvConfig()
    assert cfg.obs_dim == 24
    assert cfg.num_actions == 4


def test_dimensions_formula():
    cfg = EnvConfig(top_k=2, num_remote=1, power_levels=3)
    assert cfg.obs_dim == 2 * (1 + 1) * 2
    assert cfg.num_actions == 1 + 3 * 2


def test_power_conversions():
    cfg = EnvConfig()
    assert cfg.p_max_w == pytest.approx(0.01)
    # -174 dBm/Hz over 10 MHz -> -104 dBm
    assert 10 * np.log10(cfg.noise_w) + 30 == pytest.approx(-104.0)


def test_power_levels_ascending_top_is_pmax():
    cfg = EnvConfig(power_levels=4)
    p = cfg.power_level_watts()
    assert len(p) == 4
    assert np.all(np.diff(p) > 0)
    assert p[-1] == pytest.approx(cfg.p_max_w)
    assert 10 * np.log10(p[0] / p[-1]) == pytest.approx(-20.0)


@pytest.mark.parametrize("field, value, error, match", [
    ("top_k", 0, ConfigError, "EnvConfig.top_k must be >= 1, got 0"),
    ("power_levels", 0, ConfigError, "EnvConfig.power_levels must be >= 1, got 0"),
    ("num_remote", -1, ConfigError, "EnvConfig.num_remote must be >= 0, got -1"),
    ("feedback_delay", -1, ConfigError, "EnvConfig.feedback_delay must be >= 0, got -1"),
    ("backhaul_delay", -1, ConfigError, "EnvConfig.backhaul_delay must be >= 0, got -1"),
    ("episode_length", float("nan"), ConfigError,
     "EnvConfig.episode_length must be >= 1, got nan"),
    ("episode_length", 0, ConfigError, "EnvConfig.episode_length must be >= 1, got 0"),
    ("shadow_std_db", -1.0, ConfigError, "shadow_std_db"),      # else reset
    # a config-object row names itself: pytest would number it by its position, so a
    # row added or deleted above would rename it; the ids keep the numbered names
    pytest.param("path_loss", PathLossParams(d_bp=0.0), ValueError, "PathLossParams.d_bp",
                 id="path_loss-value8-ValueError-PathLossParams.d_bp"),
    pytest.param("path_loss", PathLossParams(alpha1=5.0), ValueError, "alpha1",
                 id="path_loss-value9-ValueError-alpha1"),
    pytest.param("path_loss", PathLossParams(d_bp=float("nan")), ConfigError,
                 "PathLossParams.d_bp", id="path_loss-value10-ConfigError-PathLossParams.d_bp"),
    pytest.param("path_loss", PathLossParams(alpha2=float("nan")), ConfigError,
                 "PathLossParams.alpha1",
                 id="path_loss-value11-ConfigError-PathLossParams.alpha1"),
    pytest.param("deployment", DeploymentConfig(num_aps=0), ConfigError,
                 "DeploymentConfig.num_aps",
                 id="deployment-value12-ConfigError-DeploymentConfig.num_aps"),
    pytest.param("deployment", DeploymentConfig(num_aps=4, num_ues=3), ConfigError,
                 "DeploymentConfig.num_ues",
                 id="deployment-value13-ConfigError-DeploymentConfig.num_ues"),
    pytest.param("deployment", DeploymentConfig(area_side=float("nan")), ConfigError,
                 "DeploymentConfig.area_side",
                 id="deployment-value14-ConfigError-DeploymentConfig.area_side"),
    pytest.param("deployment", DeploymentConfig(min_ap_ue_dist=-1.0), ConfigError,
                 "DeploymentConfig.min_ap_ue_dist",
                 id="deployment-value15-ConfigError-DeploymentConfig.min_ap_ue_dist"),
    pytest.param("deployment", DeploymentConfig(min_ap_ap_dist=-1.0), ConfigError,
                 "DeploymentConfig.min_ap_ap_dist must be >= 0, got -1.0",
                 id="deployment-value16-ConfigError-DeploymentConfig.min_ap_ap_dist must be "
                    ">= 0, got -1.0"),
    ("reward_exponent", 1.5, ConfigError,
     r"EnvConfig.reward_exponent must be in \[0, 1\], got 1.5"),
    ("feedback_period", 0, ConfigError, "EnvConfig.feedback_period must be >= 1, got 0"),
    ("doppler_hz", float("nan"), ConfigError, "EnvConfig.doppler_hz must be finite, got nan"),
    ("num_remote", 0, None, None),                              # edges that must pass
    ("feedback_delay", 0, None, None),
    ("backhaul_delay", 0, None, None),
    ("reward_exponent", 0.0, None, None),
    ("reward_exponent", 1.0, None, None),
    ("shadow_std_db", 0.0, None, None),
])
def test_validate_rejects_broken_physics(field, value, error, match):
    """Each range error names Class.field; a row without an error is an edge that passes."""
    with pytest.raises(error, match=match) if error else contextlib.nullcontext():
        NetworkEnv(small_config(**{field: value}))


NUMERIC_FIELDS = [(cls, f.name) for cls in (PathLossParams, DeploymentConfig, EnvConfig,
                                            TrainerConfig)
                  for f in fields(cls) if typing.get_type_hints(cls)[f.name] in (int, float)]


@pytest.mark.parametrize("cls, name", NUMERIC_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in NUMERIC_FIELDS])
def test_validate_refuses_nan_in_every_constrained_field(cls, name):
    """Every numeric field refuses NaN and +-inf as read_config does, so a config built in
    code fails as early as one read from a file. A new field fails here until it has a rule."""
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match=rf"\b{cls.__name__}\.{name}\b"):
            cls(**{name: value}).validate()


def test_config_roundtrip():
    cfg = small_config(top_k=2, power_levels=2)
    again = read_config(EnvConfig, asdict(cfg))
    assert again == cfg


@pytest.mark.parametrize("physics", [
    {"shadow_std_db": 0.0}, {"doppler_hz": 4.0}, {"p_max_dbm": 20.0},
    {"path_loss": PathLossParams(d_bp=50.0)},
    {"deployment": DeploymentConfig(num_aps=2, num_ues=6, area_side=200.0)},
], ids=["shadowing", "doppler", "power", "path-loss", "area"])
def test_fingerprint_sees_physics(physics):
    """Physics-only changes keep the readable sizes but change the digest;
    equal configs, however built, share one fingerprint."""
    cfg = small_config()
    assert read_config(EnvConfig, asdict(cfg)).fingerprint() == cfg.fingerprint()
    assert small_config().fingerprint() == cfg.fingerprint()
    other = small_config(**physics).fingerprint()
    assert other != cfg.fingerprint()
    assert other.rsplit("-", 1)[0] == cfg.fingerprint().rsplit("-", 1)[0] == \
        "N2-K6-k3-n3-p1-T60"


# ------------------------------------------------------------------ obs shape

def local_slots(env):
    """Each agent's local slot -> UE map, read from the latest visible report."""
    return env._latest_visible(0).slots[:-1]


def test_reset_observation_shape_and_defaults():
    env = NetworkEnv(small_config())
    obs = env.reset(seed=0)
    assert obs.shape == (2, env.config.obs_dim)
    # before the first report arrives every entry is a default
    assert np.all(obs[:, 0::2] == DEFAULT_WEIGHT)
    assert np.all(obs[:, 1::2] == DEFAULT_SINR_DB)


def test_obs_dim_independent_of_network_size():
    dims = set()
    for n_aps, k_ues in [(1, 4), (2, 8), (4, 24)]:
        cfg = EnvConfig(deployment=DeploymentConfig(num_aps=n_aps, num_ues=k_ues),
                        episode_length=5)
        env = NetworkEnv(cfg)
        obs = env.reset(seed=1)
        dims.add(obs.shape[1])
        assert cfg.num_actions == 4
    assert dims == {24}


def test_padding_slots_use_defaults():
    # one AP hoards all UEs during association only rarely at K=6/N=2, so
    # force it: single AP with fewer UEs than top_k * (num_remote + 1)
    cfg = EnvConfig(deployment=DeploymentConfig(num_aps=1, num_ues=2),
                    episode_length=30, num_remote=0, top_k=3)
    env = NetworkEnv(cfg)
    env.reset(seed=3)
    for _ in range(25):
        obs, _, _, _ = env.step([1])
    assert local_slots(env)[0, 2] == -1         # third slot is padding
    assert obs[0, 4] == DEFAULT_WEIGHT
    assert obs[0, 5] == DEFAULT_SINR_DB
    # real slots have moved off the defaults by now
    assert obs[0, 0] != DEFAULT_WEIGHT


# ------------------------------------------------------------ feedback timing

def _step_until(env, t, action=0):
    while env.t < t:
        env.step([action] * env.deployment.num_aps)


def test_feedback_visibility_timeline():
    env = NetworkEnv(small_config(episode_length=60))
    env.reset(seed=7)

    _step_until(env, 14)
    assert env.visible_link_values(remote=False)[3] is None  # nothing visible yet

    _step_until(env, 15)  # t=10 report delivered after the 5-interval delay
    assert env.visible_link_values(remote=False)[3] == 10
    assert env.visible_link_values(remote=True)[3] is None   # backhaul still pending

    _step_until(env, 17)
    assert env.visible_link_values(remote=False)[3] == 10

    _step_until(env, 20)  # remote copy needs 5 more intervals
    assert env.visible_link_values(remote=True)[3] == 10

    _step_until(env, 25)
    assert env.visible_link_values(remote=False)[3] == 20
    assert env.visible_link_values(remote=True)[3] == 10


def test_observation_frozen_between_reports():
    env = NetworkEnv(small_config(episode_length=60))
    env.reset(seed=11)
    _step_until(env, 20)  # t=10 report visible both locally and remotely
    obs_a = env._build_observations()
    _step_until(env, 24)  # t=20 report not yet visible anywhere
    obs_b = env._build_observations()
    assert np.array_equal(obs_a, obs_b)
    _step_until(env, 25)
    obs_c = env._build_observations()
    assert not np.array_equal(obs_b, obs_c)


def test_report_contains_stats_at_measurement_time():
    env = NetworkEnv(small_config(episode_length=60))
    env.reset(seed=13)
    weights_at_10 = None
    while env.t < 15:
        if env.t == 10:
            weights_at_10 = env.stats.weight.copy()
        env.step([1, 1])
    w_vis, _, _, t_meas = env.visible_link_values(remote=False)
    assert t_meas == 10
    assert np.array_equal(w_vis, weights_at_10)


# -------------------------------------------------------------- action decode

def test_decode_action_off_and_serve():
    env = NetworkEnv(small_config())
    env.reset(seed=17)
    dec, bad = env.decode_action(0, 0)
    assert dec.off and not bad
    dec, bad = env.decode_action(0, 1)
    assert not bad
    assert dec.ue == local_slots(env)[0, 0]
    assert dec.power_w == pytest.approx(env.config.p_max_w)


def test_decode_action_power_levels_and_slots():
    cfg = small_config(power_levels=2, top_k=2)
    env = NetworkEnv(cfg)
    env.reset(seed=19)
    p_lo, p_hi = cfg.power_level_watts()
    for action, (level, slot) in [(1, (0, 0)), (2, (0, 1)), (3, (1, 0)), (4, (1, 1))]:
        dec, bad = env.decode_action(0, action)
        assert not bad
        assert dec.power_w == pytest.approx([p_lo, p_hi][level])
        assert dec.ue == local_slots(env)[0, slot]


def test_decode_action_out_of_range():
    env = NetworkEnv(small_config())
    env.reset(seed=23)
    with pytest.raises(OutOfRange):
        env.decode_action(0, -1)
    with pytest.raises(OutOfRange):
        env.decode_action(0, env.config.num_actions)


def test_decode_action_refuses_an_agent_outside_the_aps():
    """-1 and N once read the padding row of the slot matrix, -2 wrapped round to
    AP N-1's pool and N+1 raised IndexError."""
    env = NetworkEnv(small_config(deployment=DeploymentConfig(num_aps=4, num_ues=20)))
    env.reset(seed=23)
    n = env.deployment.num_aps
    for agent in (-2, -1, n, n + 1):
        with pytest.raises(OutOfRange, match=f"agent {agent} outside \\[0, {n - 1}\\]"):
            env.decode_action(agent, 1)


def test_observations_are_read_only():
    env = NetworkEnv(small_config())
    for obs in (env.reset(seed=23), env.step([1, 1])[0]):
        with pytest.raises(ValueError, match="read-only"):
            obs[0, 0] = 0.0


def test_step_decodes_kept_actions_as_decode_action_does():
    """The same actions every interval, across report changes: each step's decisions
    are decode_action's under the report visible then, in a list of the step's own."""
    env = NetworkEnv(small_config(episode_length=40))
    env.reset(seed=31)
    lists = []
    while not env.done:
        want = [env.decode_action(i, 1)[0] for i in range(2)]
        lists.append(env.step(np.array([1, 1]))[3]["decisions"])
        assert lists[-1] == want
    assert lists[0] == lists[1] and lists[0] is not lists[1]
    assert len({tuple(d) for d in lists}) > 1       # the local report moved the slots


def test_step_refuses_float_actions_with_the_bytes_of_kept_ones():
    """Integer actions seen through a float view are refused, though their bytes repeat."""
    env = NetworkEnv(small_config())
    env.reset(seed=23)
    actions = np.array([1, 1])
    env.step(actions)
    with pytest.raises(OutOfRange, match="dtype float64"):
        env.step(actions.view(np.float64))


@pytest.mark.parametrize("actions, dtype", [
    ([1.7, 0], "float64"), ([True, False], "bool"), ([float("nan"), 0], "float64"),
], ids=["float", "bool", "nan"])
def test_step_refuses_actions_that_are_not_integers(actions, dtype):
    env = NetworkEnv(small_config())
    env.reset(seed=23)
    with pytest.raises(OutOfRange, match=f"dtype {dtype}"):
        env.step(actions)
    assert env.t == 1
    env.step(np.array([1, 0], dtype=np.uint8))
    assert env.t == 2


def test_invalid_slot_maps_to_off_with_flag():
    cfg = EnvConfig(deployment=DeploymentConfig(num_aps=1, num_ues=2),
                    episode_length=10, num_remote=0, top_k=3)
    env = NetworkEnv(cfg)
    env.reset(seed=29)
    assert local_slots(env)[0, 2] == -1
    dec, bad = env.decode_action(0, 3)   # empty third slot
    assert dec.off and bad



def test_wrong_length_actions_and_decisions_raise():
    env = NetworkEnv(small_config())            # N = 2
    env.reset(seed=73)
    for bad in ([1], [1, 1, 1], np.ones((2, 1), dtype=int), 1):
        with pytest.raises(ValueError, match="expected 2 actions"):
            env.step(bad)
    with pytest.raises(ValueError, match="expected 2 decisions"):
        env.step_decisions([ScheduleDecision.silent()])
    with pytest.raises(ValueError, match="expected 2 invalid flags"):
        env.step_decisions([ScheduleDecision.silent()] * 2, [False])
    assert env.t == 1                           # nothing was stepped

@pytest.mark.parametrize("other_pool", [True, False])
def test_step_decisions_refuses_a_ue_outside_the_aps_pool(other_pool):
    """AP 0 serving one of AP 1's UEs, or a UE id >= K, raises naming both
    before anything is stepped."""
    env = NetworkEnv(small_config())            # N = 2, K = 6
    env.reset(seed=0)
    ue = int(np.flatnonzero(env.association == 1)[-1]) if other_pool else 6
    with pytest.raises(ValueError, match=f"^AP 0 cannot serve UE {ue}: it is not in AP 0's"):
        env.step_decisions([ScheduleDecision(ue, env.p_max_w), ScheduleDecision.silent()])
    assert env.t == 1 and not env.rate_sum.any()


def test_rates_only_episode_makes_no_feedback():
    """reset(feedback=False) returns None, steps give no observations or
    rewards, and reading a report raises instead of reading the defaults."""
    env = NetworkEnv(small_config(episode_length=30))
    assert env.reset(seed=79, feedback=False) is None
    served = [ScheduleDecision(int(np.flatnonzero(env.association == i)[0]),
                               env.config.p_max_w) for i in range(2)]
    for decisions in ([ScheduleDecision.silent()] * 2, served) * 12:
        assert env.step_decisions(decisions)[:2] == (None, None)
    readers = (lambda: env.step([1, 1]), env.agent_top_pf, env.visible_link_values,
               lambda: env.decode_action(0, 1),
               lambda: env.compute_reward(served, env.rate_sum, [False] * 2))
    for read in readers:
        with pytest.raises(RuntimeError, match="rates-only episode"):
            read()
    assert env.t == 25                          # the failed step stepped nothing


# ------------------------------------------------------------- fading samples

@pytest.fixture
def sampled_intervals(monkeypatch):
    """The intervals of every FadingProcess.sample_all call, in order: a block's
    as a list, a single interval t as [t]."""
    calls = []
    sample_all = FadingProcess.sample_all

    def recording(self, t):
        calls.append(np.atleast_1d(t).tolist())
        return sample_all(self, t)

    monkeypatch.setattr(FadingProcess, "sample_all", recording)
    return calls


# back-to-back blocks of the environment's BLOCK_INTERVALS (64) over T=150, the last cut at T
BLOCKS_OF_150 = [list(range(1, 65)), list(range(65, 129)), list(range(129, 151))]


@pytest.mark.parametrize("feedback", [False, True])
def test_all_off_interval_samples_no_fading(sampled_intervals, feedback):
    """From t=1 on, an interval with every AP off gives zero rates and
    interference; it samples nothing itself and reads its slice of the block
    that the reset sampled."""
    env = NetworkEnv(small_config(episode_length=30))
    env.reset(seed=83, feedback=feedback)
    assert sampled_intervals == [list(range(1, 31))]
    read = []
    for t in range(1, 9):                       # t stays short of the first report, at 10
        read.append(env.g2.tobytes())
        _, _, _, info = env.step_decisions([ScheduleDecision.silent()] * 2)
        assert info["t"] == t
        assert not info["rates"].any() and not info["interference"].any()
    assert len(sampled_intervals) == 1
    for t, got in enumerate(read, start=1):
        assert got == (env._power * np.abs(env.fading.sample_all(t)) ** 2).tobytes(), t


def test_returned_gains_never_change(sampled_intervals):
    """Over two episodes of random actions, with a reset mid-block: each interval's
    gains come from one sample_all call, blocks run back to back and none reaches
    past T, a reset samples exactly one block, and an array env.g2 returned keeps
    its bytes through every later step and reset."""
    cfg = EnvConfig(episode_length=150, feedback_period=20)
    env, fresh = NetworkEnv(cfg), NetworkEnv(cfg)
    rng = np.random.default_rng(89)
    kept, episodes = [], []
    for seed, stop in ((89, 100), (90, None)):
        first = len(sampled_intervals)
        env.reset(seed)
        while not env.done and env.t != stop:
            if rng.random() < 0.2:
                kept.append((env.g2, env.g2.tobytes()))
            env.step(rng.integers(0, cfg.num_actions, size=4) * (rng.random(4) < 0.5))
        episodes.append(sampled_intervals[first:])
    assert env.t == 151 and episodes == [BLOCKS_OF_150[:2], BLOCKS_OF_150]
    for e in (fresh, env):                      # env's reset comes after a whole episode
        first = len(sampled_intervals)
        e.reset(90)
        assert sampled_intervals[first:] == [BLOCKS_OF_150[0]]
    assert env.g2.tobytes() == fresh.g2.tobytes()
    assert len(kept) > 10
    assert all(g2.tobytes() == want for g2, want in kept)


def test_full_reuse_samples_every_link_once_per_interval(sampled_intervals):
    """Full reuse reads g2 in every interval: back-to-back blocks of
    BLOCK_INTERVALS intervals, the last one cut at T, and nothing else."""
    env = NetworkEnv(EnvConfig(episode_length=150))
    run_episode([env], [97], BaselinePolicy("full_reuse"))
    assert BLOCK_INTERVALS == 64
    assert sampled_intervals == BLOCKS_OF_150


def test_rates_only_tdm_samples_back_to_back_blocks(sampled_intervals):
    """TDM transmits from one AP per interval, yet samples the blocks that full
    reuse does: every interval reads its slice of the block."""
    env = NetworkEnv(EnvConfig(episode_length=150))
    run_episode([env], [97], BaselinePolicy("tdm"))
    assert not env.feedback                     # rates-only, as every baseline rollout
    assert sampled_intervals == BLOCKS_OF_150


# -------------------------------------------------------------------- rewards

def test_reward_identical_across_agents():
    env = NetworkEnv(small_config())
    env.reset(seed=31)
    _step_until(env, 20, action=1)
    decisions = [env.decode_action(i, 1)[0] for i in range(2)]
    _, rewards, _, _ = env.step_decisions(decisions)
    assert rewards[0] == rewards[1]
    assert rewards[0] > 0


def test_reward_matches_hand_computation():
    env = NetworkEnv(small_config())
    env.reset(seed=31)
    _step_until(env, 20, action=1)
    decisions = [env.decode_action(i, 1)[0] for i in range(2)]
    w_vis = env.visible_link_values(remote=False)[0]
    lam = env.config.reward_exponent
    rates, _ = compute_rates(
        decisions, env.g2, env.config.noise_w, env.association)
    expected = sum(np.power(w_vis[d.ue], lam) * rates[d.ue] for d in decisions)
    rewards = env.compute_reward(decisions, rates, [False, False])
    assert np.allclose(rewards, expected)


def test_reward_exponent_zero_gives_sum_rate():
    env = NetworkEnv(small_config(reward_exponent=0.0))
    env.reset(seed=37)
    _step_until(env, 20, action=1)
    decisions = [env.decode_action(i, 1)[0] for i in range(2)]
    rates, _ = compute_rates(
        decisions, env.g2, env.config.noise_w, env.association)
    rewards = env.compute_reward(decisions, rates, [False, False])
    assert rewards[0] == pytest.approx(sum(rates[d.ue] for d in decisions))


def test_all_off_penalizes_best_agent_only():
    env = NetworkEnv(small_config())
    env.reset(seed=41)
    _step_until(env, 20, action=1)
    decisions = [ScheduleDecision.silent()] * 2
    rates = np.zeros(env.deployment.num_ues)
    rewards = env.compute_reward(decisions, rates, [False, False])
    top = env.agent_top_pf()
    m = int(np.argmax(top))
    assert rewards[m] == pytest.approx(-top[m])
    assert rewards[1 - m] == 0.0
    assert rewards[m] < 0


def test_invalid_agent_gets_zero_even_under_all_off():
    env = NetworkEnv(small_config())
    env.reset(seed=43)
    _step_until(env, 20, action=1)
    decisions = [ScheduleDecision.silent()] * 2
    rates = np.zeros(env.deployment.num_ues)
    top = env.agent_top_pf()
    m = int(np.argmax(top))
    rewards = env.compute_reward(decisions, rates, [i == m for i in range(2)])
    assert np.all(rewards == 0.0)


def test_invalid_agent_zero_while_others_share_reward():
    env = NetworkEnv(small_config())
    env.reset(seed=47)
    _step_until(env, 20, action=1)
    dec0 = env.decode_action(0, 1)[0]
    decisions = [dec0, ScheduleDecision.silent()]
    rates, _ = compute_rates(
        decisions, env.g2, env.config.noise_w, env.association)
    rewards = env.compute_reward(decisions, rates, [False, True])
    assert rewards[1] == 0.0
    assert rewards[0] > 0.0


# ---------------------------------------------------------------- episode flow

def test_episode_terminates_and_refuses_extra_steps():
    env = NetworkEnv(small_config(episode_length=5))
    env.reset(seed=53)
    done = False
    for _ in range(5):
        _, _, done, _ = env.step([0, 0])
    assert done and env.done
    with pytest.raises(EpisodeFinished):
        env.step([0, 0])
    with pytest.raises(EpisodeFinished):
        env.step_decisions([ScheduleDecision.silent()] * 2)


def test_average_rates_accumulate():
    env = NetworkEnv(small_config(episode_length=30))
    env.reset(seed=59)
    total = np.zeros(env.deployment.num_ues)
    for _ in range(30):
        _, _, _, info = env.step([1, 1])
        total += info["rates"]
    assert np.allclose(env.average_rates(), total / 30)
    assert env.average_rates().sum() > 0


def test_reset_same_seed_is_bit_identical():
    env_a, env_b = NetworkEnv(small_config()), NetworkEnv(small_config())
    obs_a, obs_b = env_a.reset(seed=61), env_b.reset(seed=61)
    assert np.array_equal(obs_a, obs_b)
    assert np.array_equal(env_a.deployment.ap_positions, env_b.deployment.ap_positions)
    for _ in range(20):
        ra = env_a.step([1, 1])[1]
        rb = env_b.step([1, 1])[1]
        assert np.array_equal(ra, rb)
    assert np.array_equal(env_a.g2, env_b.g2)


def test_reset_different_seed_differs():
    env = NetworkEnv(small_config())
    env.reset(seed=61)
    pos_a = env.deployment.ap_positions.copy()
    env.reset(seed=62)
    assert not np.array_equal(pos_a, env.deployment.ap_positions)


def test_starved_ue_weight_grows():
    # serve slot 0 every interval: the never-served UEs' weights rise to the cap
    env = NetworkEnv(small_config(episode_length=300))
    env.reset(seed=67)
    served = set()
    for _ in range(299):
        _, _, _, info = env.step([1, 1])
        served |= {d.ue for d in info["decisions"] if not d.off}
    never = [j for j in range(6) if j not in served]
    if never:
        cap = 1.0 / RATE_FLOOR
        assert np.all(env.stats.weight[never] == pytest.approx(cap))


def test_unsorted_variant_fixed_slots():
    cfg = small_config(sort_by_pf=False, top_k=3,
                       deployment=DeploymentConfig(num_aps=2, num_ues=6))
    env = NetworkEnv(cfg)
    env.reset(seed=71)
    slots_a = local_slots(env).copy()
    assert np.bincount(env.association).tolist() == [3, 3]
    for _ in range(40):
        env.step([1, 1])
    assert np.array_equal(slots_a, local_slots(env))   # slots never reshuffle
    with pytest.raises(ConfigError, match="EnvConfig.top_k"):
        # unsorted slots need exactly top_k UEs per AP
        small_config(sort_by_pf=False,
                     deployment=DeploymentConfig(num_aps=2, num_ues=7)).validate()
