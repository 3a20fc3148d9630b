from dataclasses import asdict

import numpy as np
import pytest

from marlsched.channel import PathLossParams
from marlsched.env import (
    ConfigError, EnvConfig, EpisodeFinished, NetworkEnv, OutOfRange, read_config,
)
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


def test_validate_rejects_bad_values():
    with pytest.raises(ConfigError):
        small_config(episode_length=0).validate()
    with pytest.raises(ConfigError):
        small_config(reward_exponent=1.5).validate()
    with pytest.raises(ConfigError):
        small_config(feedback_period=0).validate()
    with pytest.raises(ConfigError):
        # unsorted slots need exactly top_k UEs per AP
        small_config(sort_by_pf=False,
                     deployment=DeploymentConfig(num_aps=2, num_ues=7)).validate()


@pytest.mark.parametrize("field, value, error, match", [
    ("num_sinusoids", 0, ConfigError, "num_sinusoids"),         # NaN sum-rate
    ("bandwidth_hz", 0.0, ConfigError, "bandwidth_hz"),         # all-zero rates
    ("rate_floor", 0.0, ConfigError, "rate_floor"),
    ("interval_duration_s", -1e-3, ConfigError, "interval_duration_s"),
    ("alpha_rate", 0.0, ConfigError, "alpha_rate"),             # else first step
    ("alpha_interference", 1.0, ConfigError, "alpha_interference"),
    ("alpha_rate", float("nan"), ConfigError, "alpha_rate"),
    ("shadow_std_db", -1.0, ConfigError, "shadow_std_db"),      # else reset
    ("path_loss", PathLossParams(d_bp=0.0), ValueError, "break-point"),
    ("path_loss", PathLossParams(alpha1=5.0), ValueError, "alpha1"),
    ("path_loss", PathLossParams(d_bp=float("nan")), ConfigError, "PathLossParams.d_bp"),
    ("path_loss", PathLossParams(alpha2=float("nan")), ConfigError, "PathLossParams.alpha1"),
    ("deployment", DeploymentConfig(num_aps=0), ConfigError, "DeploymentConfig.num_aps"),
    ("deployment", DeploymentConfig(num_aps=4, num_ues=3), ConfigError,
     "DeploymentConfig.num_ues"),
    ("deployment", DeploymentConfig(area_side=float("nan")), ConfigError,
     "DeploymentConfig.area_side"),
    ("deployment", DeploymentConfig(min_ap_ue_dist=-1.0), ConfigError,
     "DeploymentConfig.min_ap_ue_dist"),
])
def test_validate_rejects_broken_physics(field, value, error, match):
    with pytest.raises(error, match=match):
        NetworkEnv(small_config(**{field: value}))


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
    assert np.all(obs[:, 0::2] == env.config.default_weight)
    assert np.all(obs[:, 1::2] == env.config.default_sinr_db)


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
    assert obs[0, 4] == cfg.default_weight
    assert obs[0, 5] == cfg.default_sinr_db
    # real slots have moved off the defaults by now
    assert obs[0, 0] != cfg.default_weight


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

def test_rates_only_episode_makes_no_feedback():
    """reset(feedback=False) returns None, steps give no observations or
    rewards, and reading a report raises instead of reading the defaults."""
    env = NetworkEnv(small_config(episode_length=30))
    assert env.reset(seed=79, feedback=False) is None
    served = [ScheduleDecision.serve(int(np.flatnonzero(env.association == i)[0]),
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
        cap = 1.0 / env.config.rate_floor
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
