import numpy as np

ACCEPTANCE_VERDICTS: list[str] = []


def levels(q: int) -> np.ndarray:
    """The Q+1 values of a percentile-mapped entry, fl(fl(k / Q) - 1/2) for k = 0..Q:
    the roundings of normalize.map_observation and of dqn.ReplayBuffer's decode."""
    return np.arange(q + 1) / q - 0.5


def rollout_ring(seed=0, episode_length=300):
    """A replay ring filled as run_training fills it: one episode of TrainerConfig's
    num_envs default-config environments in lockstep (episode_length aside), acting
    uniformly at random, observations percentile-mapped with thresholds fitted on a
    full-reuse rollout. An observation changes only when a report becomes visible,
    so most records' next_obs equal their obs; the last interval's are done."""
    from marlsched import normalize
    from marlsched.cli import DEFAULT_Q_LEVELS
    from marlsched.dqn import DqnPolicy, ReplayBuffer, TrainerConfig
    from marlsched.env import EnvConfig, NetworkEnv
    from marlsched.harness import run_episode
    from marlsched.nn import Mlp

    cfg, tc = EnvConfig(episode_length=episode_length), TrainerConfig()
    rng = np.random.default_rng(seed)
    fit_cfg = EnvConfig(episode_length=500)
    mapper, reward_norm = normalize.fit(
        normalize.collect_offline_dataset(fit_cfg, ["full_reuse"], 1, rng), DEFAULT_Q_LEVELS)
    net = Mlp(cfg.obs_dim, cfg.num_actions, tc.hidden_units, rng=rng)
    policy = DqnPolicy(net, mapper, epsilon=1.0, rng=rng)
    ring = ReplayBuffer(tc.num_envs * episode_length, DEFAULT_Q_LEVELS)

    def push(obs, actions, rewards, next_obs, t):
        mapped, done = policy.map(obs), next_obs is None
        ring.push(mapped, actions, reward_norm.normalize(rewards),
                  np.zeros_like(mapped) if done else policy.map(next_obs), done)

    envs = [NetworkEnv(cfg) for _ in range(tc.num_envs)]
    run_episode(envs, [seed + i for i in range(tc.num_envs)], policy, push)
    return ring


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
