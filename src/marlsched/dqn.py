"""Double DQN with a shared policy, timestep-grouped replay and parallel envs."""

from __future__ import annotations

import os
from dataclasses import dataclass, asdict

import numpy as np

from . import harness
from .env import EnvConfig, NetworkEnv
from .nn import AdamState, Mlp, adam_update, save_checkpoint
from .normalize import PercentileMapper, RewardNormalizer


class BufferUnderfilled(RuntimeError):
    pass


@dataclass
class Transition:
    """All agents of one environment at one interval, stored atomically."""

    obs: np.ndarray        # (N, obs_dim), percentile-mapped
    actions: np.ndarray    # (N,)
    rewards: np.ndarray    # (N,), normalized
    next_obs: np.ndarray   # (N, obs_dim)
    done: bool


class ReplayBuffer:
    """FIFO ring of timestep transitions with uniform batch sampling."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._data: list[Transition] = []
        self._next = 0

    def __len__(self) -> int:
        return len(self._data)

    def push(self, tr: Transition) -> None:
        if len(self._data) < self.capacity:
            self._data.append(tr)
        else:
            self._data[self._next] = tr
            self._next = (self._next + 1) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Transition]:
        if len(self._data) < batch_size:
            raise BufferUnderfilled(
                f"buffer holds {len(self._data)} timesteps, need {batch_size}")
        idx = rng.choice(len(self._data), size=batch_size, replace=False)
        return [self._data[i] for i in idx]


@dataclass
class TrainerConfig:
    num_envs: int = 4
    episodes: int = 2000
    epoch_episodes: int = 10
    buffer_capacity: int = 25_000
    batch_timesteps: int = 1024
    target_sync_intervals: int = 10_000
    train_period_intervals: int = 100
    gamma: float = 0.9
    epsilon_start: float = 1.0
    epsilon_end: float = 0.01
    epsilon_decay_episodes: int = 25
    hidden_units: int = 128
    learning_rate: float = 0.01
    lr_halving_period: int = 5000
    l2_coeff: float = 0.001

    def epsilon(self, episode: int) -> float:
        """Linear decay per episode from start to end, then constant."""
        frac = min(episode / self.epsilon_decay_episodes, 1.0)
        return self.epsilon_start + frac * (self.epsilon_end - self.epsilon_start)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainerConfig":
        return cls(**d)


def select_actions(net: Mlp, mapped_obs: np.ndarray, epsilon: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Per-agent epsilon-greedy over the Q-values (ties -> lowest action id)."""
    mapped_obs = np.atleast_2d(mapped_obs)
    q = net.forward(mapped_obs)
    greedy = np.argmax(q, axis=1)
    explore = rng.random(len(mapped_obs)) < epsilon
    randoms = rng.integers(0, net.out_dim, size=len(mapped_obs))
    return np.where(explore, randoms, greedy)


def compute_double_dqn_targets(batch: list[Transition], online: Mlp, target: Mlp,
                               gamma: float) -> np.ndarray:
    """Per-agent-transition regression targets, flattened in batch order."""
    next_obs = np.concatenate([tr.next_obs for tr in batch])
    rewards = np.concatenate([tr.rewards for tr in batch])
    n_agents = batch[0].next_obs.shape[0]
    not_done = np.concatenate([np.full(n_agents, 0.0 if tr.done else 1.0)
                               for tr in batch])
    best = np.argmax(online.forward(next_obs), axis=1)
    q_next = target.forward(next_obs)[np.arange(len(best)), best]
    return rewards + gamma * not_done * q_next


def train_step(buffer: ReplayBuffer, online: Mlp, target: Mlp, adam: AdamState,
               cfg: TrainerConfig, rng: np.random.Generator) -> float:
    """One gradient step of mean-squared TD error on a concurrent batch."""
    batch = buffer.sample(cfg.batch_timesteps, rng)
    obs = np.concatenate([tr.obs for tr in batch])
    actions = np.concatenate([tr.actions for tr in batch]).astype(int)
    y = compute_double_dqn_targets(batch, online, target, cfg.gamma)
    q = online.forward(obs, cache=True)
    rows = np.arange(len(actions))
    td = q[rows, actions] - y
    loss = float(np.mean(td ** 2))
    grad_out = np.zeros_like(q)
    grad_out[rows, actions] = 2.0 * td
    grads = online.backward(grad_out)
    adam_update(online, grads, adam, cfg.l2_coeff)
    return loss


@dataclass
class EpochRecord:
    epoch: int
    episodes: int
    sum_rate_mbps: float
    pct5_mbps: float
    score: float
    mean_loss: float


@dataclass
class TrainingResult:
    epoch_log: list[EpochRecord]
    checkpoints: list[dict]     # parameter copies per epoch
    best_epoch: int             # 1-based, highest validation score
    best_params: dict

    def best_net(self, template: Mlp) -> Mlp:
        net = template.copy()
        net.set_params(self.best_params)
        return net


class DqnPolicy:
    """Rollout adapter: percentile-map raw observations, then act greedily."""

    kind = "actions"

    def __init__(self, net: Mlp, mapper: PercentileMapper, epsilon: float = 0.0,
                 seed: int = 0):
        self.net = net
        self.mapper = mapper
        self.epsilon = epsilon
        self.rng = np.random.default_rng(seed)

    def act(self, env: NetworkEnv, obs):
        mapped = self.mapper.map_observation_vector(np.asarray(obs))
        return select_actions(self.net, mapped, self.epsilon, self.rng)


def run_training(env_config: EnvConfig, trainer_config: TrainerConfig,
                 mapper: PercentileMapper, reward_norm: RewardNormalizer,
                 validation_seeds, seed: int, out_dir: str | None = None,
                 log=None) -> TrainingResult:
    """Full training loop over lockstep parallel environments.

    All agents in all environments act through one shared online network.
    Training steps and target syncs are triggered by the count of environment
    intervals summed across the parallel environments.
    """
    cfg, tcfg = env_config, trainer_config
    master = np.random.default_rng(seed)
    net = Mlp(cfg.obs_dim, cfg.num_actions, tcfg.hidden_units, rng=master)
    target = net.copy()
    adam = AdamState(base_lr=tcfg.learning_rate, halving_period=tcfg.lr_halving_period)
    buffer = ReplayBuffer(tcfg.buffer_capacity)
    act_rng = np.random.default_rng(master.integers(2 ** 63))
    sample_rng = np.random.default_rng(master.integers(2 ** 63))
    envs = [NetworkEnv(cfg) for _ in range(tcfg.num_envs)]

    epoch_log: list[EpochRecord] = []
    checkpoints: list[dict] = []
    episodes_done = 0
    intervals = 0
    next_train = tcfg.train_period_intervals
    next_sync = tcfg.target_sync_intervals
    next_epoch = tcfg.epoch_episodes
    losses: list[float] = []

    while episodes_done < tcfg.episodes:
        eps = tcfg.epsilon(episodes_done)
        raw_obs = [env.reset(int(master.integers(2 ** 63))) for env in envs]
        mapped = [mapper.map_observation_vector(o) for o in raw_obs]
        done = False
        while not done:
            stacked = np.concatenate(mapped)
            actions = select_actions(net, stacked, eps, act_rng)
            next_mapped = []
            for e, (env, a) in enumerate(zip(envs, actions.reshape(len(envs), -1))):
                obs, rewards, done, info = env.step(a)
                if done:
                    nm = np.zeros_like(mapped[e])
                else:
                    nm = mapper.map_observation_vector(obs)
                buffer.push(Transition(obs=mapped[e], actions=np.asarray(a),
                                       rewards=reward_norm.normalize(rewards),
                                       next_obs=nm, done=done))
                next_mapped.append(nm)
            mapped = next_mapped
            intervals += tcfg.num_envs
            while intervals >= next_train:
                next_train += tcfg.train_period_intervals
                if len(buffer) >= tcfg.batch_timesteps:
                    losses.append(train_step(buffer, net, target, adam, tcfg, sample_rng))
            while intervals >= next_sync:
                next_sync += tcfg.target_sync_intervals
                target = net.copy()
        episodes_done += tcfg.num_envs

        if episodes_done >= next_epoch or episodes_done >= tcfg.episodes:
            while next_epoch <= episodes_done:
                next_epoch += tcfg.epoch_episodes
            epoch = len(epoch_log) + 1
            policy = DqnPolicy(net.copy(), mapper)
            result = harness.evaluate_policy(cfg, policy, validation_seeds)
            rec = EpochRecord(
                epoch=epoch, episodes=episodes_done,
                sum_rate_mbps=result["sum_rate_mbps"], pct5_mbps=result["pct5_mbps"],
                score=result["score"],
                mean_loss=float(np.mean(losses)) if losses else float("nan"))
            losses = []
            epoch_log.append(rec)
            checkpoints.append({k: v.copy() for k, v in net.params.items()})
            if log:
                log(rec)
            if out_dir:
                save_checkpoint(os.path.join(out_dir, f"epoch_{epoch:04d}.ckpt"),
                                net, step=adam.step,
                                extra={"epoch": epoch, "score": rec.score})

    best_idx = int(np.argmax([r.score for r in epoch_log]))
    return TrainingResult(epoch_log=epoch_log, checkpoints=checkpoints,
                          best_epoch=best_idx + 1,
                          best_params=checkpoints[best_idx])
