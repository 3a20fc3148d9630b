"""Double DQN with a shared policy, timestep-grouped replay and parallel envs."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import harness
from .env import EnvConfig, NetworkEnv
from .nn import AdamState, Mlp, adam_update, save_checkpoint
from .normalize import PercentileMapper, RewardNormalizer
from .topology import ConfigError, require


class BufferUnderfilled(RuntimeError):
    pass


class NonFiniteLoss(FloatingPointError):
    pass


@dataclass(frozen=True)
class Transitions:
    """Records as one array per field: obs, next_obs (..., N, obs_dim),
    actions, rewards (..., N) and done (...). A batch iterates as its
    records, each a Transitions without the leading axis."""

    obs: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_obs: np.ndarray
    done: np.ndarray

    def __iter__(self):
        return map(Transitions, self.obs, self.actions, self.rewards, self.next_obs, self.done)


class ReplayBuffer:
    """FIFO ring of timestep records with uniform batch sampling.

    A record holds all agents of one environment at one interval: obs
    (N, obs_dim), actions, rewards (N,) and done. Records come B to a push,
    one lockstep interval of B environments, and each interval after a
    non-done one starts from its predecessor's next_obs. So every observation
    is stored once: record i's next_obs is the obs of record i + B, the
    newest interval's is kept (by reference) until the next push, and a done
    record's reads zeros.

    Observations arrive percentile-mapped, each entry one of the q + 1 levels
    fl(fl(k / q) - 1/2), and the ring stores the level index k of each: one byte
    up to q = 255, two above. sample decodes them with the same two roundings,
    so every bit comes back.
    """

    def __init__(self, capacity: int, q: int):
        self.capacity = capacity
        self.q = q
        self._obs = self._actions = self._rewards = self._done = None   # at the first push
        self._next_obs = None   # the newest interval's next_obs, (B, N, obs_dim)
        self._pushed = 0

    def __len__(self) -> int:
        return min(self._pushed, self.capacity)

    def _encode(self, obs: np.ndarray) -> np.ndarray:
        """obs's level indices; ValueError names an entry that is no level."""
        with np.errstate(over="ignore"):    # a huge entry becomes inf, refused below
            k = np.rint((obs + 0.5) * self.q)
        wrong = ~((k >= 0) & (k <= self.q) & (k / self.q - 0.5 == obs))
        if wrong.any():
            raise ValueError(f"observation entry {obs[wrong][0]} is none of "
                             f"the {self.q + 1} levels k/{self.q} - 1/2")
        return k.astype(self._obs.dtype)

    def push(self, obs, actions, rewards, next_obs, done) -> None:
        """Store one lockstep interval of B environments as B records, in order.

        Raises ValueError when B differs from the first push's, when the last
        interval was not done and obs is not its next_obs, or when an entry
        of obs is no level.
        """
        if not self._pushed:
            self._obs = np.empty((self.capacity, *obs.shape[1:]), np.min_scalar_type(self.q))
            self._actions = np.empty((self.capacity, *actions.shape[1:]), dtype=int)
            self._rewards = np.empty((self.capacity, *rewards.shape[1:]))
            self._done = np.empty(self.capacity, dtype=bool)
        elif len(obs) != len(self._next_obs):
            raise ValueError(f"an interval of {len(obs)} environments after intervals "
                             f"of {len(self._next_obs)}")
        elif not (self._done[(self._pushed - 1) % self.capacity] or obs is self._next_obs):
            raise ValueError("obs is not the next_obs of the last interval, which was not done")
        codes = self._encode(obs)
        idx = (self._pushed + np.arange(len(obs))) % self.capacity
        self._obs[idx] = codes
        self._actions[idx] = actions
        self._rewards[idx] = rewards
        self._done[idx] = done
        self._next_obs = next_obs
        self._pushed += len(obs)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Transitions:
        """batch_size distinct records, each field one contiguous array."""
        if len(self) < batch_size:
            raise BufferUnderfilled(
                f"buffer holds {len(self)} timesteps, need {batch_size}")
        idx = rng.choice(len(self), size=batch_size, replace=False)
        envs = len(self._next_obs)
        age = (self._pushed - 1 - idx) % self.capacity      # 0 for the newest record
        newest = age < envs
        # a newest record's successor slot may be unwritten, so its own stands
        # in until the pending next_obs
        succ = np.where(newest, idx, (idx + envs) % self.capacity)
        obs, next_obs = (np.divide(self._obs[rows], self.q) for rows in (idx, succ))
        obs -= 0.5
        next_obs -= 0.5
        next_obs[newest] = self._next_obs[envs - 1 - age[newest]]
        done = self._done[idx]
        next_obs[done] = 0.0
        return Transitions(obs, self._actions[idx], self._rewards[idx], next_obs, done)


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
    l2_coeff: float = 0.001

    def epsilon(self, episode: int) -> float:
        """Linear decay per episode from start to end, then constant."""
        frac = min(episode / self.epsilon_decay_episodes, 1.0)
        return self.epsilon_start + frac * (self.epsilon_end - self.epsilon_start)

    def validate(self) -> None:
        """Raise ConfigError naming a field whose value would hang, crash or never train."""
        require(self, ">= 1", "num_envs", "episodes", "epoch_episodes", "buffer_capacity",
                "batch_timesteps", "target_sync_intervals", "train_period_intervals",
                "epsilon_decay_episodes", "hidden_units")
        require(self, "in [0, 1]", "gamma", "epsilon_start", "epsilon_end")
        require(self, "> 0", "learning_rate")
        require(self, ">= 0", "l2_coeff")
        if self.buffer_capacity < max(self.num_envs, self.batch_timesteps):
            raise ConfigError(f"TrainerConfig.buffer_capacity {self.buffer_capacity} must "
                              f"hold num_envs {self.num_envs} and batch_timesteps "
                              f"{self.batch_timesteps}")


def select_actions(net: Mlp, mapped_obs: np.ndarray, epsilon: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Epsilon-greedy over the Q-values of each (..., obs_dim) row (ties -> lowest id);
    at epsilon 0 it draws nothing from rng."""
    rows = mapped_obs.reshape(-1, mapped_obs.shape[-1])
    greedy = np.argmax(net.forward(rows), axis=1)
    if epsilon == 0:
        return greedy.reshape(mapped_obs.shape[:-1])
    explore = rng.random(len(rows)) < epsilon
    randoms = rng.integers(0, net.out_dim, size=len(rows))
    return np.where(explore, randoms, greedy).reshape(mapped_obs.shape[:-1])


def compute_double_dqn_targets(batch: Transitions, online: Mlp, target: Mlp,
                               gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-agent-transition regression targets, flattened in batch order, and
    online's Q-values of the flattened obs, cached for the backward.

    The target's parameters are evaluated through the online network's
    workspace, so the target network never allocates one. A row whose next_obs
    equals its obs (no report became visible) takes online's argmax from the
    cached obs pass; only the other rows, done ones included, get a forward of
    their own, so online runs on n + m rows, not 2n. BLAS picks its kernels by
    row count, so the m-row pass may differ from an n-row one in the last bits
    and could move an argmax only at a near-tie.
    """
    n_agents, obs_dim = batch.obs.shape[1:]
    obs = batch.obs.reshape(-1, obs_dim)
    next_obs = batch.next_obs.reshape(-1, obs_dim)
    not_done = np.repeat(1.0 - batch.done, n_agents)
    q_next = online.forward(next_obs, params=target.params)
    fresh = np.flatnonzero((next_obs != obs).any(axis=1) | (not_done == 0.0))
    # before the cached pass, as a plain forward drops the cache the backward reads
    fresh_best = np.argmax(online.forward(next_obs[fresh]), axis=1) if len(fresh) else fresh
    q = online.forward(obs, cache=True)
    best = np.argmax(q, axis=1)
    best[fresh] = fresh_best
    y = batch.rewards.reshape(-1) + gamma * not_done * q_next[np.arange(len(best)), best]
    return y, q


def train_step(buffer: ReplayBuffer, online: Mlp, target: Mlp, adam: AdamState,
               cfg: TrainerConfig, rng: np.random.Generator) -> float:
    """One gradient step of mean-squared TD error on a concurrent batch."""
    batch = buffer.sample(cfg.batch_timesteps, rng)
    actions = batch.actions.reshape(-1)
    y, q = compute_double_dqn_targets(batch, online, target, cfg.gamma)
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


class DqnPolicy:
    """Rollout adapter: percentile-map raw observations, then act epsilon-greedily.
    Actions are read-only; greedy ones return again while map(obs), net and net.writes stay."""

    kind = "actions"

    def __init__(self, net: Mlp, mapper: PercentileMapper, epsilon: float = 0.0,
                 rng: np.random.Generator | None = None):
        self.net = net
        self.mapper = mapper
        self.epsilon = epsilon
        self.rng = np.random.default_rng(0) if rng is None else rng   # not drawn at epsilon 0
        self._raw = self._mapped = None
        self._greedy = (None, None, None, None)     # (mapped, net, net.writes, actions)

    def map(self, obs: np.ndarray) -> np.ndarray:
        """obs mapped; it remembers the last raw array, so training maps each once."""
        if obs is not self._raw:
            self._raw, self._mapped = obs, self.mapper.map_observation_vector(obs)
        return self._mapped

    def act(self, envs, obs):
        mapped, net = self.map(obs), self.net
        kept, kept_net, writes, actions = self._greedy
        if self.epsilon or kept is not mapped or kept_net is not net or writes != net.writes:
            actions = select_actions(net, mapped, self.epsilon, self.rng)
            actions.flags.writeable = False
            self._greedy = (None if self.epsilon else mapped, net, net.writes, actions)
        return actions


def _crossings(total: int, step: int, period: int) -> int:
    """How many multiples of period lie in (total - step, total]."""
    return total // period - (total - step) // period


def run_training(env_config: EnvConfig, trainer_config: TrainerConfig,
                 mapper: PercentileMapper, reward_norm: RewardNormalizer,
                 validation_seeds, seed: int, out_dir: str | None = None,
                 log=None) -> TrainingResult:
    """Full training loop over lockstep parallel environments.

    All agents in all environments act through one shared online network.
    Train steps and target syncs fall due at each multiple of their period
    that the interval count, summed across the parallel environments, passes;
    epochs likewise over episodes, plus one after the last episode. A
    non-finite loss raises NonFiniteLoss naming the train step and the epoch.
    """
    cfg, tcfg = env_config, trainer_config
    tcfg.validate()
    harness.check_seeds(validation_seeds, "validation_seeds")
    if out_dir and not os.path.isdir(out_dir):
        raise NotADirectoryError(f"out_dir {out_dir!r} is not a directory")
    master = np.random.default_rng(seed)
    net = Mlp(cfg.obs_dim, cfg.num_actions, tcfg.hidden_units, rng=master)
    target = net.copy()
    adam = AdamState(base_lr=tcfg.learning_rate)
    buffer = ReplayBuffer(tcfg.buffer_capacity, len(mapper.weight_thresholds))
    act_rng, sample_rng = map(np.random.default_rng, harness.fresh_seeds(master, 2))
    envs = [NetworkEnv(cfg) for _ in range(tcfg.num_envs)]

    epoch_log: list[EpochRecord] = []
    checkpoints: list[dict] = []
    episodes_done = 0
    intervals = 0
    losses: list[float] = []
    policy = DqnPolicy(net, mapper, rng=act_rng)

    def learn(obs, actions, rewards, next_obs, t):
        nonlocal intervals
        mapped = policy.map(obs)
        done = next_obs is None
        mapped_next = np.zeros_like(mapped) if done else policy.map(next_obs)
        buffer.push(mapped, actions, reward_norm.normalize(rewards), mapped_next, done)
        intervals += len(envs)
        for _ in range(_crossings(intervals, len(envs), tcfg.train_period_intervals)):
            if len(buffer) >= tcfg.batch_timesteps:
                loss = train_step(buffer, net, target, adam, tcfg, sample_rng)
                if not np.isfinite(loss):
                    raise NonFiniteLoss(f"train step {adam.step} (epoch "
                                        f"{len(epoch_log) + 1}) gave loss {loss}")
                losses.append(loss)
        if _crossings(intervals, len(envs), tcfg.target_sync_intervals):
            target.load_params(net.params)

    while episodes_done < tcfg.episodes:
        policy.epsilon = tcfg.epsilon(episodes_done)
        harness.run_episode(envs, harness.fresh_seeds(master, len(envs)), policy, learn)
        episodes_done += tcfg.num_envs

        if (_crossings(episodes_done, tcfg.num_envs, tcfg.epoch_episodes)
                or episodes_done >= tcfg.episodes):
            epoch = len(epoch_log) + 1
            result = harness.evaluate_policy(cfg, DqnPolicy(net, mapper), validation_seeds)
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

    best_epoch = int(np.argmax([r.score for r in epoch_log])) + 1
    return TrainingResult(epoch_log=epoch_log, checkpoints=checkpoints, best_epoch=best_epoch)
