"""Episodic multi-agent scheduling environment with delayed feedback."""

from __future__ import annotations

import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, asdict, is_dataclass

import numpy as np

from . import channel, linklevel, topology
from .channel import PathLossParams
from .linklevel import LinkStats, ScheduleDecision
from .topology import ConfigError, DeploymentConfig, require


# The reference setup's fixed system constants; no config field sets them.
DEFAULT_WEIGHT, DEFAULT_SINR_DB = 0.0, -60.0    # an observation slot without a report
NOISE_PSD_DBM_HZ, BANDWIDTH_HZ = -174.0, 10e6   # noise_w: -104 dBm
ALPHA_RATE, ALPHA_INTERFERENCE = 0.01, 0.05     # the link stats' averaging constants
RATE_FLOOR = 1e-3                               # bps/Hz; keeps weights = 1/avg_rate <= 1e3
INTERVAL_DURATION_S = 1e-3
NUM_SINUSOIDS = 16                              # per fading sum
BLOCK_INTERVALS = 64                            # intervals per fading block


class OutOfRange(ValueError):
    pass


class EpisodeFinished(RuntimeError):
    pass


def read_config(cls, raw, where: str | None = None):
    """A cls from a JSON object: the reader of every JSON file read back but the
    checkpoint header, which load_checkpoint reads.

    A field without a default is required, and each value is read as its
    field's annotated type by _read_value. An object whose class has a
    validate() is returned only once that passed, so nested objects are in
    range too. ConfigError names unknown or missing keys, or the Class.field.
    """
    where = where or cls.__name__
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    unknown = [k for k in raw if k not in {f.name for f in fields(cls)}]
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in raw
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{where} lacks {', '.join(missing)}")
    hints = typing.get_type_hints(cls)
    obj = cls(**{name: _read_value(hints[name], value, f"{cls.__name__}.{name}")
                 for name, value in raw.items()})
    if hasattr(obj, "validate"):
        obj.validate()
    return obj


def _read_value(hint, value, name: str):
    """value as a hint: exactly that JSON type, but an int stands for a float, a
    float must be finite, a dataclass reads an object through read_config, and
    list[X] and dict[str, X] read each item as an X."""
    want = typing.get_origin(hint) or hint
    if is_dataclass(want):
        return read_config(want, value, name)
    if want is float and type(value) is int:
        value = float(value)
    elif type(value) is not want:
        raise ConfigError(f"{name} must be {want.__name__}, got {value!r}")
    if want is float and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    if want is list:
        (item,) = typing.get_args(hint)
        value = [_read_value(item, v, f"{name}[{i}]") for i, v in enumerate(value)]
    elif want is dict:
        _, item = typing.get_args(hint)             # JSON keys are strings
        value = {k: _read_value(item, v, f"{name}[{k!r}]") for k, v in value.items()}
    return value


@dataclass
class EnvConfig:
    """Wireless environment parameters; defaults follow the reference setup."""

    deployment: DeploymentConfig = field(default_factory=DeploymentConfig)
    episode_length: int = 2000          # T, scheduling intervals
    top_k: int = 3                      # observable UEs per agent
    num_remote: int = 3                 # remote agents per agent
    power_levels: int = 1               # p, positive transmit power levels
    feedback_period: int = 10           # report cadence, intervals
    feedback_delay: int = 5             # report delivery delay, intervals
    backhaul_delay: int = 5             # extra delay toward remote APs
    reward_exponent: float = 0.8        # lambda on the served UE's weight
    sort_by_pf: bool = True             # False = unsorted fixed-slot variant

    p_max_dbm: float = 10.0
    path_loss: PathLossParams = field(default_factory=PathLossParams)
    shadow_std_db: float = 7.0
    doppler_hz: float = 8.0             # 1 m/s pedestrian at 2.4 GHz

    @property
    def obs_dim(self) -> int:
        return 2 * (self.num_remote + 1) * self.top_k

    @property
    def num_actions(self) -> int:
        return 1 + self.power_levels * self.top_k

    @property
    def p_max_w(self) -> float:
        return 10.0 ** ((self.p_max_dbm - 30.0) / 10.0)

    @property
    def noise_w(self) -> float:
        noise_dbm = NOISE_PSD_DBM_HZ + 10.0 * np.log10(BANDWIDTH_HZ)
        return 10.0 ** ((noise_dbm - 30.0) / 10.0)

    def power_level_watts(self) -> np.ndarray:
        """Positive transmit power levels, ascending; the top one is P_max.

        Levels are uniform in dB over [P_max - 20 dB, P_max].
        """
        if self.power_levels == 1:
            return np.array([self.p_max_w])
        dbm = np.linspace(self.p_max_dbm - 20.0, self.p_max_dbm, self.power_levels)
        return 10.0 ** ((dbm - 30.0) / 10.0)

    def validate(self) -> None:
        self.deployment.validate()
        self.path_loss.validate()
        require(self, ">= 1", "episode_length", "top_k", "power_levels", "feedback_period")
        require(self, ">= 0", "num_remote", "feedback_delay", "backhaul_delay",
                "shadow_std_db")
        require(self, "in [0, 1]", "reward_exponent")
        require(self, "finite", "p_max_dbm", "doppler_hz")
        dep = self.deployment
        if not self.sort_by_pf and dep.num_ues != dep.num_aps * self.top_k:
            raise ConfigError(f"EnvConfig.top_k {self.top_k}: unsorted observations need "
                              f"num_ues {dep.num_ues} == num_aps {dep.num_aps} * top_k")

    def fingerprint(self) -> str:
        """Readable sizes, then 8 hex digits of SHA-256 over every field."""
        import hashlib  # here, not at the top: it adds ~4 ms to every package import

        dep = self.deployment
        canonical = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:8]
        return (f"N{dep.num_aps}-K{dep.num_ues}-k{self.top_k}-n{self.num_remote}"
                f"-p{self.power_levels}-T{self.episode_length}-{digest}")


def draw_layout(cfg: EnvConfig, rng: np.random.Generator):
    """One realization's (deployment, long-term power gains (K, N), association).

    The one place a layout is drawn; NetworkEnv.reset and the interferer
    analysis both call it. Unsorted observations get pools of exactly top_k.
    """
    dep = topology.generate_deployment(cfg.deployment, rng)
    power = channel.draw_long_term_gains(dep, cfg.path_loss, cfg.shadow_std_db, rng).power
    assoc = topology.associate_max_rsrp(power)
    if not cfg.sort_by_pf:
        assoc = topology.balance_pools(assoc, power, cfg.top_k)
    return dep, power, assoc


@dataclass(frozen=True)
class FeedbackSnapshot:
    """Synchronous report of all UEs' (weight, SINR) measured at t_measured.

    A report is built whole when it is made and never changes, so every
    reader of one report sees the same bits. t_measured is None for the
    defaults visible before the first report.

    pf = weight * log2(1 + 10**(sinr_db/10)). `slots` holds each AP's pool in
    observation-slot order (descending pf with ties to the lower UE id;
    ascending UE id when observations are unsorted), cut to top_k and padded
    with -1; `table` the (weight, sinr_db) pair of every UE. Both end with a
    padding row (slots: all -1; table: the default pair), so gathering with
    index -1 yields padding.
    """

    t_measured: int | None
    pf: np.ndarray          # (K,)
    slots: np.ndarray       # (N + 1, top_k) UE ids
    table: np.ndarray       # (K + 1, 2) (weight, sinr_db) per UE


class NetworkEnv:
    """One multi-AP downlink network instance stepped interval by interval.

    Single-writer: step() mutates the instance. Run independent instances
    (with independent seeds) for parallel data collection.
    """

    def __init__(self, config: EnvConfig):
        config.validate()
        self.config = config
        self.t = 0
        self._done = True

    # ------------------------------------------------------------------ reset

    def reset(self, seed: int, feedback: bool = True) -> np.ndarray | None:
        """Start a new episode: fresh deployment, gains, fading and stats.
        feedback=False, which run_episode decides, makes it rates-only: no reports,
        observations (None here) or rewards, and report readers raise. Returns the
        read-only (N, obs_dim) observations, kept as _build_observations says."""
        cfg = self.config
        self.feedback = feedback
        rng = np.random.default_rng(seed)
        dep, self._power, self.association = draw_layout(cfg, rng)
        self.deployment = dep
        self.fading = channel.create_fading(
            dep.num_ues, dep.num_aps, NUM_SINUSOIDS, cfg.doppler_hz, INTERVAL_DURATION_S, rng)
        self._index_layout()
        self._block = None
        k = dep.num_ues
        self.stats = LinkStats(np.full(k, RATE_FLOOR), np.zeros(k), RATE_FLOOR)
        self.rate_sum = np.zeros(k)
        # report r is made at t = r * P, so it is element r; element 0 holds the defaults
        self._reports = [self._snapshot(None, np.full(k, DEFAULT_WEIGHT),
                                        np.full(k, DEFAULT_SINR_DB))]
        self._done = False
        self.t = 1
        self._kept_obs = (None, None)    # a key only: nothing kept yet
        self._refresh_interval_state()
        return self._build_observations() if feedback else None

    def _index_layout(self):
        """Per-episode constants of the interval path.

        _pool_matrix (N, W): each AP's pool UE ids ascending, padded with -1;
        W = max(largest pool, top_k), so every row has top_k slots.
        _block_aps (N, num_remote + 1): the AP behind each observation block,
        the agent itself first and then its remote APs by ascending distance;
        -1 marks a missing block (num_remote >= N).
        """
        cfg, dep = self.config, self.deployment
        n_aps = dep.num_aps
        self._ap_ids = np.arange(n_aps)
        self._ue_ids = np.arange(dep.num_ues)
        counts = np.bincount(self.association, minlength=n_aps)
        self._pool_matrix = np.full((n_aps, max(counts.max(), cfg.top_k)), -1)
        for i in self._ap_ids:
            self._pool_matrix[i, :counts[i]] = np.flatnonzero(self.association == i)
        remote = topology.nearest_remote_agents(dep.ap_positions, cfg.num_remote)
        self._block_aps = np.full((n_aps, cfg.num_remote + 1), -1)
        self._block_aps[:, 0] = self._ap_ids
        self._block_aps[:, 1:1 + remote.shape[1]] = remote
        # action a >= 1 selects slot (a-1) % top_k at power level (a-1) // top_k;
        # action 0 is off (its slot entry is a placeholder)
        self._action_slot = np.r_[0, np.tile(np.arange(cfg.top_k), cfg.power_levels)]
        self._action_power = np.r_[0.0, np.repeat(cfg.power_level_watts(), cfg.top_k)]
        self.p_max_w, self.noise_w = cfg.p_max_w, cfg.noise_w   # each read runs a log/pow

    # ------------------------------------------------------------- per-interval

    def _refresh_interval_state(self):
        """Start interval t: its (K, N) power gains g2 = |h_ji(t)|^2, never written
        after they are set, then a report on the cadence. An interval that no block
        covers samples the block [t, min(t + L, T + 1)) in one sample_all call,
        L = BLOCK_INTERVALS, and keeps it as (L, K, N); g2 is t's slice."""
        cfg = self.config
        if self._block is None or self.t - self._block_start >= len(self._block):
            stop = min(self.t + BLOCK_INTERVALS, cfg.episode_length + 1)
            h = self.fading.sample_all(np.arange(self.t, stop))
            self._block, self._block_start = self._power * np.abs(h) ** 2, self.t
        self.g2 = self._block[self.t - self._block_start]
        if self.feedback and self.t % cfg.feedback_period == 0:
            self._reports.append(self._snapshot(self.t, self.stats.weight,
                                                10.0 * np.log10(self._serving_sinr())))

    def _serving_sinr(self) -> np.ndarray:
        """Every UE's measured SINR toward its serving AP at full power."""
        return linklevel.measured_sinr(
            self.g2[self._ue_ids, self.association],
            self.p_max_w, self.stats.avg_interference, self.noise_w)

    def _snapshot(self, t_measured, weight, sinr_db) -> FeedbackSnapshot:
        """A complete report: pf, the slot matrix and the value table."""
        cfg = self.config
        pf = linklevel.pf_ratio(weight, 10.0 ** (sinr_db / 10.0))
        order = self._pool_matrix
        if cfg.sort_by_pf:
            # key -pf, padding last; pool rows ascend, so a stable sort breaks ties by UE id
            key = np.where(order >= 0, -pf[order], np.inf)
            order = np.take_along_axis(order, np.argsort(key, axis=1, kind="stable"), axis=1)
        slots = np.full((len(order) + 1, cfg.top_k), -1)
        slots[:-1] = order[:, :cfg.top_k]
        table = np.empty((len(weight) + 1, 2))
        table[:-1, 0], table[:-1, 1] = weight, sinr_db
        table[-1] = DEFAULT_WEIGHT, DEFAULT_SINR_DB
        return FeedbackSnapshot(t_measured, pf, slots, table)

    def _latest_visible(self, extra_delay: int) -> FeedbackSnapshot:
        if not self.feedback:
            raise RuntimeError("rates-only episode (reset with feedback=False): no reports")
        cfg = self.config
        r = (self.t - cfg.feedback_delay - extra_delay) // cfg.feedback_period
        return self._reports[max(r, 0)]

    def visible_link_values(self, remote: bool = False):
        """Delayed per-UE (weight, sinr_db, pf, t_measured) as seen by the APs.

        remote=True applies the extra backhaul delay. Defaults fill in before
        the first report becomes visible (t_measured is then None).
        """
        snap = self._latest_visible(self.config.backhaul_delay if remote else 0)
        return snap.table[:-1, 0], snap.table[:-1, 1], snap.pf, snap.t_measured

    def _build_observations(self) -> np.ndarray:
        """Fixed-size (N, obs_dim) per-agent observation vectors, one gather.

        Layout per agent: (local block, then remote blocks by ascending AP
        distance), each block holding top_k (weight, sinr_db) slot pairs.
        The local block reads the latest locally visible report, the remote
        blocks the latest one visible over the backhaul, in that report's slot
        order; slots beyond the pool, and whole blocks beyond the available
        remote APs, are padding with the default (weight, sinr_db). Only
        gathers: UE ids from the two reports' slot matrices through
        _block_aps, values from their tables. The array is read-only and kept:
        the same object returns until either of the two reports changes.
        """
        loc, rem = self._latest_visible(0), self._latest_visible(self.config.backhaul_delay)
        if self._kept_obs[0] is not loc or self._kept_obs[1] is not rem:
            local = loc.slots[self._block_aps[:, :1]]            # (N, 1, top_k)
            remote = rem.slots[self._block_aps[:, 1:]]           # (N, num_remote, top_k)
            values = np.concatenate((loc.table[local], rem.table[remote]), axis=1)
            values.flags.writeable = False
            self._kept_obs = (loc, rem, values.reshape(len(local), self.config.obs_dim))
        return self._kept_obs[2]

    def pool_argmax(self, values: np.ndarray) -> np.ndarray:
        """Each AP's pool UE with the largest value; ties go to the lowest UE id.

        Pools are never empty. Pool matrix rows are ascending and argmax takes
        the first maximum, so the lowest id wins a tie.
        """
        pools = self._pool_matrix
        best = np.where(pools >= 0, values[pools], -np.inf).argmax(axis=1)
        return pools[self._ap_ids, best]

    def agent_top_pf(self) -> np.ndarray:
        """Each agent's highest locally visible PF ratio (reward rule input)."""
        pf = self._latest_visible(0).pf
        return pf[self.pool_argmax(pf)]

    def true_pf(self) -> np.ndarray:
        """Ground-truth PF ratios from current stats and instantaneous gains.

        Used by the centralized baselines, which bypass the feedback pipeline.
        """
        return linklevel.pf_ratio(self.stats.weight, self._serving_sinr())

    # ------------------------------------------------------------------ actions

    def _decode(self, agents: np.ndarray, actions: np.ndarray):
        """Decode the 1-D integer actions of the matching agents in one gather.

        Slots come from the latest locally visible report, whose row i is
        agent i's local block. Returns (ue, power_w, invalid) arrays; ue is -1
        where the agent stays off, and invalid marks an empty selected slot.
        """
        if actions.dtype.kind not in "iu":
            raise OutOfRange(f"actions must be integers, got dtype {actions.dtype}")
        top = len(self._action_slot) - 1
        listed = actions.tolist()
        if min(listed) < 0 or max(listed) > top:
            bad = next(a for a in listed if not 0 <= a <= top)
            raise OutOfRange(f"action {bad} outside [0, {top}]")
        on = actions > 0
        slots = self._latest_visible(0).slots
        ue = np.where(on, slots[agents, self._action_slot[actions]], -1)
        return ue, self._action_power[actions], on & (ue < 0)

    def decode_action(self, agent: int, action: int):
        """Map a discrete action id to a schedule decision.

        Returns (decision, invalid): selecting an empty slot maps to the off
        action with the invalid flag raised. An agent outside [0, N) raises OutOfRange.
        """
        if not 0 <= agent < self.deployment.num_aps:
            raise OutOfRange(f"agent {agent} outside [0, {self.deployment.num_aps - 1}]")
        ue, power, invalid = self._decode(np.array([agent]), np.array([action]))
        if ue[0] < 0:
            return ScheduleDecision.silent(), bool(invalid[0])
        return ScheduleDecision(int(ue[0]), float(power[0])), False

    def compute_reward(self, decisions, rates, invalid) -> np.ndarray:
        """Weighted sum-rate reward with the all-off and invalid exceptions."""
        cfg = self.config
        w_vis = self._latest_visible(0).table[:, 0]
        served = [dec.ue for dec in decisions if not dec.off]
        terms = np.power(w_vis[served], cfg.reward_exponent) * rates[served]
        # added left to right, in decision order (Python's sum compensates from 3.12)
        rewards = np.full(self.deployment.num_aps, np.cumsum(terms)[-1] if served else 0.0)
        if not served:
            # nobody transmits, so the sum is 0.0: only the penalty is non-zero
            top = self.agent_top_pf()
            m = int(np.argmax(top))
            rewards[m] = -top[m]
        rewards[np.asarray(invalid, dtype=bool)] = 0.0
        return rewards

    # -------------------------------------------------------------------- step

    def step(self, actions):
        """Advance one interval with per-agent discrete actions, one per AP; obs as reset's."""
        if self._done:
            raise EpisodeFinished("episode is over; call reset()")
        actions = np.asarray(actions)
        n_aps = self.deployment.num_aps
        if actions.shape != (n_aps,):
            raise ValueError(f"expected {n_aps} actions, one per AP; "
                             f"got shape {actions.shape}")
        ue, power, invalid = self._decode(self._ap_ids, actions)
        decisions = [ScheduleDecision(j, p) if j >= 0 else ScheduleDecision.silent()
                     for j, p in zip(ue.tolist(), power.tolist())]
        return self.step_decisions(decisions, invalid)

    def step_decisions(self, decisions, invalid=None):
        """Advance one interval with explicit decisions, one per AP (baseline fast path);
        obs and rewards are None in a rates-only episode (see reset)."""
        if self._done:
            raise EpisodeFinished("episode is over; call reset()")
        cfg = self.config
        n_aps = self.deployment.num_aps
        if len(decisions) != n_aps:
            raise ValueError(f"expected {n_aps} decisions, one per AP; "
                             f"got {len(decisions)}")
        if invalid is None:
            invalid = [False] * n_aps
        elif len(invalid) != n_aps:
            raise ValueError(f"expected {n_aps} invalid flags, one per AP; "
                             f"got {len(invalid)}")
        rates, interference = linklevel.compute_rates(
            decisions, self.g2, self.noise_w, self.association)
        rewards = self.compute_reward(decisions, rates, invalid) if self.feedback else None
        self.rate_sum += rates
        linklevel.update_link_stats(self.stats, rates, interference,
                                    ALPHA_RATE, ALPHA_INTERFERENCE)
        info = {"rates": rates, "interference": interference,
                "decisions": decisions, "t": self.t}
        self.t += 1
        self._done = self.t > cfg.episode_length
        if not self._done:
            self._refresh_interval_state()
        obs = self._build_observations() if self.feedback and not self._done else None
        return obs, rewards, self._done, info

    @property
    def done(self) -> bool:
        return self._done

    def average_rates(self) -> np.ndarray:
        """Per-UE time-average rates R_sum/T over the intervals stepped so far."""
        return self.rate_sum / max(self.t - 1, 1)
