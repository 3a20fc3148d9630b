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
from .topology import ConfigError, DeploymentConfig


class OutOfRange(ValueError):
    pass


class EpisodeFinished(RuntimeError):
    pass


def read_config(cls, raw, where: str | None = None):
    """A cls from a JSON object, the one reader of every JSON object read back.

    A field without a default is required, and each value is read as its
    field's annotated type by _read_value. ConfigError names unknown or
    missing keys, or the Class.field.
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
    return cls(**{name: _read_value(hints[name], value, f"{cls.__name__}.{name}")
                  for name, value in raw.items()})


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
    default_weight: float = 0.0
    default_sinr_db: float = -60.0

    p_max_dbm: float = 10.0
    noise_psd_dbm_hz: float = -174.0
    bandwidth_hz: float = 10e6
    alpha_rate: float = 0.01
    alpha_interference: float = 0.05
    rate_floor: float = 1e-3

    path_loss: PathLossParams = field(default_factory=PathLossParams)
    shadow_std_db: float = 7.0
    doppler_hz: float = 8.0             # 1 m/s pedestrian at 2.4 GHz
    interval_duration_s: float = 1e-3
    num_sinusoids: int = 16

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
        noise_dbm = self.noise_psd_dbm_hz + 10.0 * np.log10(self.bandwidth_hz)
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
        if self.episode_length < 1:
            raise ConfigError("episode_length must be >= 1")
        if self.top_k < 1 or self.power_levels < 1 or self.num_remote < 0:
            raise ConfigError("top_k, power_levels >= 1 and num_remote >= 0 required")
        if self.feedback_period < 1 or self.feedback_delay < 0 or self.backhaul_delay < 0:
            raise ConfigError("feedback period must be >= 1 and delays >= 0")
        if not 0.0 <= self.reward_exponent <= 1.0:
            raise ConfigError("reward_exponent must lie in [0, 1]")
        if self.num_sinusoids < 1:
            raise ConfigError("num_sinusoids must be >= 1")
        for name in ("bandwidth_hz", "rate_floor", "interval_duration_s"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("alpha_rate", "alpha_interference"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1)")
        if not self.shadow_std_db >= 0:
            raise ConfigError("shadow_std_db must be >= 0")
        if not self.sort_by_pf:
            if self.deployment.num_ues != self.deployment.num_aps * self.top_k:
                raise ConfigError(
                    "unsorted observations require num_ues == num_aps * top_k")

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
        observations (None here) or rewards, and report readers raise."""
        cfg = self.config
        self.feedback = feedback
        rng = np.random.default_rng(seed)
        dep, self._power, self.association = draw_layout(cfg, rng)
        self.deployment = dep
        self.fading = channel.create_fading(
            dep.num_ues, dep.num_aps, cfg.num_sinusoids, cfg.doppler_hz,
            cfg.interval_duration_s, rng)
        self._index_layout()
        self.stats = LinkStats.initial(dep.num_ues, cfg.rate_floor)
        self.rate_sum = np.zeros(dep.num_ues)
        self._defaults = self._snapshot(
            None, np.full(dep.num_ues, cfg.default_weight),
            np.full(dep.num_ues, cfg.default_sinr_db))
        # ring of reports: report r = t / P lives in slot r % len. The newest
        # report and the oldest one still readable (through the backhaul) are
        # at most (fd + bd) // P + 1 apart, so no readable report is overwritten.
        fd_bd = cfg.feedback_delay + cfg.backhaul_delay
        self._reports = [self._defaults] * (fd_bd // cfg.feedback_period + 2)
        self._done = False
        self.t = 1
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
        """Gains for interval t, plus feedback generation on the report cadence."""
        cfg = self.config
        h = self.fading.sample_all(self.t)
        self.g2 = self._power * np.abs(h) ** 2
        if self.feedback and self.t % cfg.feedback_period == 0:
            report = self._snapshot(self.t, self.stats.weight,
                                    10.0 * np.log10(self._serving_sinr()))
            self._reports[self.t // cfg.feedback_period % len(self._reports)] = report

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
            # primary key -pf (padding last), secondary key the UE id
            key = np.where(order >= 0, -pf[order], np.inf)
            order = np.take_along_axis(order, np.lexsort((order, key), axis=1), axis=1)
        slots = np.full((len(order) + 1, cfg.top_k), -1)
        slots[:-1] = order[:, :cfg.top_k]
        table = np.empty((len(weight) + 1, 2))
        table[:-1, 0], table[:-1, 1] = weight, sinr_db
        table[-1] = cfg.default_weight, cfg.default_sinr_db
        return FeedbackSnapshot(t_measured, pf, slots, table)

    def _latest_visible(self, extra_delay: int) -> FeedbackSnapshot:
        if not self.feedback:
            raise RuntimeError("rates-only episode (reset with feedback=False): no reports")
        cfg = self.config
        r = (self.t - cfg.feedback_delay - extra_delay) // cfg.feedback_period
        return self._reports[r % len(self._reports)] if r > 0 else self._defaults

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
        _block_aps, values from their tables.
        """
        cfg = self.config
        loc, rem = self._latest_visible(0), self._latest_visible(cfg.backhaul_delay)
        local = loc.slots[self._block_aps[:, :1]]            # (N, 1, top_k)
        remote = rem.slots[self._block_aps[:, 1:]]           # (N, num_remote, top_k)
        values = np.concatenate((loc.table[local], rem.table[remote]), axis=1)
        return values.reshape(len(local), cfg.obs_dim)

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
        action with the invalid flag raised.
        """
        ue, power, invalid = self._decode(np.array([agent]), np.array([action]))
        if ue[0] < 0:
            return ScheduleDecision.silent(), bool(invalid[0])
        return ScheduleDecision.serve(int(ue[0]), float(power[0])), False

    def compute_reward(self, decisions, rates, invalid) -> np.ndarray:
        """Weighted sum-rate reward with the all-off and invalid exceptions."""
        cfg = self.config
        w_vis = self._latest_visible(0).table[:, 0]
        served = [dec.ue for dec in decisions if not dec.off]
        rewards = np.full(self.deployment.num_aps, sum(
            (np.power(w_vis[j], cfg.reward_exponent) * rates[j] for j in served), 0.0))
        if not served:
            # nobody transmits, so the sum is 0.0: only the penalty is non-zero
            top = self.agent_top_pf()
            m = int(np.argmax(top))
            rewards[m] = -top[m]
        rewards[np.asarray(invalid, dtype=bool)] = 0.0
        return rewards

    # -------------------------------------------------------------------- step

    def step(self, actions):
        """Advance one interval with per-agent discrete actions, one per AP."""
        if self._done:
            raise EpisodeFinished("episode is over; call reset()")
        actions = np.asarray(actions)
        n_aps = self.deployment.num_aps
        if actions.shape != (n_aps,):
            raise ValueError(f"expected {n_aps} actions, one per AP; "
                             f"got shape {actions.shape}")
        ue, power, invalid = self._decode(self._ap_ids, actions.astype(int, copy=False))
        # decoded UEs and powers are valid, so skip serve()'s checks
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
                                    cfg.alpha_rate, cfg.alpha_interference)
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
        steps = min(self.t - 1, self.config.episode_length)
        return self.rate_sum / max(steps, 1)
