"""Episodic multi-agent scheduling environment with delayed feedback."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import channel, linklevel, topology
from .channel import PathLossParams
from .linklevel import LinkStats, ScheduleDecision
from .topology import DeploymentConfig


class ConfigError(ValueError):
    pass


class OutOfRange(ValueError):
    pass


class EpisodeFinished(RuntimeError):
    pass


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
        if self.episode_length < 1:
            raise ConfigError("episode_length must be >= 1")
        if self.top_k < 1 or self.power_levels < 1 or self.num_remote < 0:
            raise ConfigError("top_k, power_levels >= 1 and num_remote >= 0 required")
        if self.feedback_period < 1 or self.feedback_delay < 0 or self.backhaul_delay < 0:
            raise ConfigError("feedback period must be >= 1 and delays >= 0")
        if not 0.0 <= self.reward_exponent <= 1.0:
            raise ConfigError("reward_exponent must lie in [0, 1]")
        if not self.sort_by_pf:
            if self.deployment.num_ues != self.deployment.num_aps * self.top_k:
                raise ConfigError(
                    "unsorted observations require num_ues == num_aps * top_k")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EnvConfig":
        d = dict(d)
        if "deployment" in d:
            d["deployment"] = DeploymentConfig(**d["deployment"])
        if "path_loss" in d:
            d["path_loss"] = PathLossParams(**d["path_loss"])
        return cls(**d)

    def fingerprint(self) -> str:
        dep = self.deployment
        return (f"N{dep.num_aps}-K{dep.num_ues}-k{self.top_k}-n{self.num_remote}"
                f"-p{self.power_levels}-T{self.episode_length}")


@dataclass
class FeedbackSnapshot:
    """Synchronous report of all UEs' (weight, SINR) measured at t_measured.

    A report is frozen once made; readers only pick a snapshot. Its
    pf = weight * log2(1 + 10**(sinr_db/10)) is computed once, when the
    report is made, so every reader of one report sees the same bits.
    t_measured is None for the defaults visible before the first report.

    The observation build fills in, on first use, `slots`: each AP's pool in
    observation-slot order (descending pf with ties to the lower UE id;
    ascending UE id when observations are unsorted), cut to top_k and padded
    with -1; and `table`: the (weight, sinr_db) pair of every UE. Both end
    with a padding row (slots: all -1; table: the default pair), so
    gathering with index -1 yields padding.
    """

    t_measured: int | None
    weight: np.ndarray                 # (K,)
    sinr_db: np.ndarray                # (K,)
    pf: np.ndarray                     # (K,)
    slots: np.ndarray | None = None    # (N + 1, top_k) UE ids
    table: np.ndarray | None = None    # (K + 1, 2) (weight, sinr_db) per UE


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

    def reset(self, seed: int) -> np.ndarray:
        """Start a new episode: fresh deployment, gains, fading and stats."""
        cfg = self.config
        rng = np.random.default_rng(seed)
        dep = topology.generate_deployment(cfg.deployment, rng)
        gains = channel.draw_long_term_gains(dep, cfg.path_loss, cfg.shadow_std_db, rng)
        assoc = topology.associate_max_rsrp(gains.power)
        if not cfg.sort_by_pf:
            assoc = topology.balance_pools(assoc, gains.power, cfg.top_k)
        dep.association = assoc
        dep.remote_agents = topology.nearest_remote_agents(dep.ap_positions, cfg.num_remote)
        self.deployment = dep
        self.long_term = gains
        self.fading = channel.create_fading(
            dep.num_ues, dep.num_aps, cfg.num_sinusoids, cfg.doppler_hz,
            cfg.interval_duration_s, rng)
        self.pools = dep.pools()
        self.association = assoc
        self._index_layout()
        self.stats = LinkStats.initial(dep.num_ues, cfg.rate_floor)
        self.rate_sum = np.zeros(dep.num_ues)
        self._snapshots: list[FeedbackSnapshot] = []
        self._defaults = self._snapshot(
            None, np.full(dep.num_ues, cfg.default_weight),
            np.full(dep.num_ues, cfg.default_sinr_db))
        self._done = False
        self.t = 1
        self._refresh_interval_state()
        obs, slots, mask = self._build_observations()
        self._slot_map, self._last_obs_mask = slots, mask
        return obs

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
        width = max(max(len(pool) for pool in self.pools), cfg.top_k)
        self._pool_matrix = np.full((n_aps, width), -1)
        self._block_aps = np.full((n_aps, cfg.num_remote + 1), -1)
        for i, (pool, remote) in enumerate(zip(self.pools, dep.remote_agents)):
            self._pool_matrix[i, :len(pool)] = pool
            self._block_aps[i, 0] = i
            self._block_aps[i, 1:1 + len(remote)] = remote
        self._ap_ids = np.arange(n_aps)
        self._ue_ids = np.arange(dep.num_ues)
        self._power = self.long_term.power
        # action a >= 1 selects slot (a-1) % top_k at power level (a-1) // top_k;
        # action 0 is off (its slot entry is a placeholder)
        self._action_slot = np.r_[0, np.tile(np.arange(cfg.top_k), cfg.power_levels)]
        self._action_power = np.r_[0.0, np.repeat(cfg.power_level_watts(), cfg.top_k)]

    # ------------------------------------------------------------- per-interval

    def _refresh_interval_state(self):
        """Gains for interval t, plus feedback generation on the report cadence."""
        cfg = self.config
        h = self.fading.sample_all(self.t)
        self.g2 = self._power * np.abs(h) ** 2
        if self.t % cfg.feedback_period == 0:
            sinr = linklevel.measured_sinr(
                self.g2[self._ue_ids, self.association],
                cfg.p_max_w, self.stats.avg_interference, cfg.noise_w)
            self._snapshots.append(self._snapshot(
                self.t, self.stats.weight.copy(), 10.0 * np.log10(sinr)))
        # drop snapshots that can never be the latest visible one again
        horizon = self.t - cfg.feedback_delay - cfg.backhaul_delay
        while len(self._snapshots) >= 2 and self._snapshots[1].t_measured <= horizon:
            self._snapshots.pop(0)

    def _snapshot(self, t_measured, weight, sinr_db) -> FeedbackSnapshot:
        pf = linklevel.pf_ratio(weight, 10.0 ** (sinr_db / 10.0))
        return FeedbackSnapshot(t_measured, weight, sinr_db, pf)

    def _observation_tables(self, snap: FeedbackSnapshot):
        """snap's slot matrix and value table, built once on first use.

        Rollouts that never build observations (the baselines) skip this.
        """
        if snap.slots is None:
            cfg = self.config
            order = self._pool_matrix
            if cfg.sort_by_pf:
                # primary key -pf (padding last), secondary key the UE id
                key = np.where(order >= 0, -snap.pf[order], np.inf)
                order = np.take_along_axis(order, np.lexsort((order, key), axis=1), axis=1)
            snap.slots = np.full((len(order) + 1, cfg.top_k), -1)
            snap.slots[:-1] = order[:, :cfg.top_k]
            snap.table = np.empty((len(snap.weight) + 1, 2))
            snap.table[:-1, 0], snap.table[:-1, 1] = snap.weight, snap.sinr_db
            snap.table[-1] = cfg.default_weight, cfg.default_sinr_db
        return snap.slots, snap.table

    def _latest_visible(self, extra_delay: int) -> FeedbackSnapshot:
        limit = self.t - self.config.feedback_delay - extra_delay
        vis = self._defaults
        for snap in self._snapshots:
            if snap.t_measured <= limit:
                vis = snap
        return vis

    def visible_link_values(self, remote: bool = False):
        """Delayed per-UE (weight, sinr_db, pf, t_measured) as seen by the APs.

        remote=True applies the extra backhaul delay. Defaults fill in before
        the first report becomes visible (t_measured is then None).
        """
        snap = self._latest_visible(self.config.backhaul_delay if remote else 0)
        return snap.weight, snap.sinr_db, snap.pf, snap.t_measured

    def _build_observations(self):
        """Fixed-size per-agent observation vectors, gathered in one pass.

        Layout per agent: (local block, then remote blocks by ascending AP
        distance), each block holding top_k (weight, sinr_db) slot pairs.
        The local block reads the latest locally visible report, the remote
        blocks the latest one visible over the backhaul. A block's slots are
        its AP's pool ordered by that report's pf, descending, with ties to
        the lower UE id (unsorted variant: ascending UE id); slots beyond the
        pool, and whole blocks beyond the available remote APs, are padding
        with the default (weight, sinr_db).

        pf is frozen per report. Each report's slot order is sorted once, on
        first use, from the pool matrix (N, W) of ascending pool UE ids padded
        with -1, by np.lexsort on (-pf, UE id) with padding last. This call
        only gathers: the (N, num_remote + 1, top_k) UE ids from the reports'
        slot matrices through _block_aps, and the values from their tables.
        Returns (obs (N, obs_dim), local slot->UE map (N, top_k), padding mask).
        """
        cfg = self.config
        loc_slots, loc_table = self._observation_tables(self._latest_visible(0))
        rem_slots, rem_table = self._observation_tables(
            self._latest_visible(cfg.backhaul_delay))
        local = loc_slots[self._block_aps[:, :1]]            # (N, 1, top_k)
        remote = rem_slots[self._block_aps[:, 1:]]           # (N, num_remote, top_k)
        values = np.concatenate((loc_table[local], rem_table[remote]), axis=1)
        obs = values.reshape(len(local), cfg.obs_dim)
        pad = np.concatenate((local, remote), axis=1) < 0
        mask = np.repeat(pad.reshape(len(local), -1), 2, axis=1)
        return obs, local[:, 0], mask

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
        cfg = self.config
        sinr = linklevel.measured_sinr(
            self.g2[self._ue_ids, self.association],
            cfg.p_max_w, self.stats.avg_interference, cfg.noise_w)
        return linklevel.pf_ratio(self.stats.weight, sinr)

    # ------------------------------------------------------------------ actions

    def _decode(self, agents: np.ndarray, actions: np.ndarray):
        """Decode the 1-D integer actions of the matching agents in one gather.

        Returns (ue, power_w, invalid) arrays; ue is -1 where the agent stays
        off, and invalid marks a selected slot that is empty.
        """
        top = len(self._action_slot) - 1
        listed = actions.tolist()
        if min(listed) < 0 or max(listed) > top:
            bad = next(a for a in listed if not 0 <= a <= top)
            raise OutOfRange(f"action {bad} outside [0, {top}]")
        on = actions > 0
        ue = np.where(on, self._slot_map[agents, self._action_slot[actions]], -1)
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
        w_vis, _, _, _ = self.visible_link_values(remote=False)
        r = 0.0
        any_tx = False
        for i, dec in enumerate(decisions):
            if not dec.off:
                any_tx = True
                r += np.power(w_vis[dec.ue], cfg.reward_exponent) * rates[dec.ue]
        rewards = np.full(self.deployment.num_aps, r)
        if not any_tx:
            top = self.agent_top_pf()
            rewards[:] = 0.0
            m = int(np.argmax(top))
            rewards[m] = -top[m]
        for i, bad in enumerate(invalid):
            if bad:
                rewards[i] = 0.0
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
        return self.step_decisions(decisions, invalid.tolist())

    def step_decisions(self, decisions, invalid=None, build_obs: bool = True):
        """Advance one interval with explicit decisions, one per AP (baseline fast path)."""
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
            decisions, self.g2, cfg.noise_w, self.association)
        rewards = self.compute_reward(decisions, rates, invalid)
        self.rate_sum += rates
        linklevel.update_link_stats(self.stats, rates, interference,
                                    cfg.alpha_rate, cfg.alpha_interference)
        info = {"rates": rates, "interference": interference,
                "decisions": decisions, "t": self.t}
        self.t += 1
        self._done = self.t > cfg.episode_length
        obs = None
        if not self._done:
            self._refresh_interval_state()
            if build_obs:
                obs, self._slot_map, self._last_obs_mask = self._build_observations()
                info["obs_padding_mask"] = self._last_obs_mask
        return obs, rewards, self._done, info

    @property
    def done(self) -> bool:
        return self._done

    def average_rates(self) -> np.ndarray:
        """Per-UE time-average rates R_sum/T over the intervals stepped so far."""
        steps = min(self.t - 1, self.config.episode_length)
        return self.rate_sum / max(steps, 1)
