"""Per-interval PHY math: SINR, Shannon rates, moving averages, PF ratios."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RATE_FLOOR = 1e-3  # bps/Hz; keeps weights = 1/avg_rate bounded at 1e3


@dataclass(frozen=True)
class ScheduleDecision:
    """Per-AP choice for one interval: serve a UE at some power, or stay off."""

    ue: int = -1            # served UE id, -1 when off
    power_w: float = 0.0    # transmit power in watts, 0 when off

    @property
    def off(self) -> bool:
        return self.ue < 0

    @staticmethod
    def silent() -> "ScheduleDecision":
        return ScheduleDecision()

    @staticmethod
    def serve(ue: int, power_w: float) -> "ScheduleDecision":
        if ue < 0 or power_w <= 0:
            raise ValueError("serving requires a UE id and positive power")
        return ScheduleDecision(ue=ue, power_w=power_w)


@dataclass
class LinkStats:
    """Per-UE long-term statistics maintained by the environment."""

    avg_rate: np.ndarray       # (K,) bps/Hz, floored at rate_floor
    avg_interference: np.ndarray  # (K,) watts
    rate_floor: float = RATE_FLOOR

    @classmethod
    def initial(cls, num_ues: int, rate_floor: float = RATE_FLOOR) -> "LinkStats":
        return cls(avg_rate=np.full(num_ues, rate_floor),
                   avg_interference=np.zeros(num_ues),
                   rate_floor=rate_floor)

    @property
    def weight(self) -> np.ndarray:
        return 1.0 / np.maximum(self.avg_rate, self.rate_floor)


def compute_rates(decisions: list[ScheduleDecision], power_gains: np.ndarray,
                  noise_power: float, association: np.ndarray):
    """Shannon rates of served UEs and received interference at every UE.

    power_gains is the (K, N) matrix |h_ji(t)|^2. Interference at UE j sums
    over every AP other than its serving AP, so it is defined for unserved
    UEs as well (it feeds the long-term interference averages).
    Returns (rates (K,), interference (K,)).
    """
    n_aps = power_gains.shape[1]
    tx = np.zeros(n_aps)
    served = np.full(n_aps, -1, dtype=int)
    for i, dec in enumerate(decisions):
        if not dec.off:
            tx[i] = dec.power_w
            served[i] = dec.ue
    total_rx = power_gains @ tx                                 # (K,)
    own_ap_rx = power_gains[np.arange(len(association)), association] * tx[association]
    interference = total_rx - own_ap_rx
    rates = np.zeros(len(association))
    for i in range(n_aps):
        j = served[i]
        if j >= 0:
            sig = power_gains[j, i] * tx[i]
            rates[j] = np.log2(1.0 + sig / (interference[j] + noise_power))
    return rates, interference


def update_link_stats(stats: LinkStats, rates: np.ndarray, interference: np.ndarray,
                      alpha_r: float, alpha_i: float) -> LinkStats:
    """One exponential-moving-average step; unserved UEs contribute rate 0."""
    if not (0 < alpha_r < 1 and 0 < alpha_i < 1):
        raise ValueError("averaging parameters must lie in (0, 1)")
    stats.avg_rate = np.maximum(
        (1.0 - alpha_r) * stats.avg_rate + alpha_r * rates, stats.rate_floor)
    stats.avg_interference = (
        (1.0 - alpha_i) * stats.avg_interference + alpha_i * interference)
    return stats


def measured_sinr(gain_to_server, p_max: float, avg_interference, noise_power: float):
    """Reported SINR: full-power signal over averaged interference plus noise."""
    return np.asarray(gain_to_server) * p_max / (np.asarray(avg_interference) + noise_power)


def pf_ratio(weight, sinr_linear):
    """Proportional-fairness priority: weight * log2(1 + SINR)."""
    return np.asarray(weight) * np.log2(1.0 + np.asarray(sinr_linear))
