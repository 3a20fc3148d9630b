"""Per-interval PHY math: SINR, Shannon rates, moving averages, PF ratios."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


@dataclass
class LinkStats:
    """Per-UE long-term statistics maintained by the environment."""

    avg_rate: np.ndarray       # (K,) bps/Hz, floored at rate_floor
    avg_interference: np.ndarray  # (K,) watts
    rate_floor: float

    @property
    def weight(self) -> np.ndarray:
        return 1.0 / np.maximum(self.avg_rate, self.rate_floor)


def compute_rates(decisions: list[ScheduleDecision], power_gains: np.ndarray,
                  noise_power: float, association: np.ndarray):
    """Shannon rates of served UEs and received interference at every UE.

    power_gains is the (K, N) matrix |h_ji(t)|^2. Interference at UE j sums
    over every AP other than its serving AP, so it is defined for unserved
    UEs as well (it feeds the long-term interference averages). AP i serves
    only a UE of its own pool, association[ue] == i, whose signal is then its
    own-AP term; any other decision raises ValueError. Returns (rates, interference), (K,) each.
    """
    tx = np.array([0.0 if dec.off else dec.power_w for dec in decisions])
    own_ap_rx = power_gains[np.arange(len(association)), association] * tx[association]
    interference = power_gains @ tx - own_ap_rx                 # (K,)
    rates = np.zeros(len(association))
    for i, dec in enumerate(decisions):
        if not dec.off:
            if dec.ue >= len(association) or association[dec.ue] != i:
                raise ValueError(f"AP {i} cannot serve UE {dec.ue}: it is not in AP {i}'s pool")
            rates[dec.ue] = np.log2(1 + own_ap_rx[dec.ue] / (interference[dec.ue] + noise_power))
    return rates, interference


def update_link_stats(stats: LinkStats, rates: np.ndarray, interference: np.ndarray,
                      alpha_r: float, alpha_i: float) -> None:
    """One exponential-moving-average step, in place; unserved UEs contribute rate 0."""
    stats.avg_rate = np.maximum(
        (1.0 - alpha_r) * stats.avg_rate + alpha_r * rates, stats.rate_floor)
    stats.avg_interference = (
        (1.0 - alpha_i) * stats.avg_interference + alpha_i * interference)


def measured_sinr(gain_to_server, p_max: float, avg_interference, noise_power: float):
    """Reported SINR: full-power signal over averaged interference plus noise."""
    return np.asarray(gain_to_server) * p_max / (np.asarray(avg_interference) + noise_power)


def pf_ratio(weight, sinr_linear):
    """Proportional-fairness priority: weight * log2(1 + SINR)."""
    return np.asarray(weight) * np.log2(1.0 + np.asarray(sinr_linear))
