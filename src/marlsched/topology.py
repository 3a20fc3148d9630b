"""Random AP/UE deployments, max-RSRP association and nearest-AP lists."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_PLACEMENT_ATTEMPTS = 10_000


class PlacementInfeasible(RuntimeError):
    """Rejection sampling could not satisfy the minimum-distance constraints."""


@dataclass
class DeploymentConfig:
    num_aps: int = 4
    num_ues: int = 24
    area_side: float = 500.0
    min_ap_ap_dist: float = 35.0
    min_ap_ue_dist: float = 10.0

    def validate(self) -> None:
        if self.num_aps < 1:
            raise ValueError("need at least one AP")
        if self.num_ues < self.num_aps:
            raise ValueError("need at least one UE per AP")
        if self.area_side <= 0:
            raise ValueError("area_side must be positive")
        if self.min_ap_ap_dist < 0 or self.min_ap_ue_dist < 0:
            raise ValueError("minimum distances must be nonnegative")


@dataclass
class Deployment:
    ap_positions: np.ndarray                      # (N, 2) meters
    ue_positions: np.ndarray                      # (K, 2) meters
    association: np.ndarray | None = None         # (K,) AP index per UE
    remote_agents: list[np.ndarray] | None = None  # per-AP neighbor AP ids

    @property
    def num_aps(self) -> int:
        return len(self.ap_positions)

    @property
    def num_ues(self) -> int:
        return len(self.ue_positions)

    def pools(self) -> list[np.ndarray]:
        """UE ids associated with each AP."""
        if self.association is None:
            raise ValueError("deployment has no association yet")
        return [np.flatnonzero(self.association == i) for i in range(self.num_aps)]


def generate_deployment(config: DeploymentConfig, rng: np.random.Generator) -> Deployment:
    """Draw AP and UE positions satisfying the minimum-distance constraints."""
    config.validate()
    aps: list[np.ndarray] = []
    for _ in range(config.num_aps):
        for _attempt in range(MAX_PLACEMENT_ATTEMPTS):
            cand = rng.uniform(0.0, config.area_side, size=2)
            if not aps or np.min(np.linalg.norm(np.array(aps) - cand, axis=1)) >= config.min_ap_ap_dist:
                aps.append(cand)
                break
        else:
            raise PlacementInfeasible(
                f"AP placement failed after {MAX_PLACEMENT_ATTEMPTS} attempts")
    ap_arr = np.array(aps)

    ues = []
    for _ in range(config.num_ues):
        for _attempt in range(MAX_PLACEMENT_ATTEMPTS):
            cand = rng.uniform(0.0, config.area_side, size=2)
            if np.min(np.linalg.norm(ap_arr - cand, axis=1)) >= config.min_ap_ue_dist:
                ues.append(cand)
                break
        else:
            raise PlacementInfeasible(
                f"UE placement failed after {MAX_PLACEMENT_ATTEMPTS} attempts")
    return Deployment(ap_positions=ap_arr, ue_positions=np.array(ues))


def associate_max_rsrp(long_term_gains: np.ndarray) -> np.ndarray:
    """Assign each UE to the AP with the highest RSRP (ties -> lowest index).

    long_term_gains is the (K, N) matrix of linear *power* gains; RSRP is
    P_max * gain and P_max is common, so the argmax is over the gains.
    Empty pools are repaired so that every AP keeps at least one UE.
    """
    g = np.asarray(long_term_gains, dtype=float)
    if not np.all(np.isfinite(g)) or np.any(g <= 0):
        raise ValueError("gains must be strictly positive and finite")
    assoc = np.argmax(g, axis=1)
    return repair_empty_pools(assoc, g)


def repair_empty_pools(association: np.ndarray, long_term_gains: np.ndarray) -> np.ndarray:
    """Move UEs into empty pools, best donor RSRP first.

    While some AP has no UEs, the UE (taken from a pool of size >= 2) with
    the highest RSRP toward the empty AP is reassigned to it.
    """
    assoc = np.array(association, dtype=int)
    n_aps = long_term_gains.shape[1]
    while True:
        counts = np.bincount(assoc, minlength=n_aps)
        empty = np.flatnonzero(counts == 0)
        if len(empty) == 0:
            return assoc
        tgt = int(empty[0])
        eligible = np.flatnonzero(counts[assoc] >= 2)
        if len(eligible) == 0:
            raise ValueError("cannot repair pools: too few UEs")
        mover = eligible[np.argmax(long_term_gains[eligible, tgt])]
        assoc[mover] = tgt


def balance_pools(association: np.ndarray, long_term_gains: np.ndarray,
                  pool_size: int) -> np.ndarray:
    """Force every pool to exactly pool_size UEs (for the unsorted-obs mode).

    Greedily moves, from any over-full pool, the UE with the best RSRP
    toward the most under-full AP.
    """
    assoc = np.array(association, dtype=int)
    n_aps = long_term_gains.shape[1]
    if len(assoc) != n_aps * pool_size:
        raise ValueError("equal pools require num_ues == num_aps * pool_size")
    while True:
        counts = np.bincount(assoc, minlength=n_aps)
        under = np.flatnonzero(counts < pool_size)
        if len(under) == 0:
            return assoc
        tgt = int(under[np.argmin(counts[under])])
        donors = np.flatnonzero(counts[assoc] > pool_size)
        mover = donors[np.argmax(long_term_gains[donors, tgt])]
        assoc[mover] = tgt


def nearest_remote_agents(ap_positions: np.ndarray, n: int) -> list[np.ndarray]:
    """For each AP, the min(n, N-1) other APs sorted by ascending distance."""
    ap_positions = np.asarray(ap_positions, dtype=float)
    n_aps = len(ap_positions)
    out = []
    for i in range(n_aps):
        d = np.linalg.norm(ap_positions - ap_positions[i], axis=1)
        order = sorted((j for j in range(n_aps) if j != i), key=lambda j: (d[j], j))
        out.append(np.asarray(order[: min(n, n_aps - 1)], dtype=int))
    return out
