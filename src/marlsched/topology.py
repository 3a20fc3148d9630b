"""Random AP/UE deployments, max-RSRP association and nearest-AP lists."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_PLACEMENT_ATTEMPTS = 10_000


class ConfigError(ValueError):
    """A config or file read back holds a value the program cannot use; names the field."""


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
        if not self.num_aps >= 1:
            raise ConfigError(f"DeploymentConfig.num_aps must be >= 1, got {self.num_aps}")
        if not self.num_ues >= self.num_aps:
            raise ConfigError(f"DeploymentConfig.num_ues {self.num_ues} must give "
                              f"each of the {self.num_aps} APs a UE")
        if not self.area_side > 0:
            raise ConfigError(f"DeploymentConfig.area_side must be > 0, got {self.area_side}")
        for name in ("min_ap_ap_dist", "min_ap_ue_dist"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"DeploymentConfig.{name} must be >= 0, "
                                  f"got {getattr(self, name)}")


@dataclass
class Deployment:
    ap_positions: np.ndarray   # (N, 2) meters
    ue_positions: np.ndarray   # (K, 2) meters

    @property
    def num_aps(self) -> int:
        return len(self.ap_positions)

    @property
    def num_ues(self) -> int:
        return len(self.ue_positions)


def _place(rng: np.random.Generator, side: float, away_from: np.ndarray,
           min_dist: float, what: str) -> np.ndarray:
    """A uniform point of the square at least min_dist from every row of away_from."""
    for _attempt in range(MAX_PLACEMENT_ATTEMPTS):
        cand = rng.uniform(0.0, side, size=2)
        if not len(away_from) or np.min(np.linalg.norm(away_from - cand, axis=1)) >= min_dist:
            return cand
    raise PlacementInfeasible(
        f"{what} placement failed after {MAX_PLACEMENT_ATTEMPTS} attempts")


def generate_deployment(config: DeploymentConfig, rng: np.random.Generator) -> Deployment:
    """Draw AP and UE positions satisfying the minimum-distance constraints."""
    config.validate()
    aps = np.empty((config.num_aps, 2))
    for i in range(config.num_aps):
        aps[i] = _place(rng, config.area_side, aps[:i], config.min_ap_ap_dist, "AP")
    ues = [_place(rng, config.area_side, aps, config.min_ap_ue_dist, "UE")
           for _ in range(config.num_ues)]
    return Deployment(ap_positions=aps, ue_positions=np.array(ues))


def _fill_pools(association: np.ndarray, long_term_gains: np.ndarray,
                size: int) -> np.ndarray:
    """Grow every pool to at least size UEs, best donor RSRP first.

    While some pool is short, the UE (taken from a pool holding more than
    size) with the highest RSRP toward the first smallest pool moves to it.
    """
    assoc = np.array(association, dtype=int)
    while True:
        counts = np.bincount(assoc, minlength=long_term_gains.shape[1])
        tgt = int(np.argmin(counts))
        if counts[tgt] >= size:
            return assoc
        donors = np.flatnonzero(counts[assoc] > size)
        if len(donors) == 0:
            raise ValueError("cannot fill pools: too few UEs")
        assoc[donors[np.argmax(long_term_gains[donors, tgt])]] = tgt


def associate_max_rsrp(long_term_gains: np.ndarray) -> np.ndarray:
    """Assign each UE to the AP with the highest RSRP (ties -> lowest index).

    long_term_gains is the (K, N) matrix of linear *power* gains; RSRP is
    P_max * gain and P_max is common, so the argmax is over the gains.
    Empty pools are filled so that every AP keeps at least one UE.
    """
    g = np.asarray(long_term_gains, dtype=float)
    if not np.all(np.isfinite(g)) or np.any(g <= 0):
        raise ValueError("gains must be strictly positive and finite")
    return _fill_pools(np.argmax(g, axis=1), g, 1)


def balance_pools(association: np.ndarray, long_term_gains: np.ndarray,
                  pool_size: int) -> np.ndarray:
    """Force every pool to exactly pool_size UEs (for the unsorted-obs mode)."""
    if len(association) != long_term_gains.shape[1] * pool_size:
        raise ValueError("equal pools require num_ues == num_aps * pool_size")
    return _fill_pools(association, long_term_gains, pool_size)


def nearest_remote_agents(ap_positions: np.ndarray, n: int) -> np.ndarray:
    """(N, min(n, N-1)) ids of each AP's nearest other APs, ascending distance.

    A stable sort, so a distance tie goes to the lower AP id.
    """
    pos = np.asarray(ap_positions, dtype=float)
    dist = np.linalg.norm(pos[None, :, :] - pos[:, None, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    return np.argsort(dist, axis=1, kind="stable")[:, :min(n, len(pos) - 1)]
