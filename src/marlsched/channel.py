"""Dual-slope path loss, log-normal shadowing and sum-of-sinusoids fading."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import Deployment


class DomainError(ValueError):
    pass


@dataclass
class PathLossParams:
    k0_db: float = 39.0      # loss at 1 m
    alpha1: float = 2.0      # exponent below the break point
    alpha2: float = 4.0      # exponent above the break point
    d_bp: float = 100.0      # break-point distance, meters

    def validate(self) -> None:
        if self.alpha1 > self.alpha2:
            raise ValueError("alpha1 must not exceed alpha2")
        if self.d_bp <= 0:
            raise ValueError("break-point distance must be positive")


def path_loss_db(d, params: PathLossParams):
    """Dual-slope path loss in dB; continuous at the break point."""
    params.validate()
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise DomainError("distance must be positive")
    near = params.k0_db + 10.0 * params.alpha1 * np.log10(d)
    far = (params.k0_db + 10.0 * params.alpha2 * np.log10(d)
           - 10.0 * (params.alpha2 - params.alpha1) * np.log10(params.d_bp))
    out = np.where(d <= params.d_bp, near, far)
    return float(out) if out.ndim == 0 else out


@dataclass
class LongTermGains:
    H: np.ndarray              # (K, N) linear amplitude gains
    shadowing_db: np.ndarray   # (K, N)

    def __post_init__(self):
        if not np.all(np.isfinite(self.H)) or np.any(self.H <= 0):
            raise ValueError("long-term gains must be positive and finite")

    @property
    def power(self) -> np.ndarray:
        """|H|^2, the (K, N) linear power gains."""
        return self.H ** 2


def draw_long_term_gains(deployment: Deployment, params: PathLossParams,
                         shadow_std_db: float, rng: np.random.Generator) -> LongTermGains:
    """Path loss plus i.i.d. log-normal shadowing for every AP-UE link."""
    diff = deployment.ue_positions[:, None, :] - deployment.ap_positions[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    pl = path_loss_db(np.maximum(dist, 1.0), params)
    sh = rng.normal(0.0, shadow_std_db, size=pl.shape)
    h_power = 10.0 ** (-(pl + sh) / 10.0)
    return LongTermGains(H=np.sqrt(h_power), shadowing_db=sh)


@dataclass
class FadingProcess:
    """Improved sum-of-sinusoids Rayleigh fading, one process per link.

    Each link carries a random arrival-angle offset theta and per-sinusoid
    phases for the in-phase and quadrature components. Sampling is pure in
    (state, t), so concurrent readers are safe.
    """

    cos_alpha: np.ndarray      # (K, N, M)
    sin_alpha: np.ndarray      # (K, N, M)
    phi: np.ndarray            # (K, N, M)
    psi: np.ndarray            # (K, N, M)
    doppler_hz: float
    interval_duration: float

    @property
    def num_sinusoids(self) -> int:
        return self.cos_alpha.shape[-1]

    def sample_all(self, t: int) -> np.ndarray:
        """Complex unit-power fading gains for every link at interval t."""
        m = self.num_sinusoids
        arg = 2.0 * np.pi * self.doppler_hz * (t * self.interval_duration)
        re = np.cos(arg * self.cos_alpha + self.phi).sum(axis=-1)
        im = np.cos(arg * self.sin_alpha + self.psi).sum(axis=-1)
        return (re + 1j * im) / np.sqrt(m)


def create_fading(num_ues: int, num_aps: int, num_sinusoids: int,
                  doppler_hz: float, interval_duration: float,
                  rng: np.random.Generator) -> FadingProcess:
    m = num_sinusoids
    shape = (num_ues, num_aps, m)
    theta = rng.uniform(-np.pi, np.pi, size=(num_ues, num_aps, 1))
    idx = np.arange(1, m + 1, dtype=float)
    alpha = (2.0 * np.pi * idx - np.pi + theta) / (4.0 * m)
    return FadingProcess(
        cos_alpha=np.cos(alpha),
        sin_alpha=np.sin(alpha),
        phi=rng.uniform(-np.pi, np.pi, size=shape),
        psi=rng.uniform(-np.pi, np.pi, size=shape),
        doppler_hz=doppler_hz,
        interval_duration=interval_duration,
    )

