"""Dual-slope path loss, log-normal shadowing and sum-of-sinusoids fading."""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .topology import ConfigError, Deployment, require


class DomainError(ValueError):
    pass


@dataclass
class PathLossParams:
    k0_db: float = 39.0      # loss at 1 m
    alpha1: float = 2.0      # exponent below the break point
    alpha2: float = 4.0      # exponent above the break point
    d_bp: float = 100.0      # break-point distance, meters

    def validate(self) -> None:
        require(self, "> 0", "d_bp")
        if not self.alpha1 <= self.alpha2:
            raise ConfigError(f"PathLossParams.alpha1 {self.alpha1} must not exceed "
                              f"PathLossParams.alpha2 {self.alpha2}")
        require(self, "finite", "k0_db", "alpha1", "alpha2")


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


# Cosines per component (K*N*M, times the block's intervals) from which
# sample_all hands the quadrature sum to the worker thread; below it the
# hand-off costs more than it saves.
SPLIT_COSINES = 4096
# Cosines per component that _block_sum evaluates at once, so that its
# workspace does not grow with the block.
CHUNK_COSINES = 2 ** 16

_worker = None   # the ThreadPoolExecutor, started by the first large sample
_worker_lock = threading.Lock()


def _block_sum(arg, alpha_trig, phase):
    """cos(arg * alpha_trig + phase) summed over M for each entry of the 1-D
    arg, (len(arg), K, N); see FadingProcess. The M cosines are added as numpy's
    pairwise_sum (loops_utils.h) adds 8 to 128 terms: eight running sums over the
    groups of 8, then a balanced tree. numpy starts from 0.0; no bit differs, as
    no partial sum of cosines is -0.0."""
    k, n, m = alpha_trig.shape
    out = np.empty((len(arg), k, n))
    rows = min(k, max(1, CHUNK_COSINES // (n * m * len(arg))))
    work = np.empty((rows, n, m, len(arg)))   # per call: the worker runs one too
    for r in range(0, k, rows):
        x = work[:k - r]
        np.multiply(alpha_trig[r:r + rows, ..., None], arg, out=x)
        x += phase[r:r + rows, ..., None]
        np.cos(x, out=x)
        acc = x[:, :, :8]
        for i in range(8, m, 8):
            acc += x[:, :, i:i + 8]
        acc[:, :, 0::2] += acc[:, :, 1::2]
        acc[:, :, 0::4] += acc[:, :, 2::4]
        np.add(acc[:, :, 0], acc[:, :, 4], out=out[:, r:r + rows].transpose(1, 2, 0))
    return out


def _current_cpu():
    """The CPU the calling thread runs on, or None where /proc does not say."""
    try:
        with open("/proc/thread-self/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _start_apart(caller_cpu):
    """Move the new worker off its creator's CPU once, then allow it every CPU.

    Some schedulers leave a new thread on its creator's CPU and never move it
    to an idle one, so both sums would share one core.
    """
    try:
        allowed = os.sched_getaffinity(0)
        if caller_cpu in allowed and len(allowed) > 1:
            os.sched_setaffinity(0, allowed - {caller_cpu})
            os.sched_setaffinity(0, allowed)
    except (AttributeError, OSError):
        pass


def _fading_worker():
    global _worker
    with _worker_lock:
        if _worker is None:
            # imported here: it adds ~6 ms to every start, and a run that samples
            # only single intervals of a small network never uses it
            from concurrent.futures import ThreadPoolExecutor
            _worker = ThreadPoolExecutor(1, "fading", _start_apart, (_current_cpu(),))
        return _worker


def _forget_worker() -> None:
    """A forked child inherits the record of the parent's worker but not its
    thread, and the lock as some parent thread may have held it."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


@dataclass
class FadingProcess:
    """Improved sum-of-sinusoids Rayleigh fading, one process per link.

    Each link carries a random arrival-angle offset theta and per-sinusoid
    phases for the in-phase and quadrature components. Sampling is pure in
    (state, t), so concurrent readers are safe.

    sample_all takes a 1-D int array of intervals, a block, or one interval t,
    which it evaluates as a block of one. libm's cos branches on its argument's
    range and quadrant, so a block is evaluated with time innermost, a chunk of
    K rows at a time: a link's successive arguments then take the same branches.
    Each chunk is one (rows, N, M, L) workspace: each element is
    fl(fl(arg * trig) + phase) and its cos, computed in place, and each link's M
    cosines are added in place along M in the order of numpy's own pairwise
    sum, the last add landing in the (L, K, N) output. So every slice has the
    bits of the serial cos(arg * trig + phase).sum(axis=-1) at its interval,
    without a transposed copy or a temporary the size of a chunk. M must be a
    multiple of 8 from 8 to 128, the one case of numpy's order that is copied.

    From SPLIT_COSINES cosines per component (K*N*M, times the block's length)
    on, sample_all computes the quadrature sum on one module-level worker
    thread while the caller computes the in-phase sum; numpy releases the GIL
    inside both. Both run the same kernel, so the bits do not depend on which
    thread ran it. An exception on the worker is raised in the caller; a forked
    child starts a worker of its own.
    """

    cos_alpha: np.ndarray      # (K, N, M)
    sin_alpha: np.ndarray      # (K, N, M)
    phi: np.ndarray            # (K, N, M)
    psi: np.ndarray            # (K, N, M)
    doppler_hz: float
    interval_duration: float

    def __post_init__(self):
        if self.num_sinusoids % 8 or not 8 <= self.num_sinusoids <= 128:
            raise ValueError("fading needs a multiple of 8 from 8 to 128 sinusoids, "
                             f"got {self.num_sinusoids}")

    @property
    def num_sinusoids(self) -> int:
        return self.cos_alpha.shape[-1]

    def sample_all(self, t) -> np.ndarray:
        """Complex unit-power fading gains at interval t, (K, N); for a 1-D int
        array t, (len(t), K, N): one slice per t."""
        arg = 2.0 * np.pi * self.doppler_hz * (np.atleast_1d(t) * self.interval_duration)
        if self.cos_alpha.size * len(arg) < SPLIT_COSINES:
            re = _block_sum(arg, self.cos_alpha, self.phi)
            im = _block_sum(arg, self.sin_alpha, self.psi)
        else:
            quadrature = _fading_worker().submit(_block_sum, arg, self.sin_alpha, self.psi)
            re = _block_sum(arg, self.cos_alpha, self.phi)
            im = quadrature.result()
        h = (re + 1j * im) / np.sqrt(self.num_sinusoids)
        return h[0] if np.ndim(t) == 0 else h


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

