import dataclasses
import os
import signal
import sys
import threading
import tracemalloc
from concurrent import futures

import numpy as np
import pytest
from scipy import stats as spstats
from scipy.special import j0

from marlsched import channel
from marlsched.channel import (
    DomainError, LongTermGains, PathLossParams, create_fading,
    draw_long_term_gains, path_loss_db,
)
from marlsched.env import BLOCK_INTERVALS, INTERVAL_DURATION_S, NUM_SINUSOIDS, EnvConfig
from marlsched.topology import DeploymentConfig, generate_deployment

PARAMS = PathLossParams()


def test_path_loss_at_one_meter():
    assert path_loss_db(1.0, PARAMS) == pytest.approx(39.0)


def test_path_loss_break_point_both_branches():
    # 39 + 20*log10(100) = 79 from the near branch; far branch must agree
    near = PARAMS.k0_db + 10 * PARAMS.alpha1 * np.log10(100.0)
    far = (PARAMS.k0_db + 10 * PARAMS.alpha2 * np.log10(100.0)
           - 10 * (PARAMS.alpha2 - PARAMS.alpha1) * np.log10(PARAMS.d_bp))
    assert near == pytest.approx(79.0)
    assert far == pytest.approx(79.0)
    assert path_loss_db(100.0, PARAMS) == pytest.approx(79.0)


def test_path_loss_two_hundred_meters():
    expect = 39.0 + 40.0 * np.log10(200.0) - 20.0 * np.log10(100.0)
    assert path_loss_db(200.0, PARAMS) == pytest.approx(expect)
    assert path_loss_db(200.0, PARAMS) == pytest.approx(91.0412, abs=1e-3)


def test_path_loss_continuity_at_break_point():
    eps = 1e-6
    lo = path_loss_db(PARAMS.d_bp - eps, PARAMS)
    hi = path_loss_db(PARAMS.d_bp + eps, PARAMS)
    assert abs(lo - hi) < 1e-6


def test_path_loss_monotone():
    d = np.linspace(0.5, 1000.0, 5000)
    pl = path_loss_db(d, PARAMS)
    assert np.all(np.diff(pl) > 0)


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(DomainError):
        path_loss_db(0.0, PARAMS)
    with pytest.raises(DomainError):
        path_loss_db(-5.0, PARAMS)


def _deployment(seed=0):
    return generate_deployment(DeploymentConfig(num_aps=4, num_ues=24),
                               np.random.default_rng(seed))


def test_long_term_gain_zero_shadowing_formula():
    dep = _deployment()
    gains = draw_long_term_gains(dep, PARAMS, 0.0, np.random.default_rng(0))
    d = np.linalg.norm(dep.ue_positions[0] - dep.ap_positions[0])
    expect = 10.0 ** (-path_loss_db(d, PARAMS) / 10.0)
    assert gains.power[0, 0] == pytest.approx(expect)


def test_shadowing_std_near_seven_db():
    dep = _deployment()
    samples = []
    rng = np.random.default_rng(1)
    while len(samples) * 96 < 10_000:
        samples.append(draw_long_term_gains(dep, PARAMS, 7.0, rng).shadowing_db.ravel())
    std = np.std(np.concatenate(samples))
    assert 6.8 <= std <= 7.2


def test_long_term_gains_deterministic():
    dep = _deployment()
    a = draw_long_term_gains(dep, PARAMS, 7.0, np.random.default_rng(42))
    b = draw_long_term_gains(dep, PARAMS, 7.0, np.random.default_rng(42))
    assert np.array_equal(a.H, b.H)


def test_long_term_gains_reject_nonpositive():
    with pytest.raises(ValueError):
        LongTermGains(H=np.array([[0.0]]), shadowing_db=np.array([[0.0]]))


def test_fading_zero_doppler_is_constant():
    proc = create_fading(2, 2, 16, 0.0, 1e-3, np.random.default_rng(0))
    assert np.allclose(proc.sample_all(1), proc.sample_all(1000))


def test_fading_unit_power():
    proc = create_fading(500, 200, 16, 8.0, 1e-3, np.random.default_rng(3))
    power = np.abs(proc.sample_all(1)) ** 2
    assert power.size == 100_000
    assert 0.98 <= power.mean() <= 1.02


def test_fading_rayleigh_envelope_ks():
    proc = create_fading(500, 200, 16, 8.0, 1e-3, np.random.default_rng(5))
    env = np.abs(proc.sample_all(7)).ravel()
    ks = spstats.kstest(env, "rayleigh", args=(0.0, 1.0 / np.sqrt(2.0)))
    assert ks.statistic < 0.02


LAGS = np.array([1, 5, 10, 25, 50, 100, 150])


def test_fading_lag1_autocorrelation():
    # f_d * T = 0.008 -> expected correlation about J0(2*pi*0.008)
    proc = create_fading(500, 200, 16, 8.0, 1e-3, np.random.default_rng(6))
    h1, h2 = proc.sample_all(1), proc.sample_all(2)
    corr = np.real(np.mean(h1 * np.conj(h2))) / np.mean(np.abs(h1) ** 2)
    assert corr > 0.95
    assert corr == pytest.approx(j0(2 * np.pi * 0.008), abs=0.04)
    # Clarke's J0 over a Doppler period and more, at the default shape: 8 seeds,
    # 64 start times 1,000 intervals apart, each at lag 0 and every lag in LAGS
    cfg = EnvConfig()
    dep = cfg.deployment
    times = (1000 * np.arange(64)[:, None] + np.r_[0, LAGS]).ravel()
    mean = np.zeros(len(LAGS))
    for seed in range(8):
        proc = create_fading(dep.num_ues, dep.num_aps, NUM_SINUSOIDS, cfg.doppler_hz,
                             INTERVAL_DURATION_S, np.random.default_rng(seed))
        h = proc.sample_all(times).reshape(64, 1 + len(LAGS), -1)
        mean += np.mean(np.real(h[:, 1:] * np.conj(h[:, :1])), axis=(0, 2)) / 8
    want = j0(2 * np.pi * cfg.doppler_hz * INTERVAL_DURATION_S * LAGS)
    assert np.all(np.abs(mean - want) <= 0.02), dict(zip(LAGS, mean - want))


def test_fading_in_phase_and_quadrature_are_uncorrelated():
    proc = create_fading(500, 200, 16, 8.0, 1e-3, np.random.default_rng(7))
    h = proc.sample_all(1)
    assert abs(np.mean(h.real * h.imag)) <= 0.01


def test_fading_time_shift_is_a_phase_advance():
    """Advancing each sinusoid's phase by its angular step times t0 gives at t
    what the process gives at t + t0."""
    cfg = EnvConfig()
    dep = cfg.deployment
    proc = create_fading(dep.num_ues, dep.num_aps, NUM_SINUSOIDS, cfg.doppler_hz,
                         INTERVAL_DURATION_S, np.random.default_rng(8))
    t0, t = 1234, np.arange(200)
    step = 2 * np.pi * cfg.doppler_hz * INTERVAL_DURATION_S * t0
    shifted = dataclasses.replace(proc, phi=proc.phi + step * proc.cos_alpha,
                                  psi=proc.psi + step * proc.sin_alpha)
    assert np.max(np.abs(shifted.sample_all(t) - proc.sample_all(t + t0))) <= 1e-12


def test_fading_interval_shapes():
    """A scalar interval, as a Python int, an np.int64 or a 0-d array, gives the
    (K, N) slice of the block of one that a 1-element array gives as (1, K, N)."""
    proc = create_fading(5, 3, 16, 8.0, 1e-3, np.random.default_rng(2))
    block = proc.sample_all(np.array([7]))
    assert block.shape == (1, 5, 3)
    for t in (7, np.int64(7), np.array(7)):
        h = proc.sample_all(t)
        assert h.shape == (5, 3), type(t)
        assert h.tobytes() == block[0].tobytes(), type(t)


@pytest.mark.parametrize("m", [1, 7, 9, 129, 136])
def test_fading_refuses_a_sinusoid_count_outside_the_fold(m):
    """The kernel adds M cosines in numpy's order for 8 to 128 terms in groups
    of 8; at M = 9 it would add one column across all eight lanes."""
    with pytest.raises(ValueError, match=f"got {m}$"):
        create_fading(2, 3, m, 8.0, 1e-3, np.random.default_rng(0))
    proc = create_fading(2, 3, 16, 8.0, 1e-3, np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"got {m}$"):
        dataclasses.replace(proc, cos_alpha=np.ones((2, 3, m)))


def test_fading_long_run_power():
    # ergodic power over many independent fades
    acc = 0.0
    reps = 40
    rng = np.random.default_rng(9)
    for _ in range(reps):
        p = create_fading(50, 50, 16, 8.0, 1e-3, rng)
        acc += np.mean(np.abs(p.sample_all(1)) ** 2)
    assert 0.98 <= acc / reps <= 1.02


def _large_fading():
    """N=10, K=100, M=16: 16,000 cosines per component, above the split."""
    proc = create_fading(100, 10, 16, 8.0, 1e-3, np.random.default_rng(4))
    assert proc.cos_alpha.size >= channel.SPLIT_COSINES
    return proc


def test_fading_block_peak_memory_is_bounded():
    """One NetworkEnv block at N=10, K=100 (BLOCK_INTERVALS intervals, 1 MB of
    complex output at 64) peaks under 4x its output: the cosines are evaluated a
    chunk of rows at a time. The whole block at once peaked at 32x."""
    proc = _large_fading()
    ts = np.arange(1, BLOCK_INTERVALS + 1)
    proc.sample_all(ts)   # the worker thread exists before tracing starts
    tracemalloc.start()
    try:
        h = proc.sample_all(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * h.nbytes, (peak, h.nbytes)


def test_fading_below_the_split_starts_no_worker(monkeypatch):
    monkeypatch.setattr(channel, "_worker", None)
    proc = create_fading(24, 4, 16, 8.0, 1e-3, np.random.default_rng(0))
    assert proc.cos_alpha.size < channel.SPLIT_COSINES
    proc.sample_all(1)
    assert channel._worker is None


def test_fading_worker_error_reaches_the_caller():
    proc = _large_fading()
    # quadrature phases that no longer broadcast against sin_alpha
    broken = dataclasses.replace(proc, psi=proc.psi[..., :3])
    with pytest.raises(ValueError, match="broadcast"):
        broken.sample_all(1)
    assert np.isfinite(proc.sample_all(1)).all()


def test_fading_concurrent_callers_share_the_worker(monkeypatch):
    """More callers than cores, switching threads often, each on its own
    process above the split: every sample keeps the bits of a lone caller's,
    and the first samples race to start the one worker."""
    monkeypatch.setattr(channel, "_worker", None)
    procs = [create_fading(100, 10, 16, 8.0, 1e-3, np.random.default_rng(s)) for s in range(4)]
    want = [[p.sample_all(t).tobytes() for t in range(1, 41)] for p in procs]
    monkeypatch.setattr(channel, "_worker", None)
    made = []

    executor = futures.ThreadPoolExecutor

    def counted(*args):
        made.append(executor(*args))
        return made[-1]

    monkeypatch.setattr(futures, "ThreadPoolExecutor", counted)
    bad = []
    start = threading.Barrier(4)

    def caller(i):
        start.wait(timeout=60)
        for t in range(1, 41):
            if procs[i].sample_all(t).tobytes() != want[i][t - 1]:
                bad.append((i, t))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not bad
    assert len(made) == 1


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_fading_worker_survives_fork():
    """A forked child must start a worker of its own: the parent's executor
    record names a thread the child does not have, and work queued to it would
    never run. SIGALRM kills a child that hangs."""
    proc = _large_fading()
    want = proc.sample_all(2)
    proc.sample_all(1)   # the parent's worker thread exists before the fork
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.alarm(10)
            code = 0 if proc.sample_all(2).tobytes() == want.tobytes() else 3
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_fading_worker_lock_is_fresh_after_fork():
    """A thread starting the worker may hold _worker_lock when another thread
    forks; the child must take a lock of its own, not wait on its copy of the
    held one. SIGALRM kills a child that hangs."""
    proc = _large_fading()
    want = proc.sample_all(2)
    proc.sample_all(1)   # the parent's worker thread exists before the fork
    with channel._worker_lock:
        pid = os.fork()
        if pid == 0:   # the child samples inside the block: leaving it would release the lock
            code = 1
            try:
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
                signal.alarm(10)
                code = 0 if proc.sample_all(2).tobytes() == want.tobytes() else 3
            finally:
                os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
