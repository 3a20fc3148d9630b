import numpy as np
import pytest
from scipy import stats as spstats
from scipy.special import j0

from marlsched.channel import (
    DomainError, LongTermGains, PathLossParams, create_fading,
    draw_long_term_gains, path_loss_db,
)
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


def test_fading_lag1_autocorrelation():
    # f_d * T = 0.008 -> expected correlation about J0(2*pi*0.008)
    proc = create_fading(500, 200, 16, 8.0, 1e-3, np.random.default_rng(6))
    h1, h2 = proc.sample_all(1), proc.sample_all(2)
    corr = np.real(np.mean(h1 * np.conj(h2))) / np.mean(np.abs(h1) ** 2)
    assert corr > 0.95
    assert corr == pytest.approx(j0(2 * np.pi * 0.008), abs=0.04)


def test_fading_long_run_power():
    # ergodic power over many independent fades
    acc = 0.0
    reps = 40
    rng = np.random.default_rng(9)
    for _ in range(reps):
        p = create_fading(50, 50, 16, 8.0, 1e-3, rng)
        acc += np.mean(np.abs(p.sample_all(1)) ** 2)
    assert 0.98 <= acc / reps <= 1.02
