import numpy as np
import pytest

from marlsched.baselines import (
    ITLINQ_ETA, ITLINQ_M, full_reuse_decide, get_baseline, itlinq_active_set,
    itlinq_decide, tdm_decide,
)
from marlsched.env import EnvConfig, NetworkEnv
from marlsched.topology import DeploymentConfig


def pool(env, i):
    return np.flatnonzero(env.association == i)


def make_env(n_aps=2, k_ues=6, seed=0, episode_length=60):
    cfg = EnvConfig(deployment=DeploymentConfig(num_aps=n_aps, num_ues=k_ues),
                    episode_length=episode_length)
    env = NetworkEnv(cfg)
    env.reset(seed)
    return env


def test_get_baseline_lookup():
    assert get_baseline("tdm") is tdm_decide
    with pytest.raises(ValueError):
        get_baseline("nope")


# ------------------------------------------------------------------ full reuse

def test_full_reuse_everyone_transmits_top_pf():
    env = make_env(seed=1)
    for _ in range(30):
        decs = full_reuse_decide(env)
        pf = env.true_pf()
        assert len(decs) == 2
        for i, dec in enumerate(decs):
            assert not dec.off
            assert dec.power_w == pytest.approx(env.config.p_max_w)
            assert dec.ue == min(pool(env, i), key=lambda j: (-pf[j], j))
        env.step_decisions(decs)


def test_full_reuse_tie_break_lowest_id():
    env = make_env(seed=2)
    # force an exact PF tie inside AP 0's pool
    ues = pool(env, 0)
    env.stats.avg_rate[:] = 1.0
    env.g2[ues, 0] = env.g2[ues[0], 0]
    env.stats.avg_interference[:] = 0.0
    dec = full_reuse_decide(env)[0]
    assert dec.ue == min(ues)


# ------------------------------------------------------------------------- TDM

def test_tdm_single_transmitter_round_robin():
    env = make_env(seed=3, episode_length=60)
    served = []
    for _ in range(59):
        decs = tdm_decide(env)
        on = [d for d in decs if not d.off]
        assert len(on) == 1
        assert on[0].power_w == pytest.approx(env.config.p_max_w)
        served.append(on[0].ue)
        # the transmitting AP must be the served UE's own AP
        i_on = next(i for i, d in enumerate(decs) if not d.off)
        assert env.association[on[0].ue] == i_on
        env.step_decisions(decs)
    # the schedule cycles through all K UEs with period K
    k = env.deployment.num_ues
    assert served[:k] == [(t % k) for t in range(1, k + 1)]
    counts = np.bincount(served, minlength=k)
    assert counts.max() - counts.min() <= 1


# ---------------------------------------------------------------------- ITLinQ

def _brute_force_active(selected, order, g2, p_max, noise, m_itq, eta):
    active = []
    for i in order:
        snr_i = p_max * g2[selected[i], i] / noise
        admit = True
        for a in active:
            inr_ai = p_max * g2[selected[a], i] / noise   # i's tx hitting a's UE
            inr_ia = p_max * g2[selected[i], a] / noise   # a's tx hitting i's UE
            if not (inr_ai < m_itq * snr_i ** eta and inr_ia < m_itq * snr_i ** eta):
                admit = False
        if admit:
            active.append(int(i))
    return active


def _random_instance(rng, n_max=5):
    n = int(rng.integers(1, n_max + 1))
    k = n * int(rng.integers(1, 4))
    g2 = 10.0 ** rng.uniform(-14, -6, size=(k, n))
    selected = rng.permutation(k)[:n]
    order = rng.permutation(n)
    return selected, order, g2


def test_itlinq_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(4)
    p_max, noise = 0.01, 3.98e-14
    for _ in range(300):
        selected, order, g2 = _random_instance(rng)
        got = itlinq_active_set(selected, order, g2, p_max, noise)
        want = _brute_force_active(selected, order, g2, p_max, noise,
                                   ITLINQ_M, ITLINQ_ETA)
        assert got == want


def test_itlinq_first_in_order_always_active():
    rng = np.random.default_rng(5)
    for _ in range(50):
        selected, order, g2 = _random_instance(rng)
        active = itlinq_active_set(selected, order, g2, 0.01, 3.98e-14)
        assert int(order[0]) in active


def test_itlinq_single_ap_always_transmits():
    active = itlinq_active_set(np.array([0]), np.array([0]),
                               np.array([[1e-8]]), 0.01, 3.98e-14)
    assert active == [0]


def test_itlinq_zero_cross_gains_admit_everyone():
    n = 4
    g2 = np.zeros((n, n))
    np.fill_diagonal(g2, 1e-8)
    selected = np.arange(n)
    order = np.arange(n)
    active = itlinq_active_set(selected, order, g2, 0.01, 3.98e-14)
    assert active == list(range(n))


def test_itlinq_huge_cross_gains_admit_only_first():
    n = 4
    g2 = np.full((n, n), 1e-6)
    selected = np.arange(n)
    order = np.array([2, 0, 1, 3])
    active = itlinq_active_set(selected, order, g2, 0.01, 3.98e-14)
    assert active == [2]


def test_itlinq_m_limit_cases():
    # the greedy walk is not monotone in m, but its limits are pinned:
    # m -> inf admits everyone, m -> 0 admits only the first in order
    rng = np.random.default_rng(6)
    for _ in range(50):
        selected, order, g2 = _random_instance(rng)
        everyone = itlinq_active_set(selected, order, g2, 0.01, 3.98e-14,
                                     m_itq=1e30)
        assert sorted(everyone) == sorted(int(i) for i in order)
        lone = itlinq_active_set(selected, order, g2, 0.01, 3.98e-14,
                                 m_itq=1e-30)
        assert lone == [int(order[0])]


def test_itlinq_decide_consistent_with_active_set():
    env = make_env(n_aps=4, k_ues=12, seed=7)
    for _ in range(20):
        decs = itlinq_decide(env)
        pf = env.true_pf()
        sel = np.array([min(pool(env, i), key=lambda j: (-pf[j], j)) for i in range(4)])
        order = np.array(sorted(range(4), key=lambda i: (-pf[sel[i]], i)))
        active = itlinq_active_set(sel, order, env.g2, env.config.p_max_w,
                                   env.config.noise_w)
        for i, dec in enumerate(decs):
            if i in active:
                assert dec.ue == sel[i]
                assert dec.power_w == pytest.approx(env.config.p_max_w)
            else:
                assert dec.off
        env.step_decisions(decs)


def test_itlinq_never_empty():
    env = make_env(n_aps=4, k_ues=12, seed=8)
    for _ in range(40):
        decs = itlinq_decide(env)
        assert any(not d.off for d in decs)
        env.step_decisions(decs)
