import numpy as np
import pytest

from marlsched.baselines import (
    BASELINES, ITLINQ_ETA, ITLINQ_M, full_reuse_decide, itlinq_active_set, itlinq_decide,
    tdm_decide,
)
from marlsched import baselines
from marlsched.env import EnvConfig, NetworkEnv
from marlsched.harness import BaselinePolicy, run_episode
from marlsched.topology import DeploymentConfig


def pool(env, i):
    return np.flatnonzero(env.association == i)


def make_env(n_aps=2, k_ues=6, seed=0, episode_length=60):
    cfg = EnvConfig(deployment=DeploymentConfig(num_aps=n_aps, num_ues=k_ues),
                    episode_length=episode_length)
    env = NetworkEnv(cfg)
    env.reset(seed)
    return env


def test_baseline_policy_lookup(monkeypatch):
    """BaselinePolicy reads BASELINES when it is built, so a swapped entry is the one it calls."""
    env = make_env(seed=1)
    assert BaselinePolicy("tdm").act([env], None) == [tdm_decide(env)]
    monkeypatch.setitem(BASELINES, "tdm", lambda env: "swapped")
    assert BaselinePolicy("tdm").act([env], None) == ["swapped"]
    with pytest.raises(ValueError, match=r"unknown baseline 'nope'; choose from "
                                         r"\['full_reuse', 'itlinq', 'tdm'\]"):
        BaselinePolicy("nope")


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


# ------------------------------------------------------------------- relations
# Each holds whatever bits the fading and BLAS kernels give: both sides of a
# relation run the same code on the same gains.

RELATION_SEEDS = (0, 1, 2)


def rates_only_rollout(cfg, name, seed):
    """A rates-only run_episode of baseline name: its per-interval decisions, (T, K)
    rates and interference, and (K,) average rates."""
    env = NetworkEnv(cfg)
    infos, step_decisions = [], env.step_decisions

    def recording(decisions, invalid=None):
        out = step_decisions(decisions, invalid)
        infos.append(out[3])
        return out

    env.step_decisions = recording
    average = run_episode([env], [seed], BaselinePolicy(name))[0]
    return ([info["decisions"] for info in infos],
            np.array([info["rates"] for info in infos]),
            np.array([info["interference"] for info in infos]), average)


def assert_same_rollouts(cfg, a, b):
    for seed in RELATION_SEEDS:
        _, *got = rates_only_rollout(cfg, a, seed)
        _, *want = rates_only_rollout(cfg, b, seed)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want], seed


def test_itlinq_at_one_ap_is_full_reuse():
    """A lone AP is always admitted, so ITLinQ serves what full reuse serves."""
    cfg = EnvConfig(deployment=DeploymentConfig(num_aps=1, num_ues=6), episode_length=300)
    assert_same_rollouts(cfg, "itlinq", "full_reuse")


def test_itlinq_admitting_every_ap_is_full_reuse(monkeypatch):
    """With ITLINQ_M so large that no cross INR reaches the limit, every AP is
    admitted at the default N=4."""
    monkeypatch.setattr(baselines, "ITLINQ_M", 1e300)
    assert_same_rollouts(EnvConfig(episode_length=300), "itlinq", "full_reuse")


def test_tdm_serves_without_interference():
    """Exactly one AP transmits in each interval, so its UE hears no interference."""
    cfg = EnvConfig(episode_length=300)
    for seed in RELATION_SEEDS:
        decisions, _, interference, _ = rates_only_rollout(cfg, "tdm", seed)
        assert len(decisions) == cfg.episode_length
        for t, (decs, heard) in enumerate(zip(decisions, interference), start=1):
            (ue,) = [d.ue for d in decs if not d.off]
            assert heard[ue] == 0.0, (seed, t)


def test_itlinq_active_set_follows_an_ap_relabelling():
    """Relabelling the APs by a permutation P, so that AP q is the old AP P[q],
    relabels the active set exactly and keeps its walk order: each admission
    compares the same gains."""
    rng = np.random.default_rng(12)
    p_max, noise = 0.01, 3.98e-14
    partial = 0
    for _ in range(300):
        selected, order, g2 = _random_instance(rng, n_max=6)
        perm = rng.permutation(len(order))
        new_id = np.argsort(perm)                      # old AP i is AP new_id[i]
        active = itlinq_active_set(selected, order, g2, p_max, noise)
        got = itlinq_active_set(selected[perm], new_id[order], g2[:, perm], p_max, noise)
        assert got == new_id[active].tolist()
        partial += 1 < len(active) < len(order)
    assert partial >= 30, partial   # instances where the walk admits some, not all
