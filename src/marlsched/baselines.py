"""Reference schedulers: full reuse, TDM and centralized ITLinQ.

The deciders read ground-truth link statistics straight from the
environment (no feedback delay); the long-term averages they rely on still
evolve through the same recursions the learned agents experience.
"""

from __future__ import annotations

import numpy as np

from .env import NetworkEnv
from .linklevel import ScheduleDecision

ITLINQ_M = 1.0
ITLINQ_ETA = 0.4


def _top_pf_per_pool(env: NetworkEnv):
    """Each AP's highest true-PF UE; ties broken by lowest UE id."""
    pf = env.true_pf()
    return env.pool_argmax(pf), pf


def full_reuse_decide(env: NetworkEnv) -> list[ScheduleDecision]:
    """Every AP serves its top-PF UE at full power."""
    sel, _ = _top_pf_per_pool(env)
    p = env.config.p_max_w
    return [ScheduleDecision.serve(int(j), p) for j in sel]


def tdm_decide(env: NetworkEnv) -> list[ScheduleDecision]:
    """Round robin: only UE (t mod K)'s AP transmits, at full power."""
    ue = env.t % env.deployment.num_ues
    server = int(env.association[ue])
    p = env.config.p_max_w
    return [ScheduleDecision.serve(ue, p) if i == server else ScheduleDecision.silent()
            for i in range(env.deployment.num_aps)]


def itlinq_active_set(selected_ues: np.ndarray, order: np.ndarray,
                      power_gains: np.ndarray, p_max: float, noise: float,
                      m_itq: float = ITLINQ_M, eta: float = ITLINQ_ETA) -> list[int]:
    """Greedy walk over PF-ordered APs, admitting those with weak cross-INRs.

    AP i joins the active set iff, against every already-active AP a, both
    cross interference-to-noise ratios stay below m_itq * SNR_i^eta.
    """
    active: list[int] = []
    for i in order:
        j_i = selected_ues[i]
        snr = p_max * power_gains[j_i, i] / noise
        ok = True
        for a in active:
            j_a = selected_ues[a]
            inr = max(p_max * power_gains[j_a, i], p_max * power_gains[j_i, a]) / noise
            if inr >= m_itq * snr ** eta:
                ok = False
                break
        if ok:
            active.append(int(i))
    return active


def itlinq_decide(env: NetworkEnv) -> list[ScheduleDecision]:
    """Centralized binary power control on instantaneous channel gains."""
    sel, pf = _top_pf_per_pool(env)
    order = np.array(sorted(range(env.deployment.num_aps),
                            key=lambda i: (-pf[sel[i]], i)))
    active = itlinq_active_set(sel, order, env.g2, env.config.p_max_w,
                               env.config.noise_w)
    p = env.config.p_max_w
    return [ScheduleDecision.serve(int(sel[i]), p) if i in active
            else ScheduleDecision.silent()
            for i in range(env.deployment.num_aps)]


BASELINES = {
    "full_reuse": full_reuse_decide,
    "tdm": tdm_decide,
    "itlinq": itlinq_decide,
}


def get_baseline(name: str):
    try:
        return BASELINES[name]
    except KeyError:
        raise ValueError(f"unknown baseline {name!r}; choose from {sorted(BASELINES)}")
