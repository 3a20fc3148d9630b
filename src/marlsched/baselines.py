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


def full_reuse_decide(env: NetworkEnv) -> list[ScheduleDecision]:
    """Every AP serves its top-PF UE at full power."""
    sel = env.pool_argmax(env.true_pf())
    return [ScheduleDecision(j, env.p_max_w) for j in sel.tolist()]


def tdm_decide(env: NetworkEnv) -> list[ScheduleDecision]:
    """Round robin: only UE (t mod K)'s AP transmits, at full power."""
    ue = env.t % env.deployment.num_ues
    server = int(env.association[ue])
    p = env.p_max_w
    return [ScheduleDecision(ue, p) if i == server else ScheduleDecision.silent()
            for i in range(env.deployment.num_aps)]


def itlinq_active_set(selected_ues: np.ndarray, order: np.ndarray,
                      power_gains: np.ndarray, p_max: float, noise: float) -> list[int]:
    """Greedy walk over PF-ordered APs, admitting those with weak cross-INRs.

    AP i joins the active set iff, against every already-active AP a, both
    cross interference-to-noise ratios stay below ITLINQ_M * SNR_i^ITLINQ_ETA.
    """
    gains = power_gains[selected_ues].tolist()     # row i: AP i's selected UE, to every AP
    active: list[int] = []
    for i in order.tolist():
        g_i = gains[i]
        limit = ITLINQ_M * (p_max * g_i[i] / noise) ** ITLINQ_ETA
        if not any(max(p_max * gains[a][i], p_max * g_i[a]) / noise >= limit for a in active):
            active.append(i)
    return active


def itlinq_decide(env: NetworkEnv) -> list[ScheduleDecision]:
    """Centralized binary power control on instantaneous channel gains."""
    pf = env.true_pf()
    sel = env.pool_argmax(pf)
    order = np.argsort(-pf[sel], kind="stable")      # ties to the lower AP id
    p = env.p_max_w
    active = set(itlinq_active_set(sel, order, env.g2, p, env.noise_w))
    return [ScheduleDecision(j, p) if i in active else ScheduleDecision.silent()
            for i, j in enumerate(sel.tolist())]


BASELINES = {
    "full_reuse": full_reuse_decide,
    "tdm": tdm_decide,
    "itlinq": itlinq_decide,
}
