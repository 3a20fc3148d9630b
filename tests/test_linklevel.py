import numpy as np
import pytest
from hypothesis import given, strategies as st

from marlsched.linklevel import (
    LinkStats, ScheduleDecision, compute_rates, measured_sinr, pf_ratio,
    update_link_stats,
)


def _naive_rates(decisions, g2, noise, association):
    """Independent double-loop oracle for the SINR/rate computation."""
    k_ues, n_aps = g2.shape
    rates = np.zeros(k_ues)
    interference = np.zeros(k_ues)
    for j in range(k_ues):
        for i in range(n_aps):
            if i != association[j] and not decisions[i].off:
                interference[j] += g2[j, i] * decisions[i].power_w
    for i, dec in enumerate(decisions):
        if not dec.off:
            j = dec.ue
            rates[j] = np.log2(1 + g2[j, i] * dec.power_w / (interference[j] + noise))
    return rates, interference


def test_single_ap_unit_snr():
    g2 = np.array([[1.0]])
    rates, interf = compute_rates([ScheduleDecision(0, 2.0)], g2,
                                  noise_power=2.0, association=np.array([0]))
    assert rates[0] == pytest.approx(1.0)
    assert interf[0] == 0.0


def test_all_off_zero_everything():
    g2 = np.ones((4, 2))
    rates, interf = compute_rates([ScheduleDecision.silent()] * 2, g2, 1.0,
                                  np.array([0, 0, 1, 1]))
    assert np.all(rates == 0) and np.all(interf == 0)


def test_off_decision_power_adds_no_interference():
    """An off decision transmits nothing, whatever power_w it carries."""
    rng = np.random.default_rng(7)
    g2 = rng.uniform(1e-12, 1e-8, size=(4, 2))
    assoc = np.array([0, 0, 1, 1])
    served = ScheduleDecision(0, 0.01)
    rates, interf = compute_rates([served, ScheduleDecision(ue=-1, power_w=5.0)], g2,
                                  3.98e-14, assoc)
    want_r, want_i = compute_rates([served, ScheduleDecision.silent()], g2, 3.98e-14, assoc)
    assert np.array_equal(rates, want_r) and np.array_equal(interf, want_i)
    assert np.all(interf[:2] == 0.0) and rates[0] > 0.0


def _random_case(rng):
    """Gains (9, 3), an association with no empty pool, and decisions that leave
    an AP off with probability 0.3."""
    g2 = rng.uniform(1e-12, 1e-8, size=(9, 3))
    assoc = rng.integers(0, 3, size=9)
    for i in range(3):          # keep every pool nonempty
        assoc[i] = i
    decisions = []
    for i in range(3):
        if rng.random() < 0.3:
            decisions.append(ScheduleDecision.silent())
        else:
            pool = np.flatnonzero(assoc == i)
            decisions.append(ScheduleDecision(
                int(rng.choice(pool)), float(rng.uniform(0.001, 0.01))))
    return g2, assoc, decisions


def test_rates_match_naive_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g2, assoc, decisions = _random_case(rng)
        rates, interf = compute_rates(decisions, g2, 3.98e-14, assoc)
        exp_r, exp_i = _naive_rates(decisions, g2, 3.98e-14, assoc)
        assert np.allclose(rates, exp_r, rtol=1e-12)
        assert np.allclose(interf, exp_i, rtol=1e-12)


def test_served_signal_is_the_own_ap_term_bit_for_bit():
    """A served UE's signal is its own-AP term, the same product of the same
    operands as power_gains[ue, i] * tx[i], the expression it replaced."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        g2, assoc, decisions = _random_case(rng)
        rates, interf = compute_rates(decisions, g2, 3.98e-14, assoc)
        want = np.zeros(len(assoc))
        for i, dec in enumerate(decisions):
            if not dec.off:
                sinr = g2[dec.ue, i] * dec.power_w / (interf[dec.ue] + 3.98e-14)
                want[dec.ue] = np.log2(1.0 + sinr)
        assert rates.tobytes() == want.tobytes()


@pytest.mark.parametrize("ue", [2, 4])
def test_a_decision_outside_its_aps_pool_raises(ue):
    """AP 0 may serve only a UE of its own pool: UE 2 is AP 1's, and K = 4 has no UE 4."""
    g2 = np.ones((4, 2))
    assoc = np.array([0, 0, 1, 1])
    with pytest.raises(ValueError, match=f"^AP 0 cannot serve UE {ue}: it is not in AP 0's"):
        compute_rates([ScheduleDecision(ue, 1.0), ScheduleDecision.silent()], g2, 1.0, assoc)


@pytest.mark.parametrize("k", [-7, 7])
def test_power_of_two_scale_keeps_rates_bit_for_bit(k):
    """Scaling every gain and the noise by 2^k scales each product and sum
    exactly, so the interference scales exactly and each SINR, a ratio of two
    scaled values, keeps its bits, and so does each rate."""
    rng = np.random.default_rng(50 + k)
    for _ in range(50):
        g2, assoc, decisions = _random_case(rng)
        rates, interf = compute_rates(decisions, g2, 3.98e-14, assoc)
        got_r, got_i = compute_rates(decisions, g2 * 2.0 ** k, 3.98e-14 * 2.0 ** k, assoc)
        assert got_r.tobytes() == rates.tobytes()
        assert got_i.tobytes() == (interf * 2.0 ** k).tobytes()


def test_scale_by_three_keeps_rates_within_1e_12():
    """A scale of 3 rounds every gain, so the rates move, but by rounding only."""
    rng = np.random.default_rng(53)
    for _ in range(50):
        g2, assoc, decisions = _random_case(rng)
        rates, interf = compute_rates(decisions, g2, 3.98e-14, assoc)
        got_r, got_i = compute_rates(decisions, g2 * 3.0, 3.98e-14 * 3.0, assoc)
        np.testing.assert_allclose(got_r, rates, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got_i, interf * 3.0, rtol=1e-12, atol=0.0)


def test_rate_monotone_in_powers():
    rng = np.random.default_rng(1)
    g2 = rng.uniform(1e-12, 1e-8, size=(2, 2))
    assoc = np.array([0, 1])

    def rate0(p_own, p_other):
        decs = [ScheduleDecision(0, p_own), ScheduleDecision(1, p_other)]
        return compute_rates(decs, g2, 3.98e-14, assoc)[0][0]

    assert rate0(0.02, 0.01) > rate0(0.01, 0.01)      # own power up
    assert rate0(0.01, 0.02) < rate0(0.01, 0.01)      # interferer power up


def test_update_fixed_point():
    stats = LinkStats(avg_rate=np.array([1.0]), avg_interference=np.array([0.0]),
                      rate_floor=1e-3)
    update_link_stats(stats, np.array([1.0]), np.array([0.0]), 0.01, 0.05)
    assert stats.avg_rate[0] == pytest.approx(1.0)


def test_update_floor_clamp():
    stats = LinkStats(np.full(1, 1e-3), np.zeros(1), 1e-3)
    update_link_stats(stats, np.array([0.0]), np.array([0.0]), 0.01, 0.05)
    assert stats.avg_rate[0] == stats.rate_floor
    assert stats.weight[0] == pytest.approx(1.0 / stats.rate_floor)


def test_update_matches_closed_form_sum():
    # from a cold start, t steps at constant rate R give the truncated
    # geometric sum of the recursion
    alpha, rate, steps = 0.01, 2.0, 200
    stats = LinkStats(avg_rate=np.array([0.0]), avg_interference=np.array([0.0]),
                      rate_floor=0.0)
    for _ in range(steps):
        update_link_stats(stats, np.array([rate]), np.array([0.0]), alpha, 0.05)
    expect = sum(alpha * (1 - alpha) ** (steps - tau - 1) * rate
                 for tau in range(steps))
    assert stats.avg_rate[0] == pytest.approx(expect, rel=1e-12)


@given(st.floats(0.1, 10.0), st.floats(0.0, 10.0), st.floats(0.001, 0.999))
def test_update_is_convex_combination(old, new, alpha):
    stats = LinkStats(avg_rate=np.array([old]), avg_interference=np.array([old]),
                      rate_floor=0.0)
    update_link_stats(stats, np.array([new]), np.array([new]), alpha, alpha)
    lo, hi = min(old, new), max(old, new)
    assert lo - 1e-12 <= stats.avg_rate[0] <= hi + 1e-12
    assert lo - 1e-12 <= stats.avg_interference[0] <= hi + 1e-12


def test_interference_average_converges():
    # fixed decisions on a static channel: |avg - true| shrinks with t
    rng = np.random.default_rng(3)
    g2 = rng.uniform(1e-12, 1e-9, size=(4, 2))
    assoc = np.array([0, 0, 1, 1])
    decisions = [ScheduleDecision(0, 0.01), ScheduleDecision(2, 0.01)]
    _, true_interf = compute_rates(decisions, g2, 3.98e-14, assoc)
    stats = LinkStats(np.full(4, 1e-3), np.zeros(4), 1e-3)
    errs = []
    for t in range(300):
        update_link_stats(stats, np.zeros(4), true_interf, 0.01, 0.05)
        if t % 50 == 0:
            errs.append(np.abs(stats.avg_interference - true_interf).max())
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_measured_sinr_values():
    assert measured_sinr(1.0, 1.0, 0.0, 1.0) == pytest.approx(1.0)
    assert measured_sinr(2.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)
    rng = np.random.default_rng(5)
    g, p, i, n = rng.uniform(0.1, 1, 4)
    assert measured_sinr(g, p, i, n) == pytest.approx(g * p / (i + n))


def test_pf_ratio_values():
    assert pf_ratio(2.0, 3.0) == pytest.approx(4.0)
    assert pf_ratio(0.0, 123.0) == 0.0


def test_pf_sorting_matches_bruteforce():
    rng = np.random.default_rng(6)
    w = rng.uniform(0, 100, 24)
    sinr = rng.uniform(0, 50, 24)
    pf = pf_ratio(w, sinr)
    order = np.argsort(-pf, kind="stable")
    brute = sorted(range(24), key=lambda j: (-w[j] * np.log2(1 + sinr[j]), j))
    assert order.tolist() == brute
