import numpy as np
import pytest

from marlsched.topology import (
    Deployment, DeploymentConfig, PlacementInfeasible, associate_max_rsrp,
    balance_pools, generate_deployment, nearest_remote_agents,
)


def test_generate_respects_min_distances():
    cfg = DeploymentConfig(num_aps=4, num_ues=24, area_side=500.0,
                           min_ap_ap_dist=35.0, min_ap_ue_dist=10.0)
    dep = generate_deployment(cfg, np.random.default_rng(3))
    ap = dep.ap_positions
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(ap[i] - ap[j]) >= 35.0
    for ue in dep.ue_positions:
        assert np.min(np.linalg.norm(ap - ue, axis=1)) >= 10.0
    assert np.all(dep.ap_positions >= 0) and np.all(dep.ap_positions <= 500)


def test_generate_unconstrained_single_pair():
    cfg = DeploymentConfig(num_aps=1, num_ues=1, area_side=100.0,
                           min_ap_ap_dist=0.0, min_ap_ue_dist=0.0)
    dep = generate_deployment(cfg, np.random.default_rng(0))
    assert dep.ap_positions.shape == (1, 2)
    assert dep.ue_positions.shape == (1, 2)


def test_generate_infeasible_raises():
    cfg = DeploymentConfig(num_aps=2, num_ues=2, area_side=10.0,
                           min_ap_ap_dist=100.0, min_ap_ue_dist=0.0)
    with pytest.raises(PlacementInfeasible):
        generate_deployment(cfg, np.random.default_rng(0))


def test_generate_deterministic():
    cfg = DeploymentConfig()
    a = generate_deployment(cfg, np.random.default_rng(11))
    b = generate_deployment(cfg, np.random.default_rng(11))
    assert np.array_equal(a.ap_positions, b.ap_positions)
    assert np.array_equal(a.ue_positions, b.ue_positions)


def test_associate_dominant_column():
    g = np.array([[1.0, 10.0], [5.0, 1.0], [2.0, 9.0]])
    assoc = associate_max_rsrp(g)
    assert assoc.tolist() == [1, 0, 1]


def test_associate_tie_goes_to_lowest_index():
    g = np.array([[3.0, 3.0], [1.0, 5.0]])
    assert associate_max_rsrp(g).tolist() == [0, 1]


def test_associate_repairs_empty_pool_with_best_rsrp():
    # all three UEs prefer AP 0; the repair must move the UE with the best
    # AP-1 gain; verify against brute force over candidate reassignments
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = rng.uniform(0.1, 1.0, size=(3, 2))
        g[:, 0] = g[:, 1] + 1.0     # AP 0 dominates everywhere
        assoc = associate_max_rsrp(g)
        assert sorted(np.bincount(assoc, minlength=2).tolist()) == [1, 2]
        moved = int(np.flatnonzero(assoc == 1)[0])
        assert moved == int(np.argmax(g[:, 1]))


def test_pools_partition():
    rng = np.random.default_rng(9)
    g = rng.uniform(0.1, 1.0, size=(24, 4))
    assoc = associate_max_rsrp(g)
    dep = Deployment(np.zeros((4, 2)), np.zeros((24, 2)), association=assoc)
    pools = dep.pools()
    all_ues = np.sort(np.concatenate(pools))
    assert np.array_equal(all_ues, np.arange(24))
    assert all(len(p) >= 1 for p in pools)


def test_balance_pools_equal_sizes():
    rng = np.random.default_rng(2)
    g = rng.uniform(0.1, 1.0, size=(12, 4))
    assoc = balance_pools(associate_max_rsrp(g), g, 3)
    assert np.bincount(assoc, minlength=4).tolist() == [3, 3, 3, 3]


def test_nearest_remote_line_layout():
    pos = np.array([[0.0, 0], [10.0, 0], [20.0, 0], [40.0, 0]])
    remotes = nearest_remote_agents(pos, 3)
    assert remotes[0].tolist() == [1, 2, 3]
    assert remotes[3].tolist() == [2, 1, 0]


def test_nearest_remote_single_ap_empty():
    assert nearest_remote_agents(np.array([[0.0, 0.0]]), 3)[0].tolist() == []


def test_nearest_remote_matches_bruteforce():
    rng = np.random.default_rng(4)
    pos = rng.uniform(0, 100, size=(6, 2))
    remotes = nearest_remote_agents(pos, 5)
    for i in range(6):
        dists = sorted(((np.linalg.norm(pos[j] - pos[i]), j)
                        for j in range(6) if j != i))
        assert remotes[i].tolist() == [j for _, j in dists]


def test_remote_lists_stable_under_relabeling():
    rng = np.random.default_rng(8)
    pos = rng.uniform(0, 100, size=(5, 2))
    # distance ties have measure zero here, so relabeling commutes
    perm = np.array([3, 0, 4, 1, 2])
    base = nearest_remote_agents(pos, 4)
    relabeled = nearest_remote_agents(pos[perm], 4)
    inv = np.argsort(perm)
    for new_i in range(5):
        expect = [inv[j] for j in base[perm[new_i]]]
        assert relabeled[new_i].tolist() == expect
