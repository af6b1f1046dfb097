"""Tie graph checks: Watts-Strogatz construction, strengthening, decay and
friend-of-friend referral."""

import math

import numpy as np
import pytest

from consumerlab.harness import RunConfig
from consumerlab.network import TieGraph, referral, watts_strogatz
from consumerlab.serialize import left_sum

# the removal floor a run uses unless configured otherwise
FLOOR = RunConfig().tie_removal_floor


def test_ring_lattice_when_beta_zero():
    rng = np.random.default_rng(0)
    g = watts_strogatz(40, 4, 0.0, rng)
    for node in range(40):
        assert g.degree(node) == 4
        for j in (1, 2):
            assert g.has_tie(node, (node + j) % 40)


def test_edge_count_preserved_under_rewiring():
    for beta in (0.0, 0.1, 0.5, 1.0):
        rng = np.random.default_rng(1)
        g = watts_strogatz(40, 4, beta, rng)
        assert g.edge_count() == 40 * 4 // 2


def test_default_construction_is_connected():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        g = watts_strogatz(40, 4, 0.1, rng)
        assert g.is_connected()
        g.audit()


def test_initial_strengths():
    rng = np.random.default_rng(2)
    g = watts_strogatz(40, 4, 0.1, rng, initial_strength=0.5)
    assert all(s == 0.5 for _, _, s in g.edges())


def test_watts_strogatz_parameter_validation():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        watts_strogatz(40, 3, 0.1, rng)     # odd k
    with pytest.raises(ValueError):
        watts_strogatz(4, 4, 0.1, rng)      # n <= k
    with pytest.raises(ValueError):
        watts_strogatz(40, 4, 1.5, rng)     # beta out of range


# ---------------------------------------------------------------------------
# strengthen / decay


def test_strengthen_clamps_at_one():
    g = TieGraph(5)
    g.add_tie(0, 1, 0.95)
    g.strengthen(0, 1, 0.1)
    assert g.strength(0, 1) == 1.0


def test_strengthen_creates_missing_tie():
    g = TieGraph(5)
    g.strengthen(2, 3, 0.1)
    assert g.strength(2, 3) == pytest.approx(0.1)
    assert g.strength(3, 2) == pytest.approx(0.1)


def test_strengthen_rejects_self_tie():
    g= TieGraph(5)
    with pytest.raises(ValueError):
        g.strengthen(1, 1, 0.1)


def test_decay_removal_rule_exact_boundary():
    # binary-exact arithmetic: a tie landing exactly on the floor survives
    # (removal is strictly below), the next decay removes it
    g = TieGraph(4)
    g.add_tie(0, 1, 0.75)
    g.decay_all(0.25, floor=0.5)
    assert g.strength(0, 1) == 0.5
    g.decay_all(0.25, floor=0.5)
    assert not g.has_tie(0, 1)


def test_decay_removal_rule_default_floor():
    g = TieGraph(4)
    g.add_tie(0, 1, 0.0515)
    g.decay_all(0.001, FLOOR)
    assert g.strength(0, 1) == pytest.approx(0.0505)
    g.decay_all(0.001, FLOOR)
    assert not g.has_tie(0, 1)


def test_zero_decay_keeps_strengths():
    rng = np.random.default_rng(4)
    g = watts_strogatz(20, 4, 0.2, rng)
    before = list(g.edges())
    g.decay_all(0.0, FLOOR)
    assert list(g.edges()) == before


def reference_decay(g, gamma, floor):
    # decay as first written: a walk over the sorted edges
    for a, b, s in list(g.edges()):
        s -= gamma
        if s < floor:
            g.remove_tie(a, b)
        else:
            g._adj[a][b] = s
            g._adj[b][a] = s


def test_decay_matches_sorted_walk_in_values_and_order():
    # ties created in random order, so insertion orders are not sorted, and
    # short-lived, so many are removed along the way
    rng = np.random.default_rng(6)
    g, ref = TieGraph(12), TieGraph(12)
    removed = unsorted = 0
    for _ in range(200):
        a, b = (int(v) for v in rng.choice(12, size=2, replace=False))
        delta = float(rng.uniform(0.0, 0.3))
        g.strengthen(a, b, delta)
        ref.strengthen(a, b, delta)
        before = g.edge_count()
        g.decay_all(0.01, 0.05)
        reference_decay(ref, 0.01, 0.05)
        removed += before - g.edge_count()
        for node in range(12):
            assert list(g.neighbors(node).items()) \
                == list(ref.neighbors(node).items())
            assert g.mean_strength(node) == ref.mean_strength(node)
            unsorted += list(g.neighbors(node)) != sorted(g.neighbors(node))
    assert g.checksum() == ref.checksum()
    assert removed > 100 and unsorted > 100


def test_decay_preserves_symmetry():
    rng = np.random.default_rng(5)
    g = watts_strogatz(20, 4, 0.3, rng)
    for _ in range(100):
        g.decay_all(0.004, FLOOR)
        g.audit()


# ---------------------------------------------------------------------------
# referral


def test_referral_unique_two_hop_candidate():
    g = TieGraph(5)
    g.add_tie(0, 1, 0.8)
    g.add_tie(1, 2, 0.6)
    rng = np.random.default_rng(6)
    friend = referral(g, 0, rng)
    assert friend == 2
    assert g.strength(0, 2) == 0.5


def test_referral_matches_brute_force_max_product():
    rng = np.random.default_rng(7)
    for trial in range(20):
        g = TieGraph(12)
        build = np.random.default_rng(100 + trial)
        for _ in range(18):
            a, b = build.integers(0, 12, size=2)
            if a != b:
                g.add_tie(int(a), int(b), float(build.uniform(0.1, 1.0)))
        start = int(build.integers(0, 12))
        # brute force over all two-hop paths
        best = None
        best_score = -1.0
        for m, s1 in g.neighbors(start).items():
            for b, s2 in g.neighbors(m).items():
                if b == start or g.has_tie(start, b):
                    continue
                score = s1 * s2
                if score > best_score or (score == best_score
                                          and (best is None or b < best)):
                    best, best_score = b, score
        if g.degree(start) == 11:
            continue
        friend = referral(g, start, rng)
        if best is not None:
            assert friend == best


def test_referral_isolated_node_falls_back_to_random():
    g = TieGraph(6)
    g.add_tie(1, 2, 0.5)
    rng = np.random.default_rng(8)
    friend = referral(g, 0, rng)
    assert friend != 0
    assert g.has_tie(0, friend)


def test_referral_tie_break_lower_id():
    g = TieGraph(6)
    g.add_tie(0, 1, 0.5)
    g.add_tie(1, 4, 0.5)
    g.add_tie(1, 3, 0.5)
    rng = np.random.default_rng(9)
    assert referral(g, 0, rng) == 3


def test_referral_fully_connected_consumer_is_noop():
    g = TieGraph(3)
    for a in range(3):
        for b in range(a + 1, 3):
            g.add_tie(a, b, 0.5)
    rng = np.random.default_rng(10)
    assert referral(g, 0, rng) is None
    assert g.edge_count() == 3


def test_decision_sums_add_left_to_right():
    # Python 3.12 made sum() of floats compensated: sum([0.1] * 10) is 1.0
    # there and 0.9999999999999999 before; decisions must not depend on it
    tenths = [0.1] * 10
    assert math.fsum(tenths) == 1.0
    assert left_sum(tenths) == 0.9999999999999999
    assert left_sum([]) == 0.0
    assert math.copysign(1.0, left_sum([-0.0, -0.0])) == 1.0
    g = TieGraph(11)
    for b in range(1, 11):
        g.add_tie(0, b, 0.1)
    assert g.mean_strength(0) == 0.9999999999999999 / 10
