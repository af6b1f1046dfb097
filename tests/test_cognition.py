"""Self-organizing map and attractiveness-threshold checks."""

import numpy as np
import pytest

from consumerlab.cognition import AttractivenessState, SelfOrganizingMap


def make_som(nodes=9, dim=4, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    return SelfOrganizingMap.random_init(nodes, dim, rng, **kwargs)


# ---------------------------------------------------------------------------
# best-matching unit


def test_bmu_exact_weight_match():
    som = make_som()
    x = som.weights[5].copy()
    assert som.bmu(x) == 5


def test_bmu_tie_goes_to_lower_index():
    weights = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    som = SelfOrganizingMap(3, 2, weights)
    assert som.bmu(np.array([1.0, 0.0])) == 0
    # equidistant between nodes 0 and 1
    assert som.bmu(np.array([0.5, 0.5])) == 0


def test_bmu_matches_exhaustive_scan():
    som = make_som(9, 4, seed=1)
    rng = np.random.default_rng(2)
    for _ in range(25):
        x = rng.uniform(0, 2, size=4)
        dists = [np.linalg.norm(w - x) for w in som.weights]
        assert som.bmu(x) == int(np.argmin(dists))


def test_bmu_dimension_mismatch_raises():
    som = make_som(dim=4)
    with pytest.raises(ValueError):
        som.bmu(np.zeros(5))


# ---------------------------------------------------------------------------
# training


def test_train_with_zero_alpha_leaves_weights():
    som = make_som(alpha0=0.0, alpha_floor=0.0)
    before = som.weights.copy()
    som.train(np.ones(4))
    assert np.array_equal(som.weights, before)
    assert som.steps == 1


def test_single_node_full_rate_overwrites():
    som = make_som(nodes=1, alpha0=1.0)
    x = np.array([0.3, 1.7, 0.9, 0.1])
    som.train(x)
    assert np.allclose(som.weights[0], x, atol=1e-15)


def test_neighborhood_is_gaussian_in_node_distance():
    # all nodes start at 0 except the BMU, which already sits on x
    som = SelfOrganizingMap(5, 1, np.array([[0.0], [0.0], [1.0], [0.0], [0.0]]),
                            alpha0=0.5, radius0=1.0)
    som.train(np.array([1.0]))
    h = np.exp(-np.array([4.0, 1.0, 0.0, 1.0, 4.0]) / 2.0)
    expected = 0.5 * h
    expected[2] = 1.0
    assert som.weights[:, 0] == pytest.approx(expected, abs=1e-15)


def test_repeated_training_converges_to_input():
    som = make_som(nodes=16, dim=4, seed=3)
    x = np.array([1.2, 0.4, 0.9, 1.5])
    for _ in range(1000):
        som.train(x)
    assert np.linalg.norm(som.weights[som.bmu(x)] - x) < 1e-6


def test_training_is_deterministic():
    a = make_som(seed=4)
    b = make_som(seed=4)
    x = np.array([0.5, 1.0, 1.5, 0.2])
    a.train(x)
    b.train(x)
    assert np.array_equal(a.weights, b.weights)


def test_weights_stay_in_component_hull():
    som = make_som(nodes=16, dim=3, seed=5, low=0.0, high=2.0)
    rng = np.random.default_rng(6)
    inputs = rng.uniform(-1.0, 3.0, size=(200, 3))
    lo = np.minimum(som.weights.min(axis=0), inputs.min(axis=0))
    hi = np.maximum(som.weights.max(axis=0), inputs.max(axis=0))
    for x in inputs:
        som.train(x)
        assert np.all(som.weights >= lo - 1e-12)
        assert np.all(som.weights <= hi + 1e-12)


def test_schedules_decay_and_floor():
    som = make_som(alpha0=0.3, alpha_decay=0.5, alpha_floor=0.01,
                   radius_decay=0.5, radius_floor=0.5)
    assert som.alpha() == pytest.approx(0.3)
    som.train(np.zeros(4))
    assert som.alpha() == pytest.approx(0.15)
    for _ in range(20):
        som.train(np.zeros(4))
    assert som.alpha() == 0.01
    assert som.radius() == 0.5


def test_distant_signatures_map_to_distinct_nodes_after_priming():
    som = make_som(nodes=64, dim=6, seed=9)
    rng = np.random.default_rng(10)
    signatures = rng.uniform(0, 2, size=(10, 6))
    for _ in range(3):
        for sig in signatures:
            som.train(sig)
    from itertools import combinations
    far_a, far_b = max(combinations(range(10), 2),
                       key=lambda p: np.linalg.norm(signatures[p[0]] - signatures[p[1]]))
    assert som.bmu(signatures[far_a]) != som.bmu(signatures[far_b])


# ---------------------------------------------------------------------------
# attractiveness


def primed_state(threshold=0.0, seed=11, pairs=()):
    rng = np.random.default_rng(seed)
    som = SelfOrganizingMap.random_init(16, 7, rng)
    state = AttractivenessState(som, threshold=threshold)
    for signature, utility in pairs:
        state.learn(np.asarray(signature, dtype=float), utility)
    return state


def test_unprimed_assessment_raises():
    state = primed_state()
    with pytest.raises(RuntimeError):
        state.predict_utility(np.zeros(6))


def test_floor_threshold_always_attractive():
    state = primed_state(threshold=-1.0,
                         pairs=[(np.ones(6), -0.9), (np.zeros(6), 0.2)])
    rng = np.random.default_rng(12)
    for _ in range(20):
        assert state.predict_utility(rng.uniform(0, 2, size=6)) >= state.threshold


def test_ceiling_threshold_requires_perfect_prediction():
    state = primed_state(threshold=1.0)
    for _ in range(500):
        state.learn(np.ones(6), 0.5)
    # converged prediction is 0.5 < 1.0
    assert state.predict_utility(np.ones(6)) < state.threshold
    # a node pinned at the ceiling is the only way to pass threshold 1.0
    weights = np.zeros((1, 7))
    weights[0, 6] = 1.0
    som = SelfOrganizingMap(1, 7, weights)
    som.steps = 1
    pinned = AttractivenessState(som, threshold=1.0)
    assert pinned.predict_utility(np.zeros(6)) >= pinned.threshold


def test_single_experience_dominates_prediction():
    signature = np.full(6, 0.8)
    state = primed_state(threshold=0.5)
    for _ in range(500):
        state.learn(signature, 0.7)
    assert state.predict_utility(signature) == pytest.approx(0.7, abs=1e-3)
    assert state.predict_utility(signature) >= state.threshold


def test_prediction_ignores_utility_component():
    # two nodes identical in signature space but wildly different utility:
    # lookup must match on signature alone
    weights = np.zeros((2, 7))
    weights[0, :6] = 1.0
    weights[0, 6] = 0.9
    weights[1, :6] = 0.0
    weights[1, 6] = -0.9
    som = SelfOrganizingMap(2, 7, weights)
    som.steps = 1
    state = AttractivenessState(som)
    assert state.predict_utility(np.ones(6)) == pytest.approx(0.9)
    assert state.predict_utility(np.zeros(6)) == pytest.approx(-0.9)


def test_prediction_clamped_to_utility_range():
    weights = np.zeros((1, 7))
    weights[0, 6] = 1.8
    som = SelfOrganizingMap(1, 7, weights)
    som.steps = 1
    state = AttractivenessState(som)
    assert state.predict_utility(np.zeros(6)) == 1.0


# ---------------------------------------------------------------------------
# threshold adaptation


def test_threshold_update_zero_rate():
    state = primed_state()
    state.adapt_rate = 0.0
    state.threshold = 0.4
    state.update_threshold(-0.8)
    assert state.threshold == 0.4


def test_threshold_update_full_rate():
    state = primed_state()
    state.adapt_rate = 1.0
    state.update_threshold(-0.8)
    assert state.threshold == -0.8


def test_threshold_geometric_approach():
    state = primed_state()
    state.adapt_rate = 0.1
    state.threshold = 0.0
    target = 0.6
    gap = target - state.threshold
    for _ in range(10):
        state.update_threshold(target)
        new_gap = target - state.threshold
        assert new_gap == pytest.approx(0.9 * gap, rel=1e-12)
        gap = new_gap


def test_threshold_clamped():
    state = primed_state()
    state.adapt_rate = 1.0
    state.threshold = 0.9
    state.update_threshold(1.0)
    assert state.threshold == 1.0
    state.update_threshold(-1.0)
    assert state.threshold == -1.0
