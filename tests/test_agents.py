"""Consumer behavior checks: situation rules, action priority, consumption
life cycle, value adjustment and social influence."""

from collections import deque

import numpy as np
import pytest

from consumerlab.agents import (Consumer, act, adjust_values,
                                complete_consumption, evaluate_situations,
                                influence_target, interact_socially,
                                try_begin_consumption)
from consumerlab.cognition import AttractivenessState, SelfOrganizingMap
from consumerlab.harness import RunConfig
from consumerlab.network import TieGraph
from consumerlab.products import ProductType, ProductTopology, utility_from_edges
from consumerlab.serialize import draw_below
from consumerlab.space import ConsumptionSpace, ProductInstance


class StubWorld:
    """Just enough world for exercising agent rules."""

    def __init__(self, config=None, social=True, width=30, height=30,
                 types=(), product_cells=()):
        self.config = config or RunConfig(social=social, width=width,
                                          height=height)
        self.social = social
        self.space = ConsumptionSpace(width, height,
                                      self.config.proximity_radius)
        self.types = {t.type_id: t for t in types}
        self.network = TieGraph(max(self.config.n_consumers, 4))
        self.consumers = {}
        self.respawned = []
        for k, (type_id, x, y) in enumerate(product_cells):
            self.space.place_product(
                ProductInstance(k, type_id, (x, y)))
        self.space.rebuild_field()

    def queue_respawn(self, instance_id):
        self.respawned.append(instance_id)


def make_type(type_id=0, edge_count=10, signature=None):
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    topo = ProductTopology(tuple(edges[:edge_count])
                           if edge_count >= 5 else tuple(edges))
    # force the wanted edge count with a valid connected subset
    base = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    extra = [e for e in edges if e not in base]
    topo = ProductTopology(tuple(sorted(base + extra[:edge_count - 5])))
    sig = np.full(6, 1.0) if signature is None else np.asarray(signature, float)
    return ProductType(type_id=type_id, topology=topo, signature=sig,
                       utility=utility_from_edges(topo.edge_count))


def make_consumer(cid=0, x=5, y=5, ideal=None, world=None, threshold=-1.0,
                  utility_window=10):
    rng = np.random.default_rng(1000 + cid)
    rng.uniform(0.0, 2.0, size=(16, 6))  # keeps each fixture's map weights
    conception = SelfOrganizingMap.random_init(8, 7, rng)
    consumer = Consumer(
        id=cid, location=(x, y),
        ideal=np.full(6, 1.0) if ideal is None else np.asarray(ideal, float),
        attract=AttractivenessState(conception, threshold=threshold),
        recent_utilities=deque(maxlen=utility_window))
    # prime the conception map so predictions are legal
    for _ in range(3):
        consumer.attract.learn(np.full(6, 1.0), 0.5)
    if world is not None:
        world.space.place_consumer(consumer)
        world.consumers[cid] = consumer
    return consumer


# ---------------------------------------------------------------------------
# situation rules


def test_fresh_consumer_only_consumes_locally():
    # fresh = counters at zero and a healthy initialized social network; no
    # situation is active, so act falls through to foraging
    world = StubWorld(social=True)
    c = make_consumer(world=world)
    for other in (1, 2, 3):
        world.network.add_tie(0, other, 0.5)
    evaluate_situations(c, world)
    assert not (c.dissatisfied or c.bored or c.interact or c.find_friend
                or c.change_location or c.change_values)


def test_low_degree_weak_ties_triggers_friend_search():
    world = StubWorld(social=True)
    c = make_consumer(world=world)
    world.network.add_tie(0, 1, 0.1)
    world.network.add_tie(0, 2, 0.1)
    evaluate_situations(c, world)
    assert c.find_friend


def test_strong_ties_suppress_friend_search():
    world = StubWorld(social=True)
    c = make_consumer(world=world)
    world.network.add_tie(0, 1, 0.9)
    world.network.add_tie(0, 2, 0.9)
    evaluate_situations(c, world)
    assert not c.find_friend


def test_friend_search_never_fires_without_social_mode():
    world = StubWorld(social=False)
    c = make_consumer(world=world)
    c.dissatisfaction_count = 100
    evaluate_situations(c, world)
    assert not c.find_friend
    assert not c.interact


def test_interaction_requires_frustration_and_no_consumption():
    world = StubWorld(social=True)
    c = make_consumer(world=world)
    c.dissatisfaction_count = world.config.frustration_limit
    evaluate_situations(c, world)
    assert c.interact
    c.consuming, c.consume_left = 0, 3
    evaluate_situations(c, world)
    assert not c.interact


def test_failed_search_also_counts_as_frustration():
    world = StubWorld(social=True)
    c = make_consumer(world=world)
    c.failed_search_count = world.config.frustration_limit
    evaluate_situations(c, world)
    assert c.interact


def test_boredom_threshold():
    world = StubWorld()
    c = make_consumer(world=world)
    c.boredom_count = world.config.boredom_limit
    evaluate_situations(c, world)
    assert c.bored


def test_negative_trailing_utility_triggers_dissatisfaction():
    world = StubWorld()
    c = make_consumer(world=world)
    c.recent_utilities.extend([0.4, -0.9])
    evaluate_situations(c, world)
    assert c.dissatisfied
    c.recent_utilities.clear()
    c.recent_utilities.extend([0.4, -0.1])
    evaluate_situations(c, world)
    assert not c.dissatisfied


def test_change_situations_persist_until_fired():
    world = StubWorld()
    c = make_consumer(world=world)
    c.change_values = True
    evaluate_situations(c, world)
    assert c.change_values


# ---------------------------------------------------------------------------
# action priority


def test_friend_search_preempts_interaction():
    world = StubWorld(social=True)
    c = make_consumer(world=world)
    other = make_consumer(cid=1, x=10, y=10, world=world)
    world.network.add_tie(1, 2, 0.1)
    c.dissatisfaction_count = 10     # interaction eligible
    rng = np.random.default_rng(0)
    evaluate_situations(c, world)
    assert c.find_friend
    assert c.interact
    act(c, world, rng)
    # referral happened (new tie), interaction did not (counters intact)
    assert world.network.degree(0) == 1
    assert c.dissatisfaction_count == 10


def test_bored_preempts_change_location():
    world = StubWorld(social=False)
    c = make_consumer(world=world)
    c.change_location = True
    c.escape_budget = 5
    c.boredom_count = world.config.boredom_limit
    evaluate_situations(c, world)
    act(c, world, np.random.default_rng(0))
    # boredom fired (counter reset); the escape step did not (no move)
    assert c.boredom_count == 0
    assert c.location == (5, 5)
    assert c.escape_budget == world.config.escape_cycles


def test_dissatisfied_aborts_consumption():
    world = StubWorld(types=[make_type()], product_cells=[(0, 5, 5)])
    c = make_consumer(world=world)
    instance = world.space.products[0]
    instance.in_use = True
    c.consuming, c.consume_left = 0, 3
    c.recent_utilities.append(-0.5)
    evaluate_situations(c, world)
    act(c, world, np.random.default_rng(0))
    assert c.consuming is None
    assert instance.in_use is False
    assert c.dissatisfaction_count == 1
    assert len(c.recent_utilities) == 0
    assert c.change_location or c.change_values


def test_dissatisfaction_alternates_change_kinds():
    world = StubWorld()
    c = make_consumer(world=world)
    c.recent_utilities.append(-0.5)
    evaluate_situations(c, world)
    act(c, world, np.random.default_rng(0))
    first = c.change_location
    c.change_location = c.change_values = False
    c.recent_utilities.append(-0.5)
    evaluate_situations(c, world)
    act(c, world, np.random.default_rng(0))
    second = c.change_location
    assert first != second


# ---------------------------------------------------------------------------
# consumption life cycle


def test_begin_consumption_on_matching_product():
    ptype = make_type(signature=np.full(6, 1.0))
    world = StubWorld(types=[ptype], product_cells=[(0, 5, 5)])
    c = make_consumer(world=world, ideal=np.full(6, 1.0), threshold=-1.0)
    began = try_begin_consumption(c, world.space.products[0], world)
    assert began
    assert world.space.products[0].in_use is True
    assert c.consuming == 0
    assert c.consume_left == world.config.consumption_cycles
    assert c.failed_search_count == 0


def test_decline_when_valuation_gate_fails():
    far = np.full(6, 5.0)
    ptype = make_type(signature=far)
    world = StubWorld(types=[ptype], product_cells=[(0, 5, 5)])
    c = make_consumer(world=world, ideal=np.zeros(6), threshold=-1.0)
    began = try_begin_consumption(c, world.space.products[0], world)
    assert not began
    assert c.failed_search_count == 1
    assert c.change_location


def test_decline_when_threshold_gate_fails():
    ptype = make_type(signature=np.full(6, 1.0))
    world = StubWorld(types=[ptype], product_cells=[(0, 5, 5)])
    c = make_consumer(world=world, ideal=np.full(6, 1.0), threshold=1.0)
    assert not try_begin_consumption(c, world.space.products[0], world)


def test_completion_updates_everything():
    ptype = make_type(edge_count=12, signature=np.full(6, 1.0))  # u > 0
    world = StubWorld(types=[ptype], product_cells=[(0, 5, 5)])
    c = make_consumer(world=world, ideal=np.full(6, 0.7), threshold=-1.0)
    assert try_begin_consumption(c, world.space.products[0], world)
    before_gap = np.linalg.norm(c.ideal - ptype.signature)
    threshold_before = c.attract.threshold
    realized = complete_consumption(c, world)
    assert realized == ptype.utility
    assert c.consuming is None
    assert c.units_consumed == 1
    assert c.utility_total == realized
    assert world.respawned == [0]
    assert c.recent_utilities[-1] == realized
    # positive utility pulls the ideal toward the signature
    assert np.linalg.norm(c.ideal - ptype.signature) < before_gap
    assert c.attract.threshold != threshold_before


def test_completion_negative_utility_pushes_away():
    ptype = make_type(edge_count=5, signature=np.full(6, 1.0))  # u < 0
    world = StubWorld(types=[ptype], product_cells=[(0, 5, 5)])
    c = make_consumer(world=world, ideal=np.full(6, 0.7), threshold=-1.0)
    assert try_begin_consumption(c, world.space.products[0], world)
    before_gap = np.linalg.norm(c.ideal - ptype.signature)
    complete_consumption(c, world)
    assert np.linalg.norm(c.ideal - ptype.signature) > before_gap
    assert np.all(c.ideal >= 0.0)


def test_consumption_ticks_down_through_act():
    ptype = make_type(signature=np.full(6, 1.0))
    world = StubWorld(types=[ptype], product_cells=[(0, 5, 5)])
    c = make_consumer(world=world, ideal=np.full(6, 1.0), threshold=-1.0)
    assert try_begin_consumption(c, world.space.products[0], world)
    rng = np.random.default_rng(0)
    for _ in range(world.config.consumption_cycles):
        evaluate_situations(c, world)
        act(c, world, rng)
    assert c.consuming is None
    assert c.units_consumed == 1


# ---------------------------------------------------------------------------
# value adjustment


def test_adjust_values_zero_rate():
    world = StubWorld()
    c = make_consumer(world=world, ideal=np.full(6, 0.5))
    adjust_values(c, np.ones(6), 0.0, toward=True)
    assert np.array_equal(c.ideal, np.full(6, 0.5))


def test_adjust_values_full_rate():
    world = StubWorld()
    c = make_consumer(world=world, ideal=np.full(6, 0.5))
    adjust_values(c, np.ones(6), 1.0, toward=True)
    assert np.array_equal(c.ideal, np.ones(6))


def test_adjust_values_geometric_contraction():
    world = StubWorld()
    c = make_consumer(world=world, ideal=np.zeros(6))
    target = np.ones(6)
    gap = np.linalg.norm(c.ideal - target)
    for _ in range(5):
        adjust_values(c, target, 0.2, toward=True)
        new_gap = np.linalg.norm(c.ideal - target)
        assert new_gap == pytest.approx(0.8 * gap, rel=1e-12)
        gap = new_gap


def test_adjust_values_away_clamps_at_zero():
    world = StubWorld()
    c = make_consumer(world=world, ideal=np.full(6, 0.1))
    adjust_values(c, np.ones(6), 1.0, toward=False)
    assert np.all(c.ideal >= 0.0)


def test_adjust_values_validates_eta():
    world = StubWorld()
    c = make_consumer(world=world)
    with pytest.raises(ValueError):
        adjust_values(c, np.ones(6), 1.5, toward=True)


# ---------------------------------------------------------------------------
# influence target


def test_two_neighbor_categorization_exhaustive():
    # every history case of a similar neighbor (1) and a dissimilar one (2)
    world = StubWorld(social=True)
    c = make_consumer(cid=0, world=world, ideal=np.zeros(6))
    near = make_consumer(cid=1, x=10, y=10, world=world, ideal=np.full(6, 0.1))
    far = make_consumer(cid=2, x=12, y=12, world=world, ideal=np.full(6, 2.0))
    world.network.add_tie(0, 1, 0.5)
    world.network.add_tie(0, 2, 0.5)
    cases = [((), (), 1), ((0.1,), (), 1), ((), (-0.5,), 2),
             ((0.1, 0.2), (0.8, 0.9), 2), ((0.8, 0.9), (0.1, 0.2), 1)]
    for near_history, far_history, expected in cases:
        near.recent_utilities.clear()
        near.recent_utilities.extend(near_history)
        far.recent_utilities.clear()
        far.recent_utilities.extend(far_history)
        assert influence_target(c, world.network, world.consumers) == expected


def test_categorization_ties_break_to_lower_id():
    world = StubWorld(social=True)
    c = make_consumer(cid=0, world=world, ideal=np.zeros(6))
    a = make_consumer(cid=1, x=10, y=10, world=world, ideal=np.ones(6))
    b = make_consumer(cid=2, x=12, y=12, world=world, ideal=np.ones(6))
    world.network.add_tie(0, 1, 0.5)
    world.network.add_tie(0, 2, 0.5)
    # equally similar
    assert influence_target(c, world.network, world.consumers) == 1
    # equally admired
    a.recent_utilities.append(0.4)
    b.recent_utilities.append(0.4)
    assert influence_target(c, world.network, world.consumers) == 1


def test_no_ties_yields_no_target():
    world = StubWorld(social=True)
    c = make_consumer(world=world)
    assert influence_target(c, world.network, world.consumers) is None


def test_admiration_requires_history():
    world = StubWorld(social=True)
    c = make_consumer(cid=0, world=world)
    make_consumer(cid=1, x=10, y=10, world=world)
    world.network.add_tie(0, 1, 0.5)
    # no neighbor has history: the most similar one is the target
    assert influence_target(c, world.network, world.consumers) == 1


# ---------------------------------------------------------------------------
# social influence


def test_value_influence_moves_toward_neighbor():
    world = StubWorld(social=True)
    c = make_consumer(cid=0, world=world, ideal=np.zeros(6))
    n = make_consumer(cid=1, x=10, y=10, world=world, ideal=np.ones(6))
    n.recent_utilities.append(0.5)
    world.network.add_tie(0, 1, 0.5)
    c.approach_next = False
    gap = np.linalg.norm(c.ideal - n.ideal)
    assert interact_socially(c, world)
    assert np.linalg.norm(c.ideal - n.ideal) < gap
    assert world.network.strength(0, 1) > 0.5
    assert c.dissatisfaction_count == 0


def test_value_influence_identical_ideals_noop():
    world = StubWorld(social=True)
    c = make_consumer(cid=0, world=world, ideal=np.ones(6))
    n = make_consumer(cid=1, x=10, y=10, world=world, ideal=np.ones(6))
    world.network.add_tie(0, 1, 0.5)
    c.approach_next = False
    interact_socially(c, world)
    assert np.array_equal(c.ideal, np.ones(6))


def test_spatial_approach_enters_navigation():
    world = StubWorld(social=True)
    c = make_consumer(cid=0, world=world)
    n = make_consumer(cid=1, x=15, y=5, world=world)
    n.recent_utilities.append(0.5)
    world.network.add_tie(0, 1, 0.5)
    c.approach_next = True
    interact_socially(c, world)
    assert c.nav_target == (15, 5)


def test_navigation_walks_to_adjacency():
    world = StubWorld(social=True)
    c = make_consumer(cid=0, x=5, y=5, world=world)
    n = make_consumer(cid=1, x=10, y=5, world=world)
    n.recent_utilities.append(0.5)
    world.network.add_tie(0, 1, 0.5)
    c.approach_next = True
    rng = np.random.default_rng(0)
    interact_socially(c, world)
    for _ in range(20):
        evaluate_situations(c, world)
        act(c, world, rng)
        if c.nav_target is None:
            break
    assert c.nav_target is None
    assert c.nav_budget == 0
    assert abs(c.location[0] - 10) + abs(c.location[1] - 5) <= 1


def test_interaction_alternates_effects():
    world = StubWorld(social=True)
    c = make_consumer(cid=0, world=world, ideal=np.zeros(6))
    n = make_consumer(cid=1, x=20, y=20, world=world, ideal=np.ones(6))
    n.recent_utilities.append(0.5)
    world.network.add_tie(0, 1, 0.5)
    c.approach_next = False
    interact_socially(c, world)
    assert c.nav_target is None                   # value effect
    interact_socially(c, world)
    assert c.nav_target == (20, 20)   # approach


def test_interaction_without_neighbors_is_noop():
    world = StubWorld(social=True)
    c = make_consumer(cid=0, world=world)
    assert interact_socially(c, world) is False


def test_exactly_one_neighbor_influences_per_interaction():
    world = StubWorld(social=True)
    c = make_consumer(cid=0, world=world, ideal=np.zeros(6))
    a = make_consumer(cid=1, x=10, y=10, world=world, ideal=np.ones(6))
    b = make_consumer(cid=2, x=12, y=12, world=world, ideal=np.full(6, 2.0))
    a.recent_utilities.append(0.9)
    b.recent_utilities.append(0.1)
    world.network.add_tie(0, 1, 0.5)
    world.network.add_tie(0, 2, 0.5)
    c.approach_next = False
    interact_socially(c, world)
    # pulled toward the most admired (id 1, ideal ones), not the blend
    assert np.allclose(c.ideal, 0.2 * np.ones(6))
    assert world.network.strength(0, 1) > 0.5
    assert world.network.strength(0, 2) == 0.5


# ---------------------------------------------------------------------------
# foraging


def test_forage_climbs_gradient():
    ptype = make_type(signature=np.full(6, 1.0))
    world = StubWorld(social=False, types=[ptype], product_cells=[(0, 10, 5)])
    c = make_consumer(world=world, x=5, y=5)
    rng = np.random.default_rng(0)
    before = abs(c.location[0] - 10) + abs(c.location[1] - 5)
    evaluate_situations(c, world)
    act(c, world, rng)
    after = abs(c.location[0] - 10) + abs(c.location[1] - 5)
    assert after == before - 1


def test_forage_random_walks_on_plateau():
    world = StubWorld(social=False)
    c = make_consumer(world=world, x=5, y=5)
    rng = np.random.default_rng(0)
    evaluate_situations(c, world)
    act(c, world, rng)
    assert c.location != (5, 5)


def test_blocked_consumer_stays_put():
    world = StubWorld(social=False)
    c = make_consumer(cid=0, x=1, y=1, world=world)
    # wall in the consumer with neighbors
    for cid, (x, y) in enumerate([(1, 0), (2, 1), (1, 2), (0, 1)], start=1):
        make_consumer(cid=cid, x=x, y=y, world=world)
    rng = np.random.default_rng(0)
    evaluate_situations(c, world)
    act(c, world, rng)
    assert c.location == (1, 1)


def test_product_being_consumed_treated_as_absent():
    ptype = make_type(signature=np.full(6, 1.0))
    world = StubWorld(social=False, types=[ptype], product_cells=[(0, 5, 5)])
    world.space.products[0].in_use = True
    c = make_consumer(world=world, x=5, y=5, threshold=-1.0)
    rng = np.random.default_rng(0)
    evaluate_situations(c, world)
    act(c, world, rng)
    assert c.consuming is None
    assert c.failed_search_count == 0


# ---------------------------------------------------------------------------
# bounded draws


def test_draw_below_matches_generator_integers():
    # draw_below must return what rng.integers(0, k) returns and leave the
    # generator in the same state, buffered half-word included, when its
    # draws are mixed with other kinds of draw; 2**31 + 5 rejects about half
    # of its words, so the rejection loop is exercised, and k = 1 must take
    # no word at all
    in_range = [1, 2, 3, 4, 39, 2**31 + 5, 2**32 - 1]
    out_of_range = [0, 2**32, 2**40]
    for k in in_range + out_of_range:
        for half_used in (False, True):
            ours = np.random.default_rng(k % 1000 + 17)
            numpys = np.random.default_rng(k % 1000 + 17)
            if half_used:
                # one 32-bit draw leaves the other half of a word buffered
                for rng in (ours, numpys):
                    rng.random(dtype=np.float32)
                assert ours.bit_generator.state["has_uint32"] == 1
            for i in range(400):
                if k == 0:
                    with pytest.raises(ValueError) as got:
                        draw_below(ours, k)
                    with pytest.raises(ValueError) as want:
                        numpys.integers(0, k)
                    assert str(got.value) == str(want.value)
                else:
                    got = draw_below(ours, k)
                    assert type(got) is int
                    assert got == int(numpys.integers(0, k))
                kind = i % 4
                if kind == 1:
                    assert (ours.permutation(7).tolist()
                            == numpys.permutation(7).tolist())
                elif kind == 2:
                    assert ours.uniform() == numpys.uniform()
                elif kind == 3:
                    assert ours.normal() == numpys.normal()
                if i % 50 == 0:
                    assert ours.bit_generator.state == numpys.bit_generator.state
            state = ours.bit_generator.state
            assert state == numpys.bit_generator.state
            assert state["has_uint32"] == numpys.bit_generator.state["has_uint32"]
            assert state["uinteger"] == numpys.bit_generator.state["uinteger"]
