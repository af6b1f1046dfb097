"""Grid world checks: neighborhoods, occupancy, the proximity field and
product respawn."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

from consumerlab.space import ConsumptionSpace, ProductInstance, manhattan


def make_space(width=20, height=20, radius=5, products=()):
    space = ConsumptionSpace(width, height, radius)
    for k, (x, y) in enumerate(products):
        space.place_product(ProductInstance(k, 0, (x, y)))
    space.rebuild_field()
    return space


# ---------------------------------------------------------------------------
# neighborhoods


def test_interior_cell_has_four_neighbors_in_nesw_order():
    space = make_space()
    nbs = space.von_neumann_neighbors((5, 5))
    assert nbs == [(5, 4), (6, 5), (5, 6), (4, 5)]


def test_corner_cell_has_two_neighbors():
    space = make_space()
    assert len(space.von_neumann_neighbors((0, 0))) == 2
    assert len(space.von_neumann_neighbors((19, 19))) == 2


def test_edge_cell_has_three_neighbors():
    space = make_space()
    assert len(space.von_neumann_neighbors((0, 7))) == 3


def reference_neighbors(width, height, loc):
    # the neighbourhood as first written, one tuple per cell
    x, y = loc
    out = []
    if y > 0:
        out.append((x, y - 1))
    if x < width - 1:
        out.append((x + 1, y))
    if y < height - 1:
        out.append((x, y + 1))
    if x > 0:
        out.append((x - 1, y))
    return out


# every corner, edge and interior case, including 1-wide, 1-high and 1 x 1
GRID_SHAPES = [(1, 1), (1, 6), (6, 1), (2, 2), (5, 4), (9, 7)]


@pytest.mark.parametrize("width, height", GRID_SHAPES)
def test_neighborhoods_match_reference_on_every_cell(width, height):
    space = make_space(width=width, height=height)
    for x in range(width):
        for y in range(height):
            loc = (x, y)
            want = reference_neighbors(width, height, loc)
            got = space.von_neumann_neighbors(loc)
            assert got == want
            assert all(type(nb) is tuple for nb in got)
            assert space.neighbor_cells(x, y) == want


def reference_contact_pairs(space, consumers):
    # every consumer's whole neighbourhood, each pair kept once, sorted
    pairs = set()
    for c in consumers:
        for nb in reference_neighbors(space.width, space.height, c.location):
            other = space.consumer_at(nb)
            if other is not None:
                pairs.add((min(c.id, other), max(c.id, other)))
    return sorted(pairs)


@pytest.mark.parametrize("width, height", GRID_SHAPES + [(12, 10)])
def test_contact_pairs_match_brute_force(width, height):
    rng = np.random.default_rng(width * 100 + height)
    cells = [(x, y) for x in range(width) for y in range(height)]
    for trial in range(40):
        count = int(rng.integers(0, len(cells) + 1))
        chosen = rng.permutation(len(cells))[:count]
        ids = rng.permutation(count)   # ids unrelated to placement order
        space = make_space(width=width, height=height)
        consumers = [place(space, int(cid), *cells[k])
                     for cid, k in zip(ids, chosen)]
        assert space.contact_pairs() == reference_contact_pairs(space, consumers)


def test_free_neighbor_cells_skip_consumers_in_nesw_order():
    space = make_space(width=3, height=3)
    place(space, 0, 1, 0)
    place(space, 1, 1, 2)
    assert space.free_neighbor_cells((1, 1)) == [(2, 1), (0, 1)]
    assert space.free_neighbor_cells((0, 0)) == [(0, 1)]


# ---------------------------------------------------------------------------
# movement and occupancy


def place(space, cid, x, y):
    consumer = SimpleNamespace(id=cid, location=(x, y))
    space.place_consumer(consumer)
    return consumer


def test_move_into_empty_neighbor_accepted():
    space = make_space()
    c = place(space, 0, 3, 3)
    assert space.move_consumer(c, (3, 4)) is True
    assert c.location == (3, 4)
    assert space.consumer_at((3, 4)) == 0
    assert space.consumer_at((3, 3)) is None


def test_move_into_occupied_cell_rejected():
    space = make_space()
    c = place(space, 0, 3, 3)
    place(space, 1, 3, 4)
    assert space.move_consumer(c, (3, 4)) is False
    assert c.location == (3, 3)
    assert space.consumer_at((3, 4)) == 1


def test_move_to_current_location_is_accepted_noop():
    space = make_space()
    c = place(space, 0, 3, 3)
    assert space.move_consumer(c, (3, 3)) is True
    assert c.location == (3, 3)


def test_move_to_non_adjacent_cell_raises():
    space = make_space()
    c = place(space, 0, 3, 3)
    with pytest.raises(ValueError):
        space.move_consumer(c, (5, 3))


def test_two_consumers_cannot_share_a_cell():
    space = make_space()
    place(space, 0, 3, 3)
    with pytest.raises(ValueError):
        place(space, 1, 3, 3)


def test_two_products_cannot_share_a_cell():
    space = make_space(products=[(4, 4)])
    with pytest.raises(ValueError):
        space.place_product(ProductInstance(9, 1, (4, 4)))


# ---------------------------------------------------------------------------
# proximity field


def test_field_is_one_on_product_cell():
    space = make_space(products=[(10, 10)])
    assert space.field_at((10, 10)) == 1.0


def test_field_is_zero_beyond_radius():
    space = make_space(products=[(10, 10)], radius=5)
    assert space.field_at((10, 16)) == 0.0
    assert space.field_at((2, 2)) == 0.0


def test_field_linear_decay_in_manhattan_distance():
    space = make_space(products=[(10, 10)], radius=5)
    assert space.field_at((10, 12)) == pytest.approx(1.0 - 2.0 / 5.0)
    assert space.field_at((12, 12)) == pytest.approx(1.0 - 4.0 / 5.0)


def test_field_max_composition_of_two_products():
    space = make_space(products=[(5, 5), (8, 5)], radius=5)
    # midpoint cell: distance 2 to one product, 1 to the other; max wins
    loc = (7, 5)
    expected = max(1.0 - 2.0 / 5.0, 1.0 - 1.0 / 5.0)
    assert space.field_at(loc) == pytest.approx(expected)


def test_greedy_ascent_reaches_a_product_within_initial_distance():
    # brute-force path check over every positive-field start cell
    space = make_space(width=20, height=20, radius=6,
                       products=[(4, 4), (15, 9), (9, 17)])
    product_cells = {(4, 4), (15, 9), (9, 17)}
    for x in range(20):
        for y in range(20):
            start = (x, y)
            if space.field_at(start) <= 0.0:
                continue
            budget = min(manhattan(start, p) for p in product_cells)
            loc = start
            for _ in range(budget):
                if loc in product_cells:
                    break
                loc = space.ascend(loc)
            assert loc in product_cells, f"ascent stalled from {start}"


def test_ascend_tie_break_is_deterministic_nesw():
    # two products equidistant east and west; enumerate neighbor values
    space = make_space(width=21, height=21, radius=6,
                       products=[(6, 10), (14, 10)])
    loc = (10, 10)
    values = {nb: space.field_at(nb) for nb in space.von_neumann_neighbors(loc)}
    best = max(values.values())
    expected = next(nb for nb in space.von_neumann_neighbors(loc)
                    if values[nb] == best)
    assert space.ascend(loc) == expected
    # east comes before west in N,E,S,W order
    assert expected == (11, 10)


def reference_steepest(space, loc, better):
    # ascend / descend as first written: the first strictly better
    # neighbour in N, E, S, W order wins
    best, best_loc = space.field[loc[1], loc[0]], loc
    for nb in reference_neighbors(space.width, space.height, loc):
        v = space.field[nb[1], nb[0]]
        if better(v, best):
            best, best_loc = v, nb
    return best_loc


@pytest.mark.parametrize("width, height", GRID_SHAPES)
def test_ascend_descend_match_reference_with_exact_ties(width, height):
    # fields drawn from three levels, so neighbours tie exactly and often,
    # at edges and corners as much as inside
    rng = np.random.default_rng(width * 10 + height)
    space = make_space(width=width, height=height)
    for trial in range(30):
        space.field[:] = rng.integers(0, 3, size=(height, width)) / 2.0
        for x in range(width):
            for y in range(height):
                loc = (x, y)
                up = space.ascend(loc)
                down = space.descend(loc)
                assert up == reference_steepest(space, loc, lambda v, b: v > b)
                assert down == reference_steepest(space, loc, lambda v, b: v < b)
                assert type(up) is tuple and type(down) is tuple


def test_ascend_plateau_returns_location():
    space = make_space(products=[])
    assert space.ascend((5, 5)) == (5, 5)


def test_descend_single_product_moves_away():
    space = make_space(products=[(10, 10)], radius=8)
    nxt = space.descend((10, 11))
    assert space.field_at(nxt) < space.field_at((10, 11))


def test_descend_plateau_returns_location():
    space = make_space(products=[])
    assert space.descend((2, 2)) == (2, 2)


# ---------------------------------------------------------------------------
# respawn


def test_respawn_sigma_zero_stays_in_place():
    space = make_space(products=[(10, 10)])
    rng = np.random.default_rng(0)
    loc = space.respawn_product(0, rng, sigma=0.0)
    assert loc == (10, 10)
    assert space.products[0].in_use is False


def test_respawn_sigma_zero_probes_when_cell_taken():
    space = make_space(products=[(10, 10)])
    rng = np.random.default_rng(0)
    space.products[0].in_use = True
    # a second product parked on the respawn target forces the linear probe
    space.place_product(ProductInstance(1, 0, (10, 11)))
    space.rebuild_field()
    # relocate first product onto its own cell is fine (it vacates first);
    # park it where the probe must skip the occupied cell
    loc = space.respawn_product(0, rng, sigma=0.0)
    assert loc == (10, 10)


def test_respawn_always_lands_in_bounds():
    space = make_space(width=30, height=30, radius=5, products=[(1, 1)])
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        loc = space.respawn_product(0, rng, sigma=10.0)
        assert 0 <= loc[0] < 30 and 0 <= loc[1] < 30


def test_respawn_offsets_pass_ks_against_gaussian():
    rng = np.random.default_rng(7)
    sigma = 10.0
    draws = np.array([ConsumptionSpace.draw_offsets(rng, sigma)
                      for _ in range(5000)]).ravel()
    result = scipy.stats.kstest(draws, "norm", args=(0.0, sigma))
    assert result.pvalue > 0.01


def test_respawn_never_stacks_products():
    space = make_space(width=10, height=10, radius=3,
                       products=[(k % 10, k // 10) for k in range(30)])
    rng = np.random.default_rng(3)
    for pid in range(30):
        space.respawn_product(pid, rng, sigma=2.0)
        space.audit(expected_products=30)


# ---------------------------------------------------------------------------
# incremental field maintenance


def test_incremental_field_update_is_bit_exact():
    space = make_space(width=40, height=40, radius=12,
                       products=[(5, 5), (20, 20), (35, 6), (8, 30)])
    rng = np.random.default_rng(11)
    for _ in range(50):
        pid = int(rng.integers(0, 4))
        space.respawn_product(pid, rng, sigma=9.0)
        incremental = space.field.copy()
        space.rebuild_field()
        assert np.array_equal(incremental, space.field)


def definition_field(space):
    # max(0, 1 - manhattan / R) over the products, evaluated on every cell
    ys, xs = np.mgrid[0:space.height, 0:space.width]
    field = np.zeros((space.height, space.width))
    for inst in space.products.values():
        px, py = inst.location
        contrib = 1.0 - (np.abs(xs - px) + np.abs(ys - py)) / space.radius
        field = np.maximum(field, np.maximum(contrib, 0.0))
    return field


@pytest.mark.parametrize("width, height, radius, sigma, n_products", [
    (40, 40, 3, 15.0, 12),       # jumps land far beyond the repainted reach
    (12, 9, 10**9, 2.0, 20),     # the stamp is cut to what the grid holds
    (20, 20, 10**9, 4.0, 10),
], ids=["far-jumps", "huge-radius", "huge-radius-square"])
def test_field_matches_definition_after_every_respawn(width, height, radius,
                                                      sigma, n_products):
    rng = np.random.default_rng(5)
    cells = rng.choice(width * height, size=n_products, replace=False)
    space = make_space(width, height, radius,
                       products=[(int(c) % width, int(c) // width)
                                 for c in cells])
    # the stamp holds no offset the grid cannot: 39 x 39 at most on 20 x 20
    assert space._stamp.shape == (min(2 * radius + 1, 2 * height - 1),
                                  min(2 * radius + 1, 2 * width - 1))
    assert np.array_equal(space.field, definition_field(space))
    for _ in range(300):
        space.respawn_product(int(rng.integers(0, n_products)), rng, sigma)
        assert np.array_equal(space.field, definition_field(space))


def test_rebuild_with_no_products_zeroes_field():
    space = make_space(products=[(3, 3)])
    del space.products[0]
    del space._product_at[(3, 3)]
    space.rebuild_field()
    assert not space.field.any()
