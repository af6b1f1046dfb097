"""Product model checks: topology construction, layout signatures, utility,
type-set generation and landscape maxima."""

import hashlib
import math
import struct
from typing import NamedTuple

import numpy as np
import pytest

from consumerlab import products
from consumerlab.products import (GenerationError, ProductTopology,
                                  default_maxima_radius, generate_type_set,
                                  identify_maxima, landscape_distances,
                                  layout_objective, layout_signature,
                                  layout_signatures, nearest_max_distance,
                                  random_topology, utility_from_edges,
                                  valuation, write_type_csv, VERTEX_PAIRS)
from type_csv import read_type_rows

K6 = ProductTopology(VERTEX_PAIRS)
C6 = ProductTopology(tuple(sorted(tuple(sorted(((i), (i + 1) % 6))) for i in range(6))))
P6 = ProductTopology(tuple((i, i + 1) for i in range(5)))
# a path graph again, but threaded through the circle out of label order so
# the evenly spaced start is NOT already an equal-chord layout
SCRAMBLED_PATH = ProductTopology(tuple(sorted([(0, 2), (2, 4), (1, 4), (1, 3), (3, 5)])))


class Relaxed(NamedTuple):
    signature: np.ndarray
    residual: float  # std deviation of edge chord lengths at the layout
    converged: bool
    angles: tuple[float, ...]


def relaxed(topologies):
    """What the reference descent returns for each graph, with the chord
    residual the objective reads at its final angles."""
    angles, converged = products.relax_layouts(topologies)
    _, _, variance = products._batch_objective(
        angles, products._edge_block(topologies), *products.TABLE_PARAMS[3:])
    signatures = products.centroid_distances(angles)
    return [Relaxed(signatures[k], math.sqrt(max(float(variance[k]), 0.0)),
                    bool(converged[k]), tuple(angles[k]))
            for k in range(len(topologies))]


# ---------------------------------------------------------------------------
# topology construction


def test_random_topologies_satisfy_invariants():
    rng = np.random.default_rng(0)
    for _ in range(300):
        topo = random_topology(rng)
        assert 5 <= topo.edge_count <= 15
        adj = topo.adjacency()
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()
        # construction re-validates connectivity
        ProductTopology(topo.edges)


def test_random_topology_deterministic():
    a = random_topology(np.random.default_rng(99))
    b = random_topology(np.random.default_rng(99))
    assert a.edges == b.edges


def test_complete_graph_is_admissible():
    assert K6.edge_count == 15


def test_spanning_tree_is_admissible():
    assert P6.edge_count == 5


def test_disconnected_graph_rejected():
    edges = ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5))
    with pytest.raises(ValueError):
        ProductTopology(tuple(sorted(edges)))


def test_bad_edge_counts_rejected():
    with pytest.raises(ValueError):
        ProductTopology(((0, 1), (1, 2), (2, 3), (3, 4)))


# ---------------------------------------------------------------------------
# layout signatures


def test_complete_graph_signature_all_equal():
    lay = layout_signature(K6)
    assert lay.converged
    assert lay.signature.max() - lay.signature.min() < 1e-9


def test_cycle_graph_signature_all_equal():
    lay = layout_signature(C6)
    assert lay.converged
    assert lay.signature.max() - lay.signature.min() < 1e-9


def test_label_ordered_path_is_symmetric_fixed_point():
    # every edge joins circle-adjacent vertices, so the start layout already
    # has zero chord variance
    [lay] = relaxed([P6])
    assert lay.converged
    assert lay.signature.max() - lay.signature.min() < 1e-9
    assert lay.residual < 1e-12


# frozen golden vector: the scrambled path's relaxed signature, pinned by
# polishing the relaxation output with an independent minimizer
# (scipy Nelder-Mead on the same objective, xatol 1e-13); the polish moved
# the signature by < 4e-4, confirming a true local minimum
_SCRAMBLED_PATH_GOLDEN = np.array([
    0.86837382705572386, 0.95777949963012965, 1.1271776151377191,
    1.1271776067397956, 0.957779470113164, 0.86837382387747675,
])


def test_scrambled_path_matches_golden_vector():
    [lay] = relaxed([SCRAMBLED_PATH])
    assert np.allclose(lay.signature, _SCRAMBLED_PATH_GOLDEN, atol=1e-3)
    assert lay.residual < 1e-4


def test_layout_block_golden():
    # one 64-layout block, 16 of its rows stopped by the iteration cap:
    # pins every float the relaxation kernel returns, so a kernel change
    # that moves one bit fails here before any experiment golden does
    rng = np.random.default_rng(12)
    layouts = relaxed([random_topology(rng) for _ in range(64)])
    assert sum(not lay.converged for lay in layouts) == 16
    h = hashlib.sha256()
    for lay in layouts:
        h.update(lay.signature.tobytes())
        h.update(struct.pack("<d?", lay.residual, lay.converged))
        h.update(struct.pack("<6d", *lay.angles))
    assert h.hexdigest() == \
        "55895d7afca0b0d1bb8858ccff331f7dc9bb69a4a9764b0e108ee4e69058414e"


def test_layout_sits_at_an_objective_minimum():
    # independent check: random nearby perturbations never reach a lower
    # objective than the relaxation output (up to the descent slack)
    [lay] = relaxed([SCRAMBLED_PATH])
    base = layout_objective(lay.angles, SCRAMBLED_PATH.edges)
    rng = np.random.default_rng(1)
    for scale in (1e-3, 1e-2):
        for _ in range(50):
            probe = np.array(lay.angles) + rng.normal(scale=scale, size=6)
            assert layout_objective(probe, SCRAMBLED_PATH.edges) > base - 1e-7


def test_layout_deterministic_and_batch_independent():
    rng = np.random.default_rng(2)
    topos = [random_topology(rng) for _ in range(8)]
    # a graph each of 5, 6 and 7 edges too: laid out alone, it would sum
    # fewer than 8 chords, which numpy adds in another order
    for edges in (5, 6, 7):
        topo = random_topology(rng)
        while topo.edge_count != edges:
            topo = random_topology(rng)
        topos.append(topo)
    batch = relaxed(topos)
    for topo, lay in zip(topos, batch):
        [single] = relaxed([topo])
        assert np.array_equal(single.signature, lay.signature)
        assert single.residual == lay.residual
        assert single.converged == lay.converged
        assert single.angles == lay.angles


def _mask_topology(mask):
    return ProductTopology(tuple(pair for k, pair in enumerate(VERTEX_PAIRS)
                                 if mask >> k & 1))


def _product_masks():
    # edge masks of the connected graphs with 5-15 edges, by reachability
    # over all 2**15 edge subsets at once
    masks = np.arange(1 << len(VERTEX_PAIRS))
    bits = (masks[:, None] >> np.arange(len(VERTEX_PAIRS))) & 1
    reach = np.zeros((len(masks), 6, 6), dtype=np.int64)
    reach[:, range(6), range(6)] = 1
    for k, (i, j) in enumerate(VERTEX_PAIRS):
        reach[:, i, j] = reach[:, j, i] = bits[:, k]
    for _ in range(3):  # paths of up to 8 edges
        reach = np.minimum(reach @ reach, 1)
    return np.flatnonzero(reach.all(axis=(1, 2)) & (bits.sum(axis=1) >= 5))


def test_layout_table_holds_exactly_the_products():
    table = np.load(products.TABLE_PATH)
    assert table.shape == (1 << 15, 7) and table.dtype == np.float64
    populated = ~np.isnan(table).any(axis=1)
    assert np.isnan(table[~populated]).all()
    masks = _product_masks()
    assert len(masks) == 26_704
    assert np.array_equal(np.flatnonzero(populated), masks)
    assert set(np.unique(table[populated, 6])) == {0.0, 1.0}
    assert products._table_rows(masks).tobytes() == table[masks].tobytes()
    assert products.edge_mask(K6) == (1 << 15) - 1
    assert products.edge_mask(P6) == sum(1 << k for k in (0, 5, 9, 12, 14))


def test_a_file_that_is_not_the_layout_table_is_rejected(tmp_path,
                                                        monkeypatch):
    wrong_shape = tmp_path / "wrong_shape.npy"
    np.save(wrong_shape, np.zeros((1 << 15, 6)))
    # the real header, but only half the rows
    truncated = tmp_path / "truncated.npy"
    table = products.TABLE_PATH.read_bytes()
    truncated.write_bytes(table[:len(table) // 2])
    for path in (wrong_shape, truncated):
        monkeypatch.setattr(products, "TABLE_PATH", path)
        with pytest.raises(ValueError, match="is not a layout table"):
            layout_signature(K6)


def test_layout_table_equals_the_descent():
    # the first converged and the first capped graph of every edge count:
    # on a numpy that rounds differently, this fails where runs would drift
    table = np.load(products.TABLE_PATH)
    sample = {}
    for mask in _product_masks().tolist():
        sample.setdefault((mask.bit_count(), table[mask, 6]), mask)
    assert {edges for edges, _ in sample} == set(range(5, 16))
    assert {flag for _, flag in sample} == {0.0, 1.0}
    topos = [_mask_topology(mask) for mask in sample.values()]
    assert [products.edge_mask(t) for t in topos] == list(sample.values())
    rows = table[list(sample.values())]
    for row, lay, ref in zip(rows, layout_signatures(topos), relaxed(topos)):
        assert row.tobytes() == \
            struct.pack("<7d", *ref.angles, float(ref.converged))
        assert lay.signature.tobytes() == ref.signature.tobytes()
        assert lay.converged == ref.converged


def test_signature_components_nonnegative_and_finite():
    rng = np.random.default_rng(3)
    for lay in layout_signatures([random_topology(rng) for _ in range(32)]):
        assert np.all(np.isfinite(lay.signature))
        assert np.all(lay.signature >= 0.0)
        assert lay.signature.max() > 0.0


# ---------------------------------------------------------------------------
# utility


def test_utility_zero_at_expected_edges():
    assert utility_from_edges(8) == 0.0


def test_utility_signs():
    assert utility_from_edges(15) > 0.0
    assert utility_from_edges(5) < 0.0
    for e in range(5, 16):
        u = utility_from_edges(e)
        assert -1.0 < u < 1.0
        if e > 8:
            assert u > 0.0
        elif e < 8:
            assert u < 0.0


def test_utility_monotone():
    values = [utility_from_edges(e) for e in range(5, 16)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_utility_antisymmetric_about_eight():
    for d in range(1, 8):
        lo = 8 - d
        hi = 8 + d
        if lo < 5 or hi > 15:
            continue
        assert utility_from_edges(hi) == pytest.approx(
            -utility_from_edges(lo), abs=1e-12)


def test_utility_domain_errors():
    with pytest.raises(ValueError):
        utility_from_edges(4)
    with pytest.raises(ValueError):
        utility_from_edges(16)


def test_utility_slope_configurable():
    assert utility_from_edges(9, slope=2.0) > utility_from_edges(9, slope=1.0)


# ---------------------------------------------------------------------------
# valuation


def test_valuation_identity():
    v = np.array([0.3, 1.0, 0.7, 0.2, 1.4, 0.9])
    assert valuation(v, v) == 0.0


def test_valuation_unit_step():
    a = np.zeros(6)
    b = np.zeros(6)
    b[0] = 1.0
    assert valuation(a, b) == 1.0


def test_valuation_analytic():
    assert valuation(np.ones(6), np.zeros(6)) == pytest.approx(np.sqrt(6.0))


def test_valuation_symmetric():
    rng = np.random.default_rng(4)
    a, b = rng.uniform(0, 2, size=(2, 6))
    assert valuation(a, b) == valuation(b, a)


# ---------------------------------------------------------------------------
# type sets


def test_type_set_pairwise_distance_audit():
    rng = np.random.default_rng(5)
    types = generate_type_set(10, 0.25, rng)
    assert [t.type_id for t in types] == list(range(10))
    for i in range(10):
        for j in range(i + 1, 10):
            assert valuation(types[i].signature, types[j].signature) >= 0.25


def test_type_set_single_type():
    rng = np.random.default_rng(6)
    types = generate_type_set(1, 0.25, rng)
    assert len(types) == 1


def test_type_set_zero_distance_unconstrained():
    rng = np.random.default_rng(7)
    types = generate_type_set(5, 0.0, rng)
    assert len(types) == 5


def test_type_set_infeasible_distance_reports_achieved():
    rng = np.random.default_rng(8)
    with pytest.raises(GenerationError) as excinfo:
        generate_type_set(10, 999.0, rng, max_attempts=64)
    assert excinfo.value.achieved == 1


def test_type_set_deterministic():
    a = generate_type_set(5, 0.25, np.random.default_rng(9))
    b = generate_type_set(5, 0.25, np.random.default_rng(9))
    for ta, tb in zip(a, b):
        assert ta.topology.edges == tb.topology.edges
        assert np.array_equal(ta.signature, tb.signature)
        assert ta.utility == tb.utility


def test_stored_values_recompute_bit_identically():
    rng = np.random.default_rng(10)
    for t in generate_type_set(5, 0.25, rng):
        lay = layout_signature(t.topology)
        assert np.array_equal(lay.signature, t.signature)
        assert utility_from_edges(t.topology.edge_count) == t.utility


# ---------------------------------------------------------------------------
# maxima and distances


def _brute_force_maxima(types, radius):
    out = []
    for t in types:
        beaten = any(other.utility > t.utility
                     and valuation(t.signature, other.signature) <= radius
                     for other in types if other.type_id != t.type_id)
        if not beaten:
            out.append(t.type_id)
    return out


def test_single_type_is_maximum():
    rng = np.random.default_rng(11)
    types = generate_type_set(1, 0.0, rng)
    assert identify_maxima(types, 1.0) == [0]


def test_isolated_types_are_all_maxima():
    rng = np.random.default_rng(12)
    types = generate_type_set(2, 0.5, rng)
    gap = valuation(types[0].signature, types[1].signature)
    assert identify_maxima(types, gap * 0.9) == [0, 1]


def test_identify_maxima_matches_brute_force():
    rng = np.random.default_rng(13)
    types = generate_type_set(10, 0.25, rng)
    for radius in (0.2, 0.5, 1.0, 2.0):
        assert identify_maxima(types, radius) == _brute_force_maxima(types, radius)


def test_maxima_never_empty():
    rng = np.random.default_rng(14)
    for seed in range(5):
        types = generate_type_set(10, 0.25, np.random.default_rng(seed))
        assert identify_maxima(types, default_maxima_radius(types))


def test_nearest_max_distance_cases():
    rng = np.random.default_rng(15)
    types = generate_type_set(10, 0.25, rng)
    max_ids, dists = landscape_distances(types)
    by_id = {t.type_id: t for t in types}
    maxima = [by_id[i] for i in max_ids]
    for t, d in zip(types, dists):
        if t.type_id in max_ids:
            assert d == 0.0
        else:
            # brute-force min over the maxima
            assert d == min(valuation(t.signature, m.signature) for m in maxima)
    single = [maxima[0]]
    for t in types:
        if t.type_id != single[0].type_id:
            assert nearest_max_distance(t, single) == pytest.approx(
                valuation(t.signature, single[0].signature))


def test_nearest_max_distance_empty_maxima_raises():
    rng = np.random.default_rng(16)
    types = generate_type_set(1, 0.0, rng)
    with pytest.raises(ValueError):
        nearest_max_distance(types[0], [])


# ---------------------------------------------------------------------------
# type CSV round trip


def test_type_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(17)
    types = generate_type_set(6, 0.25, rng)
    path = tmp_path / "types.csv"
    write_type_csv(types, str(path))
    rows = read_type_rows(str(path))
    assert len(rows) == 6
    for t, row in zip(types, rows):
        assert row["type_id"] == t.type_id
        assert row["edge_count"] == t.topology.edge_count
        assert row["utility"] == t.utility
        assert np.array_equal(row["signature"], t.signature)
