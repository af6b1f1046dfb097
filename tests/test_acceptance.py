"""Acceptance suite.

A-criteria are unconditional property checks; B-criteria are directional
reproductions of the headline social/non-social differences under the
default configuration. One test per criterion; each prints a PASS line
with its measured values (visible with `pytest -s`).

The B tests share one 30-pair default experiment (session fixture), which
dominates the suite's runtime.
"""

import filecmp
import math
import os
import time

import numpy as np
import pytest

from consumerlab import stats
from consumerlab.cli import main
from consumerlab.harness import (RunConfig, batch, run_pair, spawn_streams,
                                 usable_cpus, value_coverage,
                                 value_path_length)
from consumerlab.products import (VERTEX_PAIRS, ProductTopology,
                                  generate_type_set, landscape_distances,
                                  layout_signature, random_topology,
                                  utility_from_edges)

DEFAULTS = RunConfig()

N_PAIRS = 30
SEED_BASE = 1


@pytest.fixture(scope="session")
def experiment30():
    """The reference experiment: 30 pairs at default settings."""
    workers = min(8, usable_cpus())
    return batch(N_PAIRS, SEED_BASE, DEFAULTS, workers=workers)


def _metric_pairs(pairs, name):
    social = [getattr(p.social.metrics, name) for p in pairs]
    nonsocial = [getattr(p.nonsocial.metrics, name) for p in pairs]
    return np.array(social, dtype=float), np.array(nonsocial, dtype=float)


# ---------------------------------------------------------------------------
# A1: determinism of a full experiment


def test_a1_determinism(tmp_path):
    config = tmp_path / "a1.cfg"
    config.write_text("cycles = 10000\n")
    dirs = [tmp_path / "first", tmp_path / "second"]
    elapsed = []
    for out_dir in dirs:
        start = time.monotonic()
        assert main(["experiment", "--pairs", "2", "--seed-base", "901",
                     "--config", str(config), "--out-dir", str(out_dir)]) == 0
        elapsed.append(time.monotonic() - start)
    names = sorted(os.listdir(dirs[0]))
    assert sorted(os.listdir(dirs[1])) == names
    for name in names:
        assert filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False), name
    # pair identity at cycle 0 is asserted inside run_pair (checksums); a
    # checksum mismatch would have aborted the command
    assert min(elapsed) < 300.0, f"experiment too slow: {min(elapsed):.0f}s"
    print(f"\nA1 PASS: byte-identical reruns over {len(names)} files; "
          f"2-pair experiment in {min(elapsed):.0f}s (< 300s)")


# ---------------------------------------------------------------------------
# A2: oracle equivalence


def test_a2_oracle_equivalence():
    rng = np.random.default_rng(123)

    # fdc vs an independent two-pass Pearson computation
    u = rng.normal(size=10)
    d = rng.normal(size=10)
    cov = np.mean(u * d) - np.mean(u) * np.mean(d)
    r_oracle = cov / (np.sqrt(np.mean(u * u) - np.mean(u) ** 2)
                      * np.sqrt(np.mean(d * d) - np.mean(d) ** 2))
    assert abs(stats.fdc(u, d) - r_oracle) < 1e-12

    # linear regression vs the normal equations
    xs = rng.uniform(0, 50, size=100)
    ys = 1.3 * xs + rng.normal(size=100)
    slope, intercept = stats.linreg_slope(xs, ys)
    coef, *_ = np.linalg.lstsq(np.column_stack([xs, np.ones_like(xs)]), ys,
                               rcond=None)
    assert abs(slope - coef[0]) < 1e-10
    assert abs(intercept - coef[1]) < 1e-10

    # paired t vs the frozen 13-pair reference
    from test_stats import _PAIRS_13, _REF_P_13, _REF_T_13
    report = stats.paired_t([a for a, _ in _PAIRS_13],
                            [b for _, b in _PAIRS_13])
    assert abs(report.statistic - _REF_T_13) < 1e-4
    assert abs(report.p_value - _REF_P_13) < 1e-4

    # signed rank: n=5 single-sign enumeration and the full-distribution
    # audit for n <= 12
    assert stats.signed_rank([1.0, 2, 3, 4, 5], [0.0] * 5).p_value == 2 / 32
    for n in range(1, 13):
        counts = stats._signed_rank_counts([2 * r for r in range(1, n + 1)])
        assert int(counts.sum()) == 2 ** n

    # coverage and path length vs brute-force oracles
    traj = rng.uniform(0, 2, size=(100, 6))
    oracle_cells = len({tuple(int(math.floor(v / 0.05)) for v in row)
                        for row in traj})
    assert value_coverage(traj[None], 0.05).tolist() == [oracle_cells]
    oracle_path = sum(float(np.linalg.norm(traj[i + 1] - traj[i]))
                      for i in range(len(traj) - 1))
    assert abs(value_path_length(traj[None])[0] - oracle_path) < 1e-10
    print("\nA2 PASS: fdc/linreg/paired-t/signed-rank/coverage/path-length "
          "all match their oracles")


# ---------------------------------------------------------------------------
# A3: structural invariants over a full run


def test_a3_structural_invariants():
    pair = run_pair(4242, DEFAULTS, audit_every=1)
    for result in (pair.social, pair.nonsocial):
        assert len(result.samples) == 500
        for sample in result.samples:
            assert len(sample.units) == 40
            assert sample.ideals.shape == (40, 6)
            assert np.all(np.isfinite(sample.ideals))
            assert np.all(sample.ideals >= 0.0)
    assert pair.nonsocial.network_checksum_start == \
        pair.nonsocial.network_checksum_end
    print("\nA3 PASS: per-cycle occupancy audits clean over 2x10,000 cycles; "
          "counts constant (40 consumers, 50 products); ideals finite and "
          "non-negative; non-social network checksum constant")


# ---------------------------------------------------------------------------
# A4: product model invariants


def test_a4_product_model():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        topo = random_topology(rng)
        assert 5 <= topo.edge_count <= 15
        adj = topo.adjacency()
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()
        ProductTopology(topo.edges)  # re-validates connectivity

    k6 = layout_signature(ProductTopology(VERTEX_PAIRS))
    c6 = layout_signature(ProductTopology(tuple(sorted(
        tuple(sorted((i, (i + 1) % 6))) for i in range(6)))))
    assert k6.signature.max() - k6.signature.min() < 1e-9
    assert c6.signature.max() - c6.signature.min() < 1e-9

    for e in range(5, 16):
        u = utility_from_edges(e)
        assert (u > 0) == (e > 8)
        assert (u < 0) == (e < 8)
    print("\nA4 PASS: 1,000 seeded topologies valid; K6/C6 signatures "
          "uniform; utility sign tracks edge count vs 8")


# ---------------------------------------------------------------------------
# A5: landscape difficulty is negative-FDC


def test_a5_fdc_negativity():
    start = time.monotonic()
    values = []
    for seed in range(30):
        rng = spawn_streams(seed)["types"]
        types = generate_type_set(DEFAULTS.n_types, DEFAULTS.min_type_distance,
                                  rng, max_attempts=DEFAULTS.max_type_attempts)
        _, dists = landscape_distances(types)
        values.append(stats.fdc([t.utility for t in types], dists))
    elapsed = time.monotonic() - start
    negative = sum(v < 0 for v in values)
    mean = float(np.mean(values))
    assert negative >= 28, f"FDC negative in only {negative}/30 sets"
    assert -0.45 <= mean <= -0.05, f"FDC mean {mean:.3f} outside [-0.45, -0.05]"
    assert elapsed < 60.0, f"A5 too slow: {elapsed:.0f}s"
    print(f"\nA5 PASS: FDC negative in {negative}/30 sets, "
          f"mean {mean:.3f} in [-0.45, -0.05], {elapsed:.0f}s (< 60s)")


# ---------------------------------------------------------------------------
# B: directional reproductions over the 30-pair experiment


def test_b1_aggregate_consumption_higher_for_social(experiment30):
    social, nonsocial = _metric_pairs(experiment30, "mean_units")
    report = stats.signed_rank(social, nonsocial)
    assert social.mean() > nonsocial.mean(), \
        f"social {social.mean():.3f} <= nonsocial {nonsocial.mean():.3f}"
    assert report.p_value < 0.05, f"signed-rank p = {report.p_value:.4g}"
    print(f"\nB1 PASS: aggregate units/period social {social.mean():.3f} > "
          f"nonsocial {nonsocial.mean():.3f}; signed-rank p = "
          f"{report.p_value:.3g} (< 0.05)")


def test_b2_utility_per_unit_lower_for_social(experiment30):
    social, nonsocial = _metric_pairs(experiment30, "utility_per_unit")
    lower = int(np.sum(social < nonsocial))
    assert lower >= 20, f"social lower in only {lower}/30 pairs"
    print(f"\nB2 PASS: utility per unit lower for social agents in "
          f"{lower}/30 pairs (>= 20)")


def test_b3_value_space_movement(experiment30):
    s_path, ns_path = _metric_pairs(experiment30, "mean_path_length")
    path_report = stats.signed_rank(s_path, ns_path)
    assert s_path.mean() > ns_path.mean()
    assert path_report.p_value < 0.05, \
        f"path-length signed-rank p = {path_report.p_value:.4g}"
    s_cov, ns_cov = _metric_pairs(experiment30, "mean_coverage")
    assert s_cov.mean() > ns_cov.mean(), \
        f"coverage social {s_cov.mean():.2f} <= nonsocial {ns_cov.mean():.2f}"
    print(f"\nB3 PASS: value-space path length social {s_path.mean():.2f} > "
          f"nonsocial {ns_path.mean():.2f} (p = {path_report.p_value:.3g}); "
          f"coverage social {s_cov.mean():.2f} > nonsocial {ns_cov.mean():.2f}")


def test_b4_post_transient_stationarity(experiment30):
    flat = sum(1 for p in experiment30
               if p.social.metrics.trend_slope_p > 0.05)
    assert flat >= 25, f"slope indistinguishable from 0 in only {flat}/30"
    print(f"\nB4 PASS: post-transient consumption slope statistically flat "
          f"in {flat}/30 social runs (>= 25)")


def test_b5_aggregate_utility_higher_for_social(experiment30):
    social, nonsocial = _metric_pairs(experiment30, "mean_utility")
    report = stats.signed_rank(social, nonsocial)
    assert social.mean() > nonsocial.mean(), \
        f"social {social.mean():.3f} <= nonsocial {nonsocial.mean():.3f}"
    assert report.p_value < 0.05, f"signed-rank p = {report.p_value:.4g}"
    print(f"\nB5 PASS: aggregate utility/period social {social.mean():.3f} > "
          f"nonsocial {nonsocial.mean():.3f}; signed-rank p = "
          f"{report.p_value:.3g} (< 0.05)")
