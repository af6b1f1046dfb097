"""Experiment engine checks: world initialization, priming, the cycle loop,
pair identity, batching, metrics and CSV round trips.

Full-scale runs are exercised by the acceptance suite; here the worlds are
kept small so the whole module stays fast.
"""

import hashlib
import math
import pickle
import re
from dataclasses import fields

import numpy as np
import pytest

from consumerlab import harness, products, stats
from consumerlab.harness import (ConfigError, RunConfig, RunMetrics,
                                 RunResult, World,
                                 batch, init_world, prime_consumers,
                                 read_run_lines, read_run_samples, run,
                                 run_metrics, run_pair, run_samples,
                                 value_coverage, value_path_length,
                                 write_run_csv, write_summary_csv,
                                 SUMMARY_HEADER)
from consumerlab.products import signature_matrix
from consumerlab.serialize import fmt_float, left_sum

# small but structurally faithful configuration: same densities as the
# reference setup at roughly 1/16 the area
SMALL = RunConfig(seed=3, cycles=200, sample_every=20, width=41, height=41,
                  n_consumers=3, n_types=4, replicas_per_type=1, ws_degree=2)


def small(seed=3, **kw):
    return SMALL.with_overrides(seed=seed, **kw)


# ---------------------------------------------------------------------------
# configuration


def test_validate_catches_bad_configs():
    assert RunConfig().validate() == []
    assert RunConfig(cycles=0).validate()
    assert RunConfig(cycles=101, sample_every=20).validate()
    assert RunConfig(ws_degree=3).validate()
    assert RunConfig(social_rate=1.5).validate()
    assert RunConfig(n_consumers=0).validate()
    assert RunConfig(coverage_cell_width=0.0).validate()
    assert RunConfig(cycles=20, sample_every=20).validate()
    assert RunConfig(conception_nodes=0).validate()
    assert RunConfig(som_alpha=1.5).validate()
    assert RunConfig(som_alpha_decay=-0.1).validate()
    assert RunConfig(som_alpha_floor=2.0).validate()
    assert RunConfig(som_radius_decay=1.01).validate()
    assert RunConfig(som_radius_floor=0.0).validate()
    assert RunConfig(tie_decay=-0.001).validate()
    assert RunConfig(tie_boost=1.5).validate()
    assert RunConfig(tie_removal_floor=-0.05).validate()
    assert RunConfig(initial_tie_strength=1.5).validate()
    assert RunConfig(referral_strength=-0.5).validate()
    assert RunConfig(relax_step=0.0).validate()
    assert RunConfig(relax_max_iter=0).validate()
    assert RunConfig(max_type_attempts=0).validate()
    assert RunConfig(seed=-1).validate()
    assert RunConfig(utility_slope=-101.0).validate()
    assert RunConfig(som_weight_low=1.0, som_weight_high=0.5).validate()
    assert RunConfig(som_weight_low=-1e308, som_weight_high=1e308).validate()
    assert RunConfig(perturb_magnitude=-0.1).validate()
    assert RunConfig(perturb_magnitude=1e308).validate()
    reals = [f.name for f in fields(RunConfig) if f.type == "float"]
    assert "respawn_sigma" in reals
    for name in reals:
        for bad in (math.nan, math.inf, -math.inf):
            assert f"{name} must be finite" in RunConfig(**{name: bad}).validate()


def test_density_warning_outside_reference_band():
    assert RunConfig().density_warnings() == []
    sparse = RunConfig(width=500, height=500)
    assert sparse.density_warnings()


def test_world_rejects_invalid_config():
    with pytest.raises(ConfigError):
        World(RunConfig(cycles=7, sample_every=2))


# ---------------------------------------------------------------------------
# initialization


def test_all_consumers_share_initial_ideal():
    world = init_world(small())
    expected = signature_matrix(world.types).mean(axis=0)
    for consumer in world.consumers:
        assert np.array_equal(consumer.ideal, expected)


def test_instance_count_is_types_times_replicas():
    cfg = small(n_types=4, replicas_per_type=3)
    world = init_world(cfg)
    assert len(world.space.products) == 12
    per_type = {}
    for inst in world.space.products.values():
        per_type[inst.type_id] = per_type.get(inst.type_id, 0) + 1
    assert per_type == {0: 3, 1: 3, 2: 3, 3: 3}


def test_init_world_deterministic():
    a = init_world(small(seed=11))
    b = init_world(small(seed=11))
    assert a.state_checksum() == b.state_checksum()


def test_different_seeds_differ():
    a = init_world(small(seed=11))
    b = init_world(small(seed=12))
    assert a.state_checksum() != b.state_checksum()


def test_primed_experience_maps_golden():
    # pins the som stream: the unused 64 x 6 draw ahead of each consumer's
    # experience map must stay for these weights to hold
    world = init_world(small())
    h = hashlib.sha256()
    for consumer in world.consumers:
        h.update(np.ascontiguousarray(consumer.attract.som.weights).tobytes())
    assert h.hexdigest() == \
        "500c706468d4524b1ab1d9ec7f6d4436b8483b896b3ae4daa2bf8582b97cc6bb"


def test_audit_catches_location_desync():
    world = init_world(small())
    world.audit()
    consumer = world.consumers[0]
    x, y = consumer.location
    # the record moves, the occupancy index does not
    consumer.location = (x, y + 1 if y == 0 else y - 1)
    with pytest.raises(AssertionError, match="location desync"):
        world.audit()


def test_priming_trains_each_map_once_per_type():
    world = World(small())
    assert all(c.attract.som.steps == 0 for c in world.consumers)
    prime_consumers(world)
    for consumer in world.consumers:
        assert consumer.attract.som.steps == world.config.n_types


# ---------------------------------------------------------------------------
# runs


def test_run_sample_count_and_conservation():
    result = run(small(cycles=200, sample_every=20))
    assert len(result.samples) == 10
    total_from_deltas = sum(sum(s.units) for s in result.samples)
    assert total_from_deltas == result.consumption_events
    for sample in result.samples:
        assert sample.ideals.shape == (3, 6)


def test_run_deterministic():
    a = run(small(cycles=100))
    b = run(small(cycles=100))
    assert a.init_checksum == b.init_checksum
    assert a.consumption_events == b.consumption_events
    for sa, sb in zip(a.samples, b.samples):
        assert np.array_equal(sa.units, sb.units)
        assert np.array_equal(sa.utility, sb.utility)
        assert np.array_equal(sa.ideals, sb.ideals)


def test_run_audits_pass_every_cycle():
    run(small(cycles=100), audit_every=1)


def test_pair_shares_initial_state_and_diverges_after():
    pair = run_pair(5, small(cycles=100))
    assert pair.social.init_checksum == pair.nonsocial.init_checksum
    assert pair.social.config.social is True
    assert pair.nonsocial.config.social is False


def test_nonsocial_network_never_mutates():
    result = run(small(cycles=200, social=False))
    assert result.network_checksum_start == result.network_checksum_end


def test_social_network_does_mutate():
    result = run(small(cycles=200, social=True))
    assert result.network_checksum_start != result.network_checksum_end


def test_tie_order_golden():
    # a crowded social world where several contacts form new ties in one
    # cycle: pins the order of TieGraph.strengthen calls end to end, which
    # only reaches the run CSVs through mean_strength's summation order
    world = init_world(RunConfig(seed=11, width=12, height=10, n_consumers=40,
                                 n_types=8, replicas_per_type=2, ws_degree=2,
                                 tie_decay=0.05, social=True))
    for _ in range(300):
        world.step()
    order = [list(world.network.neighbors(a)) for a in range(40)]
    assert hashlib.sha256(repr(order).encode()).hexdigest() == \
        "db2b54953309a3d387a682f1267b98967712525c7c632ee7682f530a2115d07e"
    assert world.state_checksum() == \
        "d803c5340f49d84f7d617a2ad9e64a2c7005be1742d3df07c487aa123d7e1cef"
    # the cycle stream's position: one draw more or fewer fails here
    assert world.rng.bit_generator.state == {
        "bit_generator": "PCG64",
        "state": {"state": 212501781465674477669925398512461608470,
                  "inc": 128445348842607012625565759934751820585},
        "has_uint32": 1, "uinteger": 2579253128}


def _same_run(a, b):
    for field in fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name == "samples":
            # every field of every period, bit for bit
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        else:
            assert x == y, field.name


def test_pair_arms_equal_independent_runs():
    cfg = small(cycles=100)
    pair = run_pair(5, cfg)
    _same_run(pair.social, run(cfg.with_overrides(seed=5, social=True)))
    _same_run(pair.nonsocial, run(cfg.with_overrides(seed=5, social=False)))


def test_second_arm_of_a_pair_runs_no_descent(monkeypatch):
    # every layout_signatures call evaluates the objective once for its
    # residuals; any more evaluations are descent iterations
    counts = {}
    arm = [None]
    objective, layouts, plain_run = (products._batch_objective,
                                     products.layout_signatures, harness.run)

    def count(name, fn):
        def wrapper(*args, **kwargs):
            key = (arm[0], name)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def tagged_run(config, **kwargs):
        arm[0] = config.social
        return plain_run(config, **kwargs)

    monkeypatch.setattr(products, "_batch_objective",
                        count("objective", objective))
    monkeypatch.setattr(products, "layout_signatures",
                        count("layouts", layouts))
    monkeypatch.setattr(harness, "run", tagged_run)
    run_pair(5, small(cycles=40))
    assert counts[(True, "objective")] > counts[(True, "layouts")] >= 1
    assert counts[(False, "objective")] == counts[(False, "layouts")] \
        == counts[(True, "layouts")]


def test_run_pair_closes_the_layout_scope_even_when_it_raises(monkeypatch):
    assert products._memo is None
    seen = []

    def failing_run(config, **kwargs):
        seen.append(products._memo is not None)
        raise RuntimeError("arm failed")

    monkeypatch.setattr(harness, "run", failing_run)
    with pytest.raises(RuntimeError, match="arm failed"):
        run_pair(5, small(cycles=40))
    assert seen == [True]
    assert products._memo is None


def test_batch_matches_run_pair():
    single = batch(1, 7, SMALL.with_overrides(cycles=100))
    direct = run_pair(7, SMALL.with_overrides(cycles=100))
    assert single[0].seed == direct.seed
    assert single[0].social.init_checksum == direct.social.init_checksum
    assert np.array_equal(single[0].social.samples[-1].units,
                          direct.social.samples[-1].units)


def test_parallel_batch_equals_sequential():
    cfg = SMALL.with_overrides(cycles=60, sample_every=20)
    seq = batch(2, 31, cfg, workers=1)
    par = batch(2, 31, cfg, workers=2)
    for a, b in zip(seq, par):
        assert a.seed == b.seed
        for ra, rb in zip((a.social, a.nonsocial), (b.social, b.nonsocial)):
            assert ra.init_checksum == rb.init_checksum
            for sa, sb in zip(ra.samples, rb.samples):
                assert np.array_equal(sa.units, sb.units)
                assert np.array_equal(sa.utility, sb.utility)
                assert np.array_equal(sa.ideals, sb.ideals)


def test_config_error_pickles_with_its_problems():
    err = pickle.loads(pickle.dumps(ConfigError(["seed must be >= 0",
                                                 "cycles must be >= 1"])))
    assert isinstance(err, ConfigError)
    assert err.problems == ["seed must be >= 0", "cycles must be >= 1"]
    assert str(err) == \
        "invalid configuration: seed must be >= 0; cycles must be >= 1"


def test_worker_config_error_keeps_its_problems():
    with pytest.raises(ConfigError) as info:
        batch(2, -1, SMALL.with_overrides(cycles=40), workers=2)
    assert info.value.problems == ["seed must be >= 0"]
    assert str(info.value) == "invalid configuration: seed must be >= 0"


def test_batch_forks_no_more_workers_than_pairs(recording_pool):
    cfg = SMALL.with_overrides(cycles=40, sample_every=20)
    pairs = batch(2, 31, cfg, workers=500)
    assert [pool.max_workers for pool in recording_pool] == [2]
    assert [p.seed for p in pairs] == [31, 32]
    assert [p.seed for p in batch(1, 31, cfg, workers=500)] == [31]
    assert len(recording_pool) == 1


@pytest.mark.parametrize("workers", [0, -3])
def test_batch_rejects_workers_below_one(recording_pool, workers):
    # such a count used to run the pairs in-process without a word
    with pytest.raises(ValueError, match=r"^workers must be >= 1$"):
        batch(2, 31, SMALL.with_overrides(cycles=40), workers=workers)
    assert recording_pool == []


def _fail_on_two(item):
    if item == 2:
        raise ValueError(f"item {item} failed")
    return item * 10


def test_pool_map_keeps_order_and_cancels_after_a_failure(recording_pool):
    assert harness.pool_map(_fail_on_two, [0, 1, 3], 2) == [0, 10, 30]
    assert recording_pool[0].cancelled is False
    with pytest.raises(ValueError, match="item 2 failed"):
        harness.pool_map(_fail_on_two, [0, 1, 2, 3], 2)
    assert recording_pool[1].cancelled is True
    # one worker runs in-process, without a pool
    assert harness.pool_map(_fail_on_two, [5], 8) == [50]
    assert len(recording_pool) == 2


# ---------------------------------------------------------------------------
# value-space measures


def test_value_coverage_static_trajectory():
    traj = np.tile([0.3, 0.3, 0.3, 0.3, 0.3, 0.3], (1, 10, 1))
    assert value_coverage(traj, 0.05).tolist() == [1]


def test_value_coverage_same_cell_dedupes():
    traj = np.array([[[0.301, 0.0, 0.0, 0.0, 0.0, 0.0],
                      [0.302, 0.0, 0.0, 0.0, 0.0, 0.0]]])
    assert value_coverage(traj, 0.05).tolist() == [1]


def test_value_coverage_matches_quantize_oracle():
    rng = np.random.default_rng(23)
    traj = rng.uniform(0, 2, size=(100, 6))
    width = 0.05
    oracle = len({tuple(int(np.floor(v / width)) for v in row) for row in traj})
    assert value_coverage(traj[None], width).tolist() == [oracle]


def test_value_coverage_validates_inputs():
    with pytest.raises(ValueError):
        value_coverage(np.empty((1, 0, 6)), 0.05)
    with pytest.raises(ValueError):
        value_coverage(np.ones((1, 3, 6)), 0.0)
    # a single trajectory is not a batch
    with pytest.raises(ValueError):
        value_coverage(np.ones((3, 6)), 0.05)
    with pytest.raises(ValueError):
        value_path_length(np.ones((3, 6)))


def test_value_path_length_single_sample():
    assert value_path_length(np.ones((1, 1, 6))).tolist() == [0.0]


def test_value_path_length_two_samples():
    traj = np.array([[[0.0] * 6, [1.0] * 6]])
    assert value_path_length(traj)[0] == pytest.approx(np.sqrt(6.0))


def test_value_path_length_matches_pairwise_oracle():
    rng = np.random.default_rng(24)
    traj = rng.uniform(0, 2, size=(50, 6))
    oracle = sum(float(np.linalg.norm(traj[i + 1] - traj[i]))
                 for i in range(49))
    assert value_path_length(traj[None])[0] == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("shape", [(1, 1, 6), (3, 2, 6), (7, 60, 6), (2, 9000, 6)])
def test_batched_measures_equal_per_trajectory(shape):
    # a batch gives each trajectory exactly what it gives alone, including
    # sums over more segments than one numpy reduction block
    rng = np.random.default_rng(25)
    batch = np.maximum(rng.uniform(0.3, 1.2, (shape[0], 1, 6))
                       + np.cumsum(rng.normal(0.0, 0.02, shape), axis=1), 0.0)
    coverage = value_coverage(batch, 0.05)
    paths = value_path_length(batch)
    assert coverage.shape == paths.shape == (shape[0],)
    for traj, cov, path in zip(batch, coverage, paths):
        alone_cov, = value_coverage(traj[None], 0.05)
        alone_path, = value_path_length(traj[None])
        assert cov == alone_cov == np.unique(
            np.floor(traj / 0.05).astype(np.int64), axis=0).shape[0]
        assert path == alone_path


def test_path_length_independent_of_memory_layout():
    # a run's trajectories at full length; Fortran order and the transposed
    # view of a (T, n, 6) sample array must sum exactly as the C-ordered copy
    rng = np.random.default_rng(26)
    batch = np.maximum(rng.uniform(0.3, 1.2, (40, 1, 6))
                       + np.cumsum(rng.normal(0.0, 0.02, (40, 500, 6)), axis=1),
                       0.0)
    expected = value_path_length(np.ascontiguousarray(batch))
    by_period = np.ascontiguousarray(batch.transpose(1, 0, 2))
    for view in (np.asfortranarray(batch), by_period.transpose(1, 0, 2)):
        assert not view.flags.c_contiguous
        assert value_path_length(view).tobytes() == expected.tobytes()
        assert np.array_equal(value_coverage(view, 0.05),
                              value_coverage(batch, 0.05))


# ---------------------------------------------------------------------------
# metrics


def _constant_samples(cycles, n=2, units=3, utility=0.5):
    t = cycles // 20
    return run_samples(np.arange(20, cycles + 1, 20), np.full((t, n), units),
                       np.full((t, n), utility), np.ones((t, n, 6)))


def test_metrics_constant_series_slope_zero():
    cfg = small(cycles=4000)
    samples = _constant_samples(4000)
    metrics = run_metrics(samples, cfg)
    assert metrics.trend_slope == pytest.approx(0.0, abs=1e-15)
    assert metrics.trend_slope_p == 1.0
    assert metrics.mean_units == 6.0
    assert metrics.mean_utility == pytest.approx(1.0)
    assert metrics.utility_per_unit == pytest.approx(1.0 / 6.0)
    assert metrics.mean_coverage == 1.0
    assert metrics.mean_path_length == 0.0


def test_metrics_zero_units_undefined_marker():
    cfg = small(cycles=200)
    samples = _constant_samples(200, units=0, utility=0.0)
    metrics = run_metrics(samples, cfg)
    assert metrics.utility_per_unit is None


@pytest.mark.parametrize("case", ["random", "all -0.0", "units beyond int64 sums"])
def test_metrics_totals_match_python_sums(case):
    # the period and run totals are the Python ones: integers that never
    # wrap, and floats added left to right from 0.0 as sum() did before 3.12
    rng = np.random.default_rng(27)
    units = rng.integers(0, 4, (50, 40))
    utility = rng.normal(0.0, 1.0, (50, 40)) * 10.0 ** rng.integers(-8, 8, (50, 40))
    if case == "all -0.0":
        utility = np.full((50, 40), -0.0)
    elif case == "units beyond int64 sums":
        units[:, :2] = 2 ** 62
    samples = run_samples(np.arange(20, 1001, 20), units, utility,
                          np.ones((50, 40, 6)))
    period_units = [sum(row) for row in units.tolist()]
    period_utility = [left_sum(row) for row in utility.tolist()]
    metrics = run_metrics(samples, small(cycles=1000))
    assert metrics.mean_units == float(np.mean(np.array(period_units, float)))
    assert str(metrics.mean_utility) == str(float(np.mean(period_utility)))
    assert str(metrics.utility_per_unit) == \
        str(left_sum(period_utility) / sum(period_units))


def test_metrics_trend_excludes_transient():
    cfg = small(cycles=4000, transient_cycles=1500)
    cycles = np.arange(20, 4001, 20)
    units = np.where(cycles <= 1500, 50, 3)   # huge transient, flat steady state
    samples = run_samples(cycles, units[:, None], np.full((200, 1), 0.1),
                          np.ones((200, 1, 6)))
    metrics = run_metrics(samples, cfg)
    assert metrics.trend_slope == pytest.approx(0.0, abs=1e-12)


def test_metrics_match_spreadsheet_recomputation(tmp_path):
    # end-to-end oracle: recompute every metric from the exported CSV by
    # independent means
    result = run(small(cycles=200))
    path = tmp_path / "run.csv"
    write_run_csv(result, str(path))
    rows = [line.strip().split(",")
            for line in open(path, encoding="utf-8").readlines()[1:]]
    by_cycle = {}
    for row in rows:
        by_cycle.setdefault(int(row[0]), []).append(row)
    totals_units = [sum(int(r[2]) for r in group)
                    for _, group in sorted(by_cycle.items())]
    totals_utility = [sum(float(r[3]) for r in group)
                      for _, group in sorted(by_cycle.items())]
    assert np.mean(totals_units) == pytest.approx(result.metrics.mean_units)
    assert np.mean(totals_utility) == pytest.approx(result.metrics.mean_utility)
    total_u = sum(totals_units)
    if total_u:
        assert sum(totals_utility) / total_u == pytest.approx(
            result.metrics.utility_per_unit)
    # per-consumer coverage / path recomputed from the ideal columns
    per_consumer = {}
    for row in rows:
        per_consumer.setdefault(int(row[1]), []).append(
            [float(v) for v in row[4:10]])
    coverage = []
    paths = []
    for cid, traj in sorted(per_consumer.items()):
        arr = np.array(traj)
        coverage.append(len({tuple(int(np.floor(v / 0.05)) for v in p)
                             for p in arr}))
        paths.append(sum(float(np.linalg.norm(arr[i + 1] - arr[i]))
                         for i in range(len(arr) - 1)))
    assert np.mean(coverage) == pytest.approx(result.metrics.mean_coverage)
    assert np.mean(paths) == pytest.approx(result.metrics.mean_path_length)


# ---------------------------------------------------------------------------
# CSV round trips


def test_run_csv_round_trip_bit_exact(tmp_path):
    result = run(small(cycles=100))
    path = tmp_path / "run.csv"
    write_run_csv(result, str(path))
    samples = read_run_samples(str(path))
    assert len(samples) == len(result.samples)
    for original, parsed in zip(result.samples, samples):
        assert parsed.cycle == original.cycle
        assert np.array_equal(parsed.units, original.units)
        assert parsed.utility.tobytes() == original.utility.tobytes()
        assert parsed.ideals.tobytes() == original.ideals.tobytes()
    recomputed = run_metrics(samples, result.config)
    assert recomputed == result.metrics


@pytest.fixture(scope="module")
def run_csv_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("run") / "run.csv"
    write_run_csv(run(small(cycles=100)), str(path))
    return path.read_text()


def _reader_outcome(reader, path):
    try:
        samples = reader(path)
    except ValueError as err:
        return str(err)
    return [(int(s.cycle), s.units.tolist(), s.utility.tolist(),
             s.ideals.tolist()) for s in samples]


def _edit_run_csv(lines, edit):
    """Apply one edge-case edit to the body lines of a run CSV."""
    lines = list(lines)
    cells = lines[2].split(",")
    if edit == "comment line":
        lines.insert(2, "# a note")
    elif edit == "eleven fields":
        lines[2] += ",0"
    elif edit == "nan units":
        lines[2] = ",".join(cells[:2] + ["nan"] + cells[3:])
    elif edit.startswith("units "):
        lines[2] = ",".join(cells[:2] + [edit[len("units "):]] + cells[3:])
    elif edit == "control char":
        lines[2] = ",".join(cells[:3] + ["\x1c" + cells[3]] + cells[4:])
    elif edit == "blank lines":
        lines[2:2] = ["", "   "]
    elif edit == "non-numeric consumer_id":
        lines[2] = ",".join(cells[:1] + ["x"] + cells[2:])
    elif edit == "cycle reappears":
        lines.append(lines[1])
    elif edit in ("cycle block repeats", "row moves to the next cycle"):
        first = [line for line in lines[1:]
                 if line.split(",")[0] == lines[1].split(",")[0]]
        if edit == "cycle block repeats":
            lines.extend(first)
        else:
            # the second cycle loses its last row to the third: the row
            # count still divides into equal blocks
            n = len(first)
            moved = lines[2 * n].split(",")
            moved[0] = lines[2 * n + 1].split(",")[0]
            lines[2 * n] = ",".join(moved)
    elif edit == "cycle split":
        lines.append(lines.pop(2))
    elif edit == "two rows swapped within a cycle":
        lines[1], lines[2] = lines[2], lines[1]
    elif edit == "consumer_id out of range":
        lines[2] = ",".join(cells[:1] + ["40"] + cells[2:])
    elif edit == "crlf":
        lines = [line + "\r" for line in lines]
    elif edit == "cycle beyond int64":
        lines[1] = ",".join(["9223372036854775808"] + lines[1].split(",")[1:])
    return lines


@pytest.mark.parametrize("edit", [
    "none", "comment line", "eleven fields", "units 1.0", "units 1_0",
    "units  3", "units +3", "nan units", "control char", "blank lines",
    "non-numeric consumer_id", "cycle reappears", "cycle block repeats",
    "row moves to the next cycle", "cycle split",
    "two rows swapped within a cycle", "consumer_id out of range", "crlf",
    "units 9223372036854775807", "units 9223372036854775808",
    "units -9223372036854775809", "cycle beyond int64"])
def test_read_run_samples_matches_line_parser(tmp_path, run_csv_text, edit):
    # numpy's parse is kept only where the line parser would give the same
    # samples; everywhere else the line parser's samples or error stand
    path = tmp_path / "run.csv"
    lines = _edit_run_csv(run_csv_text.splitlines(), edit)
    path.write_text("\n".join(lines) + "\n", newline="")
    fast = _reader_outcome(read_run_samples, str(path))
    assert fast == _reader_outcome(read_run_lines, str(path))
    if edit in ("units 1_0", "units  3", "units +3", "blank lines", "crlf",
                "none", "units 9223372036854775807"):
        assert isinstance(fast, list), fast
    # rows out of order would give ideals to the wrong consumers
    if edit in ("cycle reappears", "cycle block repeats"):
        assert re.search(r"run\.csv:\d+: cycle \d+ reappears after cycle \d+$",
                         fast), fast
    if edit in ("cycle split", "two rows swapped within a cycle",
                "consumer_id out of range", "non-numeric consumer_id"):
        # the first row out of place is named
        assert re.search(r"run\.csv:[23]: (consumer_id \d+ where \d+ is "
                         r"expected|invalid literal for int\(\))", fast), fast
    if edit in ("units 9223372036854775808", "units -9223372036854775809",
                "cycle beyond int64"):
        # beyond int64: an error naming the file and line, not an overflow
        assert re.search(r"run\.csv:[23]: (units|cycle) -?\d+ is outside the "
                         r"int64 range$", fast), fast


def test_read_run_samples_parses_program_output_in_one_pass(
        tmp_path, run_csv_text, monkeypatch):
    path = tmp_path / "run.csv"
    path.write_text(run_csv_text)
    expected = _reader_outcome(read_run_lines, str(path))

    def refuse(path):
        raise AssertionError("fell back to the line parser")
    monkeypatch.setattr(harness, "read_run_lines", refuse)
    assert _reader_outcome(read_run_samples, str(path)) == expected


def test_summary_csv_schema(tmp_path):
    result = run(small(cycles=100))
    path = tmp_path / "summary.csv"
    write_summary_csv([result], str(path))
    lines = open(path, encoding="utf-8").read().splitlines()
    # the file contract, whatever RunMetrics holds
    assert lines[0] == ("seed,social,fdc,mean_units,mean_utility,"
                        "utility_per_unit,mean_coverage,mean_path_length,"
                        "trend_slope,trend_slope_p")
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "3"
    assert cells[1] == "true"


def _result(samples=None, fdc=0.25, utility_per_unit=0.5):
    """A RunResult holding only what the writers read."""
    metrics = RunMetrics(mean_units=3.0, mean_utility=1.5,
                         utility_per_unit=utility_per_unit, mean_coverage=7.0,
                         mean_path_length=0.1, trend_slope=-1e-5,
                         trend_slope_p=0.75)
    return RunResult(config=SMALL, init_checksum="", network_checksum_start="",
                     network_checksum_end="", samples=samples, fdc=fdc,
                     consumption_events=0, metrics=metrics)


def test_summary_row_writes_undefined_for_missing_values():
    row = harness.summary_row(_result(fdc=None, utility_per_unit=None))
    assert len(row) == len(SUMMARY_HEADER)
    cells = dict(zip(SUMMARY_HEADER, row))
    assert cells["fdc"] == "undefined"
    assert cells["utility_per_unit"] == "undefined"
    assert cells["mean_units"] == "3"
    assert cells["trend_slope"] == fmt_float(-1e-5)


def test_run_csv_rows_match_per_cell_formatting(tmp_path):
    # the one-template writer against the per-cell str/fmt_float form it
    # replaced, on the values where float and int formatting have edges
    edges = [-0.0, math.nan, math.inf, -math.inf, 5e-324,
             1.7976931348623157e308, 0.1, 1.0]
    top = 2 ** 63 - 1
    units = np.array([[top, -top, 0, 7], [-1, 1, top, -top]], dtype=np.int64)
    utility = np.array([edges[:4], edges[4:]])
    ideals = np.array([[np.roll(edges, k)[:6] for k in range(4)],
                       [np.roll(edges, -k)[:6] for k in range(4)]])
    samples = run_samples([20, 40], units, utility, ideals)
    path = tmp_path / "run.csv"
    write_run_csv(_result(samples), str(path))
    expected = [",".join(harness.RUN_CSV_HEADER)]
    for sample in samples:
        for cid, (u, util, ideal) in enumerate(zip(
                sample.units.tolist(), sample.utility.tolist(),
                sample.ideals.tolist())):
            expected.append(",".join([str(sample.cycle), str(cid), str(u),
                                      fmt_float(util), *map(fmt_float, ideal)]))
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_report_row_markers_for_insufficient_n():
    row = stats.comparison_row("mean_units", [1.0], [2.0])
    assert row[4] == "insufficient-n"
    assert row[8] == "1"
