"""World assembly and the experiment engine: seeded initialization, the
cycle loop, paired social/non-social runs, batches, per-run metrics and
run CSV export.

Determinism contract: a (seed, config) pair fully determines every byte
this module produces. One master seed spawns five named substreams
(types, placement, map init, network, cycle loop) so that the social flag
cannot desynchronize the shared initialization of a pair.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields, replace
from functools import partial
from typing import Optional

import numpy as np

from . import stats
from .agents import Consumer, act, evaluate_situations
from .cognition import AttractivenessState, SelfOrganizingMap
from .network import TieGraph, watts_strogatz
from .products import (ProductType, generate_type_set, landscape_distances,
                       signature_matrix)
from .serialize import fmt_optional, open_utf8, write_csv
from .space import Cell, ConsumptionSpace, ProductInstance

SIGNATURE_DIM = 6


class ConfigError(ValueError):
    """Invalid run configuration; `problems` lists the offending keys."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid configuration: " + "; ".join(problems))
        self.problems = problems

    def __reduce__(self):
        # rebuilt from `problems`, not the message, when a batch worker
        # sends it back
        return ConfigError, (self.problems,)


@dataclass(frozen=True)
class RunConfig:
    """Every tunable in one place. Defaults reproduce the reference setup:
    a 165 x 165 grid, 40 consumers, 10 product types replicated five times,
    10,000 cycles sampled every 20."""

    seed: int = 1
    social: bool = True
    cycles: int = 10_000
    sample_every: int = 20
    width: int = 165
    height: int = 165
    n_consumers: int = 40
    n_types: int = 10
    replicas_per_type: int = 5
    # product model
    utility_slope: float = 1.0
    min_type_distance: float = 0.25
    max_type_attempts: int = 10_000
    maxima_radius: float = 0.0        # 0 = scaled mean nearest-neighbor distance
    relax_step: float = 0.01
    relax_tol: float = 1e-8
    relax_max_iter: int = 10_000
    overlap_angle: float = 0.1
    overlap_weight: float = 1.0
    # consumption space
    proximity_radius: int = 12
    respawn_sigma: float = 10.0
    # cognition
    conception_nodes: int = 16
    som_alpha: float = 0.3
    som_alpha_decay: float = 0.999
    som_alpha_floor: float = 0.01
    som_radius_decay: float = 0.999
    som_radius_floor: float = 0.5
    som_weight_low: float = 0.0
    som_weight_high: float = 2.0
    threshold_rate: float = 0.1
    # agent rules
    boredom_limit: int = 150
    frustration_limit: int = 5
    tie_strength_floor: float = 0.2
    max_valuation_gap: float = 1.0
    consumption_cycles: int = 5
    utility_window: int = 10
    experience_rate: float = 0.1
    social_rate: float = 0.2
    perturb_magnitude: float = 0.1
    escape_cycles: int = 25
    decline_relaxation: float = 0.1   # threshold erosion per decline, x threshold_rate
    # social network
    ws_degree: int = 4
    ws_beta: float = 0.1
    tie_boost: float = 0.1
    tie_decay: float = 0.001
    tie_removal_floor: float = 0.05
    initial_tie_strength: float = 0.5
    referral_strength: float = 0.5
    # analysis
    coverage_cell_width: float = 0.05
    transient_cycles: int = 1500

    def with_overrides(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)

    def validate(self) -> list[str]:
        """Return a list of problems (empty when the config is usable)."""
        problems = []
        if self.seed < 0:
            problems.append("seed must be >= 0")
        if self.cycles < 1:
            problems.append("cycles must be >= 1")
        if self.sample_every < 1:
            problems.append("sample_every must be >= 1")
        elif self.cycles % self.sample_every != 0:
            problems.append("cycles must be divisible by sample_every")
        elif self.cycles < 2 * self.sample_every:
            problems.append("cycles must cover at least two samples "
                            "(>= 2 * sample_every)")
        if self.width < 1 or self.height < 1:
            problems.append("width/height must be positive")
        if self.n_consumers < 1:
            problems.append("n_consumers must be >= 1")
        if self.n_types < 1 or self.replicas_per_type < 1:
            problems.append("n_types/replicas_per_type must be >= 1")
        cells = self.width * self.height
        if self.n_consumers > cells:
            problems.append("n_consumers exceeds grid capacity")
        if self.n_types * self.replicas_per_type > cells:
            problems.append("product instances exceed grid capacity")
        if self.proximity_radius < 1:
            problems.append("proximity_radius must be >= 1")
        if self.respawn_sigma < 0:
            problems.append("respawn_sigma must be >= 0")
        for key in ("experience_rate", "social_rate", "threshold_rate"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                problems.append(f"{key} must be in [0, 1]")
        if self.ws_degree % 2 != 0 or self.ws_degree < 2:
            problems.append("ws_degree must be even and >= 2")
        if self.ws_degree >= self.n_consumers:
            problems.append("ws_degree must be < n_consumers")
        if not 0.0 <= self.ws_beta <= 1.0:
            problems.append("ws_beta must be in [0, 1]")
        if self.consumption_cycles < 1:
            problems.append("consumption_cycles must be >= 1")
        if self.utility_window < 1:
            problems.append("utility_window must be >= 1")
        if self.coverage_cell_width <= 0:
            problems.append("coverage_cell_width must be positive")
        if not abs(self.utility_slope) <= 100.0:
            # the logistic utility overflows soon beyond this
            problems.append("utility_slope must be in [-100, 100]")
        if self.min_type_distance < 0:
            problems.append("min_type_distance must be >= 0")
        if self.maxima_radius < 0:
            problems.append("maxima_radius must be >= 0; 0 = scaled default")
        for key in ("max_type_attempts", "relax_max_iter", "conception_nodes"):
            if getattr(self, key) < 1:
                problems.append(f"{key} must be >= 1")
        if not self.relax_step > 0.0:
            problems.append("relax_step must be positive")
        for key in ("som_alpha", "som_alpha_decay", "som_alpha_floor",
                    "som_radius_decay", "tie_boost", "tie_decay",
                    "tie_removal_floor", "initial_tie_strength",
                    "referral_strength"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                problems.append(f"{key} must be in [0, 1]")
        if not self.som_radius_floor > 0.0:
            problems.append("som_radius_floor must be positive")
        # the widths of the uniform draws: non-negative and finite
        if not 0.0 <= self.som_weight_high - self.som_weight_low < math.inf:
            problems.append("som_weight_high - som_weight_low must be "
                            "finite and >= 0")
        if not 0.0 <= 2.0 * self.perturb_magnitude < math.inf:
            problems.append("perturb_magnitude must be finite and >= 0")
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                problems.append(f"{f.name} must be finite")
        return problems

    def density_warnings(self) -> list[str]:
        """Results are sensitive to spatial density; warn when more than 50%
        away from the reference 90 entities per 165^2 cells."""
        reference = 90.0 / (165.0 * 165.0)
        density = (self.n_consumers + self.n_types * self.replicas_per_type) \
            / (self.width * self.height)
        if not 0.5 * reference <= density <= 1.5 * reference:
            return [f"entity density {density:.5f} is outside +/-50% of the "
                    f"reference {reference:.5f}; behavior may not transfer"]
        return []


# rng substream names, in spawn order
_STREAMS = ("types", "placement", "som", "network", "cycle")


def spawn_streams(seed: int) -> dict[str, np.random.Generator]:
    """Derive the five named substreams from a master seed."""
    children = np.random.SeedSequence(seed).spawn(len(_STREAMS))
    return {name: np.random.default_rng(child)
            for name, child in zip(_STREAMS, children)}


def type_set_from_config(config: RunConfig) -> list[ProductType]:
    """The product type set a run at `config.seed` uses, drawn from the
    seed's "types" substream."""
    return generate_type_set(
        config.n_types, config.min_type_distance,
        spawn_streams(config.seed)["types"],
        max_attempts=config.max_type_attempts, slope=config.utility_slope,
        step=config.relax_step, tol=config.relax_tol,
        max_iter=config.relax_max_iter, min_separation=config.overlap_angle,
        separation_weight=config.overlap_weight)


_PLACEMENT_RETRIES = 10_000


class World:
    """A fully initialized simulation: grid, products, consumers, ties."""

    def __init__(self, config: RunConfig):
        problems = config.validate()
        if problems:
            raise ConfigError(problems)
        self.config = config
        self.social = config.social
        streams = spawn_streams(config.seed)
        self.rng = streams["cycle"]

        self.types: list[ProductType] = type_set_from_config(config)

        self.space = ConsumptionSpace(config.width, config.height,
                                      config.proximity_radius)
        self._place_products(streams["placement"])
        self._place_consumers(streams["placement"], streams["som"])
        self.space.rebuild_field()
        self.network = watts_strogatz(
            config.n_consumers, config.ws_degree, config.ws_beta,
            streams["network"], config.initial_tie_strength)
        self.consumption_events = 0
        self._pending_respawns: list[int] = []

    # -- initialization ------------------------------------------------------

    def _random_cell(self, rng) -> Cell:
        return (int(rng.integers(0, self.config.width)),
                int(rng.integers(0, self.config.height)))

    def _place_products(self, rng) -> None:
        instance_id = 0
        for ptype in self.types:
            for _ in range(self.config.replicas_per_type):
                for _ in range(_PLACEMENT_RETRIES):
                    loc = self._random_cell(rng)
                    if self.space.product_at(loc) is None:
                        self.space.place_product(ProductInstance(
                            instance_id, ptype.type_id, loc))
                        instance_id += 1
                        break
                else:
                    raise ConfigError(["product placement failed; density too high"])

    def _place_consumers(self, rng_place, rng_som) -> None:
        cfg = self.config
        # every consumer starts from the same ideal: the componentwise mean
        # of the type signatures
        shared_ideal = signature_matrix(self.types).mean(axis=0)
        som_kwargs = dict(alpha0=cfg.som_alpha, alpha_decay=cfg.som_alpha_decay,
                          alpha_floor=cfg.som_alpha_floor,
                          radius_decay=cfg.som_radius_decay,
                          radius_floor=cfg.som_radius_floor)
        self.consumers: list[Consumer] = []
        for cid in range(cfg.n_consumers):
            for _ in range(_PLACEMENT_RETRIES):
                loc = self._random_cell(rng_place)
                if self.space.consumer_at(loc) is None:
                    break
            else:
                raise ConfigError(["consumer placement failed; density too high"])
            # no map uses this draw, but rng_som is interleaved per
            # consumer: without it every experience map gets other weights
            rng_som.uniform(cfg.som_weight_low, cfg.som_weight_high,
                            size=(64, SIGNATURE_DIM))
            conception = SelfOrganizingMap.random_init(
                cfg.conception_nodes, SIGNATURE_DIM + 1,
                rng_som, cfg.som_weight_low, cfg.som_weight_high, **som_kwargs)
            consumer = Consumer(
                id=cid, location=loc, ideal=shared_ideal.copy(),
                attract=AttractivenessState(conception, threshold=0.0,
                                            adapt_rate=cfg.threshold_rate),
                recent_utilities=deque(maxlen=cfg.utility_window))
            self.space.place_consumer(consumer)
            self.consumers.append(consumer)

    # -- cycle loop -----------------------------------------------------------

    def queue_respawn(self, instance_id: int) -> None:
        self._pending_respawns.append(instance_id)
        self.consumption_events += 1

    def step(self) -> None:
        """One clock cycle: tie decay (social runs), agents act in a freshly
        permuted order, adjacency strengthens ties (social runs), consumed
        products respawn."""
        cfg = self.config
        if self.social:
            self.network.decay_all(cfg.tie_decay, cfg.tie_removal_floor)
        rng = self.rng
        for idx in rng.permutation(cfg.n_consumers).tolist():
            consumer = self.consumers[idx]
            evaluate_situations(consumer, self)
            act(consumer, self, rng)
            if consumer.consuming is None:
                consumer.boredom_count += 1
        if self.social:
            self._strengthen_contacts()
        for instance_id in self._pending_respawns:
            self.space.respawn_product(instance_id, self.rng, cfg.respawn_sigma)
        self._pending_respawns.clear()

    def _strengthen_contacts(self) -> None:
        # physical contact: von Neumann adjacency, once per pair per cycle
        for a, b in self.space.contact_pairs():
            self.network.strengthen(a, b, self.config.tie_boost)

    # -- integrity -------------------------------------------------------------

    def audit(self) -> None:
        cfg = self.config
        self.space.audit(cfg.n_consumers, cfg.n_types * cfg.replicas_per_type)
        for consumer in self.consumers:
            assert self.space.consumer_at(consumer.location) == consumer.id, \
                f"consumer {consumer.id} location desync"
            assert np.all(np.isfinite(consumer.ideal)), \
                f"consumer {consumer.id} ideal not finite"
            assert np.all(consumer.ideal >= 0.0), \
                f"consumer {consumer.id} ideal went negative"
        if self.social:
            self.network.audit()

    def state_checksum(self) -> str:
        """Digest of types, placements, consumer state (including map
        weights) and the tie graph; used to verify pair identity."""
        h = hashlib.sha256()
        for t in self.types:
            h.update(struct.pack("<ii", t.type_id, t.topology.edge_count))
            for i, j in t.topology.edges:
                h.update(struct.pack("<ii", i, j))
            h.update(np.ascontiguousarray(t.signature).tobytes())
            h.update(struct.pack("<d", t.utility))
        for pid in sorted(self.space.products):
            inst = self.space.products[pid]
            h.update(struct.pack("<iiii", pid, inst.type_id, *inst.location))
        for c in self.consumers:
            h.update(struct.pack("<iii", c.id, *c.location))
            h.update(np.ascontiguousarray(c.ideal).tobytes())
            h.update(struct.pack("<d", c.attract.threshold))
            h.update(np.ascontiguousarray(c.attract.som.weights).tobytes())
        h.update(self.network.checksum().encode())
        return h.hexdigest()


def prime_consumers(world: World) -> None:
    """Expose every consumer to each product type in type-id order: one
    learning step of the experience map with the type's signature and
    utility."""
    for consumer in world.consumers:
        for ptype in world.types:
            consumer.attract.learn(ptype.signature, ptype.utility)


def init_world(config: RunConfig) -> World:
    world = World(config)
    prime_consumers(world)
    return world


# ---------------------------------------------------------------------------
# samples, metrics, results


def run_samples(cycles, units, utility, ideals) -> np.recarray:
    """One record per sample period: its `cycle`, each consumer's `units` and
    `utility` since the previous sample, and each consumer's `ideals` (n, 6).
    A column reads as an array (`samples.units` is (T, n)), a record by
    attribute (`samples[0].ideals` is (n, 6))."""
    n = len(units[0])
    return np.rec.fromarrays([cycles, units, utility, ideals], dtype=[
        ("cycle", np.int64), ("units", np.int64, (n,)), ("utility", np.float64, (n,)),
        ("ideals", np.float64, (n, SIGNATURE_DIM))])


@dataclass
class RunMetrics:
    mean_units: float
    mean_utility: float
    utility_per_unit: Optional[float]   # None when nothing was consumed
    mean_coverage: float
    mean_path_length: float
    trend_slope: float
    trend_slope_p: float


METRIC_NAMES = ("mean_units", "mean_utility", "utility_per_unit",
                "mean_coverage", "mean_path_length")


def _trajectories(trajectories) -> np.ndarray:
    traj = np.asarray(trajectories, dtype=float)
    if traj.ndim != 3 or traj.shape[1] < 1:
        raise ValueError("need a batch (n, T, d) of non-empty trajectories")
    return traj


def value_coverage(trajectories, cell_width: float) -> np.ndarray:
    """Distinct cells of an axis-aligned 6-D lattice (edge `cell_width`)
    visited by each sampled ideal-vector trajectory of a batch (n, T, d)."""
    traj = _trajectories(trajectories)
    if cell_width <= 0.0:
        raise ValueError("cell_width must be positive")
    cells = np.floor(traj / cell_width).astype(np.int64)
    # sort each trajectory's cells lexicographically; a cell is new where it
    # differs from its predecessor
    order = np.lexsort(np.moveaxis(cells, -1, 0), axis=-1)
    cells = np.take_along_axis(cells, order[..., None], axis=-2)
    return 1 + np.any(cells[:, 1:] != cells[:, :-1], axis=-1).sum(axis=-1)


def value_path_length(trajectories) -> np.ndarray:
    """Sum of Euclidean distances between consecutive sampled ideals of each
    trajectory of a batch (n, T, d)."""
    # from a C-ordered copy each trajectory's segment lengths are one
    # contiguous row, summed in the same order whatever the input's layout
    traj = np.ascontiguousarray(_trajectories(trajectories))
    diffs = np.diff(traj, axis=1)
    return np.sqrt((diffs * diffs).sum(axis=-1)).sum(axis=-1)


def run_metrics(samples: np.recarray, config: RunConfig) -> RunMetrics:
    """Per-run summary statistics. The trend regression discards samples in
    the transient window (first `transient_cycles` cycles)."""
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    # Python-int sums, which never wrap as int64 sums do beyond 2**63
    period_units = samples.units.sum(axis=1, dtype=object)
    # Python-style left-to-right sums from 0.0 (+ 0.0 turns an all -0.0 sum
    # into 0.0): np.sum is pairwise and rounds differently
    period_utility = np.cumsum(samples.utility, axis=1)[:, -1] + 0.0
    total_units = period_units.astype(float)
    overall_units = int(period_units.sum())
    overall_utility = float(np.cumsum(period_utility)[-1])
    trajectories = np.ascontiguousarray(samples.ideals.swapaxes(0, 1))
    coverage = value_coverage(trajectories, config.coverage_cell_width)
    paths = value_path_length(trajectories)
    steady = samples.cycle > config.transient_cycles
    xs, ys = samples.cycle[steady].astype(float), total_units[steady]
    if xs.size >= 2:
        slope, _ = stats.linreg_slope(xs, ys)
        slope_p = stats.slope_zero_test(xs, ys).p_value
    else:
        slope, slope_p = 0.0, 1.0
    return RunMetrics(
        mean_units=float(np.mean(total_units)),
        mean_utility=float(np.mean(period_utility)),
        utility_per_unit=(overall_utility / overall_units
                          if overall_units > 0 else None),
        mean_coverage=float(np.mean(coverage)),
        mean_path_length=float(np.mean(paths)),
        trend_slope=slope,
        trend_slope_p=slope_p)


@dataclass
class RunResult:
    config: RunConfig
    init_checksum: str
    network_checksum_start: str
    network_checksum_end: str
    samples: np.recarray        # run_samples
    fdc: Optional[float]
    consumption_events: int
    metrics: RunMetrics


@dataclass
class PairResult:
    seed: int
    social: RunResult
    nonsocial: RunResult


def run(config: RunConfig, audit_every: int = 0) -> RunResult:
    """Execute one full simulation and collect samples every
    `sample_every` cycles."""
    world = init_world(config)
    init_checksum = world.state_checksum()
    net_start = world.network.checksum()
    # cumulative totals at every sample cycle; the samples hold their deltas
    shape = (config.cycles // config.sample_every, config.n_consumers)
    units, utility = np.zeros(shape, dtype=np.int64), np.zeros(shape)
    ideals = np.zeros(shape + (SIGNATURE_DIM,))
    for cycle in range(1, config.cycles + 1):
        world.step()
        if audit_every and cycle % audit_every == 0:
            world.audit()
        if cycle % config.sample_every == 0:
            k = cycle // config.sample_every - 1
            units[k] = [c.units_consumed for c in world.consumers]
            utility[k] = [c.utility_total for c in world.consumers]
            ideals[k] = [c.ideal for c in world.consumers]
    samples = run_samples(
        np.arange(1, shape[0] + 1) * config.sample_every,
        np.diff(units, axis=0, prepend=0), np.diff(utility, axis=0, prepend=0),
        ideals)
    radius = config.maxima_radius if config.maxima_radius > 0 else None
    try:
        _, distances = landscape_distances(world.types, radius)
        run_fdc = stats.fdc([t.utility for t in world.types], distances)
    except ValueError:
        run_fdc = None
    return RunResult(
        config=config,
        init_checksum=init_checksum,
        network_checksum_start=net_start,
        network_checksum_end=world.network.checksum(),
        samples=samples,
        fdc=run_fdc,
        consumption_events=world.consumption_events,
        metrics=run_metrics(samples, config))


def run_pair(seed: int, base_config: RunConfig, audit_every: int = 0) -> PairResult:
    """Two runs sharing one seed, differing only in the social flag. The
    initial states must agree bit-exactly; a checksum mismatch is an
    internal determinism fault.

    Each arm draws the type set itself, so the checksums also compare the
    two type sets. At the default relaxation parameters both arms read
    their layouts from the committed layout table and relax none."""
    social = run(base_config.with_overrides(seed=seed, social=True),
                 audit_every=audit_every)
    nonsocial = run(base_config.with_overrides(seed=seed, social=False),
                    audit_every=audit_every)
    if social.init_checksum != nonsocial.init_checksum:
        raise RuntimeError(
            f"pair determinism fault for seed {seed}: initial checksums differ")
    return PairResult(seed=seed, social=social, nonsocial=nonsocial)


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one (so `taskset` caps it), else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_map(fn, items: list, workers: int) -> list:
    """`[fn(item) for item in items]`, on `min(workers, len(items))` worker
    processes, in-process when that is 1. `fn` must be a module-level
    function (or a `functools.partial` of one): workers look it up by name.

    Results come back in item order, and the first item that fails raises
    its exception here, whatever the worker count; the tasks not yet
    started are then cancelled."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # the fork start method launches every worker at once: fork no more
    # than there are items
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    # the default start method (fork on Linux): workers inherit the
    # functions installed on the modules when the pool starts, wrappers
    # included
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            return list(pool.map(fn, items))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _pair_worker(seed: int, config: RunConfig) -> PairResult:
    # looks `run_pair` up on the module, so that a wrapper put there
    # (benchmark/tracer.py) also runs in the workers
    return run_pair(seed, config)


def batch(n_pairs: int, seed_base: int, config: RunConfig,
          workers: int = 1) -> list[PairResult]:
    """Run `n_pairs` independent pairs at seeds seed_base, seed_base+1, ...
    Results come back in seed order regardless of worker count."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    return pool_map(partial(_pair_worker, config=config),
                    [seed_base + i for i in range(n_pairs)], workers)


# ---------------------------------------------------------------------------
# run CSV and summary CSV

RUN_CSV_HEADER = ["cycle", "consumer_id", "units", "utility",
                  "i0", "i1", "i2", "i3", "i4", "i5"]
# one run CSV row: cycle, consumer_id and units, then utility and the ideals
RUN_ROW_FORMAT = "%d,%d,%d" + ",%.17g" * (1 + SIGNATURE_DIM)

SUMMARY_HEADER = ["seed", "social", "fdc", *(f.name for f in fields(RunMetrics))]


def run_file_name(seed: int, social: bool) -> str:
    return f"run_{seed}_{'social' if social else 'nonsocial'}.csv"


def write_run_csv(result: RunResult, path: str) -> None:
    # one period at a time: whole columns as Python objects cost memory
    write_csv(path, RUN_CSV_HEADER, (
        RUN_ROW_FORMAT % (cycle, cid, units, utility, *ideal)
        for cycle, sample in zip(result.samples.cycle.tolist(), result.samples)
        for cid, (units, utility, ideal) in enumerate(zip(
            sample.units.tolist(), sample.utility.tolist(),
            sample.ideals.tolist()))))


# one run CSV row on the fast path
_RUN_ROW_DTYPE = np.dtype([("cycle", np.int64), ("consumer_id", np.int64),
                           ("units", np.int64), ("utility", np.float64),
                           ("ideals", np.float64, (SIGNATURE_DIM,))])
# the characters the program writes in a run CSV body: in it, numpy parses
# a number exactly as int() and float() do; outside it they can differ
# (numpy strips '\x1c' around a number, Python rejects it)
_RUN_BODY_ALPHABET = b"0123456789+-.e,\n"


def read_run_samples(path: str) -> np.recarray:
    """Rebuild a run's samples (`run_samples`) from its run CSV, bit for bit
    as the simulation sampled them, so `run_metrics` gives the same bytes on
    either.

    A body in the program's own alphabet is parsed in one numpy pass and
    kept when it is two or more contiguous blocks of one length with
    distinct cycles and consumer ids 0..n-1 in order, as the program writes
    it. Any other body, including every malformed one, goes through
    `read_run_lines`, which returns the same samples or raises its error."""
    with open_utf8(path) as fh:
        if fh.readline().strip().split(",") != RUN_CSV_HEADER:
            raise ValueError(f"{path}: unexpected run CSV header")
        rows = _parse_run_body(fh)
    if rows is None:
        return read_run_lines(path)
    cycles = rows["cycle"]
    starts = np.flatnonzero(cycles[1:] != cycles[:-1]) + 1
    n_cycles = starts.size + 1
    n = rows.size // n_cycles
    if (n_cycles < 2 or rows.size != n_cycles * n
            or not np.array_equal(starts, n * np.arange(1, n_cycles))
            or np.unique(cycles[::n]).size != n_cycles
            or not (rows["consumer_id"].reshape(n_cycles, n)
                    == np.arange(n)).all()):
        return read_run_lines(path)
    rows = rows.reshape(n_cycles, n)
    return run_samples(cycles[::n], rows["units"], rows["utility"], rows["ideals"])


def _parse_run_body(fh) -> Optional[np.ndarray]:
    """The rows of a run CSV body from the open file's position on, in one
    numpy pass; None when the body strays from the program's alphabet or
    does not parse (a number outside int64 does not)."""
    body_start = fh.tell()
    for chunk in iter(lambda: fh.read(1 << 16), ""):
        if chunk.encode().translate(None, _RUN_BODY_ALPHABET):
            return None
    fh.seek(body_start)
    try:
        with warnings.catch_warnings():
            # an empty body warns, and numpy < 2 parses '1.0' as an int with
            # only a warning: leave both to the line parser
            warnings.simplefilter("error")
            return np.loadtxt(fh, dtype=_RUN_ROW_DTYPE, delimiter=",",
                              comments=None, ndmin=1)
    except (ValueError, Warning):
        return None


def _int64(text: str, name: str) -> int:
    value = int(text)
    if not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(f"{name} {value} is outside the int64 range")
    return value


def read_run_lines(path: str) -> np.recarray:
    """The line-by-line run CSV parser, and the reference for
    `read_run_samples`. Each cycle's rows form one contiguous block, with
    consumer ids 0, 1, ... in order; blank lines are skipped. A row without
    ten fields, with a non-numeric cell or an integer beyond int64, a row
    whose consumer id is not its place in its cycle's block, a cycle that
    reappears after another cycle's rows, or a cycle with fewer or more rows
    than the first cycle (a truncated file), raises ValueError naming the
    file and line; a file with fewer than two sample cycles raises one
    naming the file."""
    groups: dict[int, tuple[list[int], list[float], list[list[float]]]] = {}
    order: list[int] = []
    first_line: dict[int, int] = {}
    with open_utf8(path) as fh:
        header = fh.readline().strip().split(",")
        if header != RUN_CSV_HEADER:
            raise ValueError(f"{path}: unexpected run CSV header")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(RUN_CSV_HEADER):
                raise ValueError(f"{path}:{lineno}: expected "
                                 f"{len(RUN_CSV_HEADER)} fields, got {len(parts)}")
            try:
                cycle = _int64(parts[0], "cycle")
                if order and cycle != order[-1] and cycle in groups:
                    raise ValueError(f"cycle {cycle} reappears after cycle "
                                     f"{order[-1]}")
                if cycle not in groups:
                    groups[cycle] = ([], [], [])
                    order.append(cycle)
                    first_line[cycle] = lineno
                units, utility, ideals = groups[cycle]
                consumer_id = int(parts[1])
                if consumer_id != len(units):
                    # a row out of place would give its ideals to another
                    # consumer
                    raise ValueError(f"consumer_id {consumer_id} where "
                                     f"{len(units)} is expected")
                units.append(_int64(parts[2], "units"))
                utility.append(float(parts[3]))
                ideals.append([float(v) for v in parts[4:10]])
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
    if len(order) < 2:
        raise ValueError(f"{path}: {len(order)} sample cycles, need at "
                         f"least two")
    n = len(groups[order[0]][0])
    for cycle in order:
        if len(groups[cycle][0]) != n:
            raise ValueError(f"{path}:{first_line[cycle]}: cycle {cycle} has "
                             f"{len(groups[cycle][0])} rows, the first cycle "
                             f"{n}")
    return run_samples(order, *zip(*(groups[c] for c in order)))


def summary_row(result: RunResult) -> list[str]:
    """seed, social, fdc and every `RunMetrics` field, as SUMMARY_HEADER."""
    return [str(result.config.seed), "true" if result.config.social else "false",
            *map(fmt_optional, (result.fdc, *astuple(result.metrics)))]


def write_summary_csv(results: list[RunResult], path: str) -> None:
    write_csv(path, SUMMARY_HEADER, (",".join(summary_row(r)) for r in results))
