"""Product construction and value-landscape analysis.

A product is a connected graph on six vertices. Its functional side is a
utility fixed by edge count; its surface side is a six-element signature
read off a circular layout that a relaxation pass drives toward equal
edge lengths. Nearby signatures can hide very different utilities, which
is what makes the search landscape rugged.

There are only 26,704 products, so at `RunConfig`'s relaxation defaults
every layout is read from a committed table, `k6_layouts.npy`, that
`tools/layout_table.py` relaxed once; other parameters relax at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .serialize import fmt_float, write_csv

N_VERTICES = 6
MIN_EDGES = 5
MAX_EDGES = 15
VERTEX_PAIRS: tuple[tuple[int, int], ...] = tuple(
    (i, j) for i in range(N_VERTICES) for j in range(i + 1, N_VERTICES)
)


class GenerationError(RuntimeError):
    """Raised when constrained type-set generation runs out of attempts."""

    def __init__(self, message: str, achieved: int):
        super().__init__(message)
        self.achieved = achieved


@dataclass(frozen=True)
class ProductTopology:
    """Undirected graph on six vertices, stored as sorted (i, j) pairs."""

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not (MIN_EDGES <= len(self.edges) <= MAX_EDGES):
            raise ValueError(f"edge count {len(self.edges)} outside [{MIN_EDGES}, {MAX_EDGES}]")
        for i, j in self.edges:
            if not (0 <= i < j < N_VERTICES):
                raise ValueError(f"bad edge ({i}, {j})")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edges")
        if not _is_connected(self.edges):
            raise ValueError("graph is not connected")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self) -> np.ndarray:
        adj = np.zeros((N_VERTICES, N_VERTICES), dtype=bool)
        for i, j in self.edges:
            adj[i, j] = adj[j, i] = True
        return adj


def _is_connected(edges) -> bool:
    neighbors: dict[int, list[int]] = {v: [] for v in range(N_VERTICES)}
    for i, j in edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in neighbors[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == N_VERTICES


MAX_TOPOLOGY_RETRIES = 10_000


def random_topology(rng: np.random.Generator) -> ProductTopology:
    """Draw a uniform edge count in [5, 15], then a random edge subset of
    that size, retrying until the graph is connected."""
    for _ in range(MAX_TOPOLOGY_RETRIES):
        count = int(rng.integers(MIN_EDGES, MAX_EDGES + 1))
        picks = rng.choice(len(VERTEX_PAIRS), size=count, replace=False)
        edges = tuple(sorted(VERTEX_PAIRS[k] for k in picks))
        if _is_connected(edges):
            return ProductTopology(edges)
    raise RuntimeError("no connected graph found in 10000 draws; rng is broken")


# ---------------------------------------------------------------------------
# circular layout relaxation


@dataclass(frozen=True)
class LayoutResult:
    signature: np.ndarray     # per-vertex distance from the layout centroid
    residual: float           # std deviation of edge chord lengths at the layout
    converged: bool
    angles: tuple[float, ...]  # final vertex angles on the unit circle


_PAIR_I = np.array([i for i, j in VERTEX_PAIRS])
_PAIR_J = np.array([j for i, j in VERTEX_PAIRS])
# pair incidence: d(theta_i - theta_j)/d(theta_v) for every vertex pair
_PAIR_INC = np.zeros((len(VERTEX_PAIRS), N_VERTICES))
for _p, (_i, _j) in enumerate(VERTEX_PAIRS):
    _PAIR_INC[_p, _i] = 1.0
    _PAIR_INC[_p, _j] = -1.0
_TWO_PI = 2.0 * math.pi


class _Block(NamedTuple):
    """The per-row arrays of one block of layouts, plus flat indices that
    gather each row's edge and vertex-pair endpoints from a C-ordered
    (rows, 6) angle array; rebuilt only when rows drop out."""

    ei: np.ndarray
    ej: np.ndarray
    mask: np.ndarray
    inc: np.ndarray
    m: np.ndarray
    flat_i: np.ndarray
    flat_j: np.ndarray
    pair_i: np.ndarray
    pair_j: np.ndarray
    two_over_m: np.ndarray

    def rows(self, keep) -> "_Block":
        return _block(self.ei[keep], self.ej[keep], self.mask[keep],
                      self.inc[keep], self.m[keep])


def _block(ei, ej, mask, inc, m) -> _Block:
    base = N_VERTICES * np.arange(len(m))[:, None]
    return _Block(ei, ej, mask, inc, m, base + ei, base + ej,
                  base + _PAIR_I, base + _PAIR_J, (2.0 / m)[:, None])


def _edge_block(topologies) -> _Block:
    # pad every edge list to MAX_EDGES, so a row sums in the same order
    # whatever its block (numpy adds fewer than 8 values in another order
    # than 8 or more); mask marks real edges
    count = len(topologies)
    ei = np.zeros((count, MAX_EDGES), dtype=np.intp)
    ej = np.zeros((count, MAX_EDGES), dtype=np.intp)
    mask = np.zeros((count, MAX_EDGES))
    inc = np.zeros((count, MAX_EDGES, N_VERTICES))
    for k, topo in enumerate(topologies):
        for e, (i, j) in enumerate(topo.edges):
            ei[k, e] = i
            ej[k, e] = j
            mask[k, e] = 1.0
            inc[k, e, i] = 1.0
            inc[k, e, j] = -1.0
    m = np.array([float(t.edge_count) for t in topologies])
    return _block(ei, ej, mask, inc, m)


def _batch_objective(theta, block, min_separation, separation_weight):
    """Objective, gradient and chord variance for a (k, 6) block of layouts.

    Objective: variance of edge chord lengths plus a short-range quadratic
    repulsion that keeps vertices from collapsing onto one another (all
    chord lengths zero would otherwise be a perfect minimum). Rows are
    independent, so results do not depend on batch composition.
    """
    half = 0.5 * (theta.take(block.flat_i) - theta.take(block.flat_j))
    s = np.sin(half)
    lengths = 2.0 * np.abs(s) * block.mask
    mean = np.add.reduce(lengths, 1) / block.m
    mean_sq = np.add.reduce(lengths * lengths, 1) / block.m
    variance = mean_sq - mean * mean
    c = np.cos(half)
    d_len = np.where(s >= 0.0, c, -c)
    coeff = block.two_over_m * (lengths - mean[:, None]) * d_len * block.mask
    grad = np.einsum("ke,kev->kv", coeff, block.inc)

    diff = theta.take(block.pair_i) - theta.take(block.pair_j)
    wrapped = diff - _TWO_PI * np.rint(diff / _TWO_PI)
    gap = min_separation - np.abs(wrapped)
    np.maximum(gap, 0.0, out=gap)
    penalty = separation_weight * np.add.reduce(gap * gap, 1)
    push = -2.0 * separation_weight * gap
    grad += np.where(wrapped >= 0.0, push, -push) @ _PAIR_INC
    return variance + penalty, grad, variance


def layout_objective(theta, edges, min_separation: float = 0.1,
                     separation_weight: float = 1.0) -> float:
    """Objective the relaxation descends (exposed for independent checks)."""
    block = _edge_block([ProductTopology(tuple(edges))])
    value, _, _ = _batch_objective(np.asarray(theta, dtype=float)[None, :],
                                   block, min_separation, separation_weight)
    return float(value[0])


_INITIAL_ANGLES = np.array([_TWO_PI * v / N_VERTICES for v in range(N_VERTICES)])


def _descend(block, step, tol, max_iter, min_separation, separation_weight):
    """Fixed-step descent of every row of `block`: (final angles, converged
    flags)."""
    count = len(block.m)
    theta = np.tile(_INITIAL_ANGLES, (count, 1))
    best_obj = np.full(count, np.inf)
    best_theta = theta.copy()
    final_theta = theta.copy()
    converged = np.zeros(count, dtype=bool)
    live = np.arange(count)  # rows still descending; converged rows drop out
    for _ in range(max_iter):
        objective, grad, _ = _batch_objective(
            theta, block, min_separation, separation_weight)
        improved = objective < best_obj
        np.copyto(best_obj, objective, where=improved)
        np.copyto(best_theta, theta, where=improved[:, None])
        update = step * grad
        theta -= update
        newly = np.maximum.reduce(np.abs(update), 1) < tol
        if newly.any():
            done = live[newly]
            final_theta[done] = theta[newly]
            converged[done] = True
            keep = ~newly
            live = live[keep]
            if not live.size:
                break
            theta = theta[keep]
            best_obj = best_obj[keep]
            best_theta = best_theta[keep]
            block = block.rows(keep)
    if live.size:
        final_theta[live] = best_theta
    return final_theta, converged


# the relaxation parameters of the layout table: `RunConfig`'s defaults
TABLE_PARAMS = (0.01, 1e-8, 10_000, 0.1, 1.0)
TABLE_PATH = Path(__file__).with_name("k6_layouts.npy")
_PAIR_BIT = {pair: 1 << k for k, pair in enumerate(VERTEX_PAIRS)}


def edge_mask(topology: ProductTopology) -> int:
    """The graph's edge set as a bit mask: bit k is set for VERTEX_PAIRS[k]."""
    return sum(_PAIR_BIT[e] for e in topology.edges)


def _table_rows(masks) -> np.ndarray:
    """Rows `masks` of the committed layout table: row `mask` holds the six
    relaxed angles and the converged flag (1.0 or 0.0) of the graph with
    that edge mask at TABLE_PARAMS; rows of masks that are no product are
    NaN. `tools/layout_table.py` writes it. The rows are read one by one,
    as a memory map would bring the whole file into the resident set."""
    width = N_VERTICES + 1
    with open(TABLE_PATH, "rb", buffering=0) as f:
        np.lib.format.read_magic(f)
        if np.lib.format.read_array_header_1_0(f) != \
                ((1 << len(VERTEX_PAIRS), width), False, np.dtype("<f8")):
            raise ValueError(f"{TABLE_PATH} is not a layout table")
        start = f.tell()
        rows = []
        for mask in masks:
            f.seek(start + 8 * width * mask)
            rows.append(f.read(8 * width))
    return np.frombuffer(b"".join(rows), dtype="<f8").reshape(-1, width)


def layout_signatures(topologies, step: float = 0.01, tol: float = 1e-8,
                      max_iter: int = 10_000, min_separation: float = 0.1,
                      separation_weight: float = 1.0) -> list[LayoutResult]:
    """Relax circular layouts for a whole block of product graphs at once.

    Vertices start evenly spaced on the unit circle (vertex-index order)
    and follow fixed-step gradient descent on the chord-length variance
    plus the overlap repulsion. A layout stops once its largest angle
    update drops below `tol`; layouts still moving at the iteration cap
    report their best iterate with converged=False. Deterministic, and
    independent of how layouts are grouped into blocks.

    At TABLE_PARAMS the relaxed angles and converged flags are read from
    the layout table, which holds exactly what the descent returns; under
    any other parameters the block is relaxed here. Signatures and
    residuals are computed from the angles either way.
    """
    count = len(topologies)
    block = _edge_block(topologies)
    params = (step, tol, max_iter, min_separation, separation_weight)
    if params == TABLE_PARAMS:
        rows = _table_rows([edge_mask(t) for t in topologies])
        final_theta = np.ascontiguousarray(rows[:, :N_VERTICES])
        converged = rows[:, N_VERTICES] == 1.0
    else:
        final_theta, converged = _descend(block, *params)
    _, _, final_var = _batch_objective(
        final_theta, block, min_separation, separation_weight)

    xs = np.cos(final_theta)
    ys = np.sin(final_theta)
    dx = xs - xs.mean(axis=1)[:, None]
    dy = ys - ys.mean(axis=1)[:, None]
    signatures = np.sqrt(dx * dx + dy * dy)
    return [LayoutResult(signature=signatures[k].copy(),
                         residual=math.sqrt(max(float(final_var[k]), 0.0)),
                         converged=bool(converged[k]),
                         angles=tuple(final_theta[k]))
            for k in range(count)]


def layout_signature(topology: ProductTopology, **kwargs) -> LayoutResult:
    """Relax one product graph's circular layout and read its signature."""
    return layout_signatures([topology], **kwargs)[0]


# ---------------------------------------------------------------------------
# utility and valuation

EXPECTED_EDGES = 8


def utility_from_edges(edge_count: int, slope: float = 1.0) -> float:
    """Logistic utility of the edge count, centered on 8 edges.

    Strictly increasing, bounded in (-1, 1), zero at 8: counts above 8
    earn positive utility, counts below earn negative utility.
    """
    if not MIN_EDGES <= edge_count <= MAX_EDGES:
        raise ValueError(f"edge count {edge_count} outside [{MIN_EDGES}, {MAX_EDGES}]")
    return 2.0 / (1.0 + math.exp(-slope * (edge_count - EXPECTED_EDGES))) - 1.0


def valuation(ideal, signature) -> float:
    """Euclidean distance between two signatures (a consumer's ideal is
    itself a signature-shaped vector)."""
    a = np.asarray(ideal, dtype=float)
    b = np.asarray(signature, dtype=float)
    if a.shape != (N_VERTICES,) or b.shape != (N_VERTICES,):
        raise ValueError("signatures must have six components")
    diff = a - b
    return float(math.sqrt(np.dot(diff, diff)))


# ---------------------------------------------------------------------------
# product types and type sets


@dataclass(frozen=True, eq=False)
class ProductType:
    type_id: int
    topology: ProductTopology
    signature: np.ndarray
    utility: float


_CANDIDATE_BLOCK = 32


def generate_type_set(n: int, min_distance: float, rng: np.random.Generator,
                      max_attempts: int = 10_000, slope: float = 1.0,
                      **layout_kwargs) -> list[ProductType]:
    """Generate `n` product types whose signatures are pairwise at least
    `min_distance` apart.

    Candidates are drawn (and laid out in blocks, which does not change
    any layout) until enough pass the spacing audit; raises
    GenerationError (carrying the achieved count) once `max_attempts`
    candidates have been examined: the distance is infeasible, or the
    budget too small for it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if min_distance < 0.0:
        raise ValueError("min_distance must be >= 0")
    accepted: list[ProductType] = []
    attempts = 0
    while attempts < max_attempts:
        block = [random_topology(rng) for _ in range(_CANDIDATE_BLOCK)]
        layouts = layout_signatures(block, **layout_kwargs)
        for topology, layout in zip(block, layouts):
            attempts += 1
            if all(valuation(layout.signature, t.signature) >= min_distance
                   for t in accepted):
                accepted.append(ProductType(
                    type_id=len(accepted), topology=topology,
                    signature=layout.signature,
                    utility=utility_from_edges(topology.edge_count, slope)))
                if len(accepted) == n:
                    return accepted
            if attempts >= max_attempts:
                break
    raise GenerationError(
        f"max_type_attempts = {max_attempts} ran out: achieved "
        f"{len(accepted)}/{n} types at min_distance={min_distance}",
        achieved=len(accepted))


# ---------------------------------------------------------------------------
# landscape maxima


def signature_matrix(types) -> np.ndarray:
    return np.stack([t.signature for t in types])


def pairwise_signature_distances(types) -> np.ndarray:
    sigs = signature_matrix(types)
    gram = sigs @ sigs.T
    sq = np.diag(gram)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


def mean_nearest_neighbor_distance(types) -> float:
    """Mean distance from each type to its nearest distinct neighbor."""
    if len(types) < 2:
        raise ValueError("need at least two types")
    dists = pairwise_signature_distances(types)
    np.fill_diagonal(dists, np.inf)
    return float(dists.min(axis=1).mean())


# scale on the mean nearest-neighbor distance used when no explicit maxima
# radius is given; calibrated so the small spurious "maxima" that isolated
# low-utility types would otherwise form get absorbed by nearby better types
DEFAULT_MAXIMA_RADIUS_FACTOR = 1.45


def default_maxima_radius(types, factor: float = DEFAULT_MAXIMA_RADIUS_FACTOR) -> float:
    return factor * mean_nearest_neighbor_distance(types)


def identify_maxima(types, radius: float) -> list[int]:
    """Type ids whose utility is not strictly beaten by any other type
    within `radius` in signature space. Never empty: the global maximum
    always qualifies."""
    if not types:
        raise ValueError("empty type set")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    dists = pairwise_signature_distances(types)
    utils = np.array([t.utility for t in types])
    maxima = []
    for i, t in enumerate(types):
        beaten = (dists[i] <= radius) & (utils > utils[i])
        if not beaten.any():
            maxima.append(t.type_id)
    return maxima


def nearest_max_distance(product_type: ProductType, maxima) -> float:
    """Distance from a type's signature to the nearest maximum (0 when the
    type is itself a maximum)."""
    if not maxima:
        raise ValueError("maxima set is empty")
    max_ids = {m.type_id for m in maxima}
    if product_type.type_id in max_ids:
        return 0.0
    return min(valuation(product_type.signature, m.signature) for m in maxima)


def landscape_distances(types, radius: float | None = None) -> tuple[list[int], list[float]]:
    """Identify maxima (default radius: scaled mean nearest-neighbor
    distance) and return (maxima ids, per-type distance to the nearest
    maximum)."""
    if radius is None:
        radius = default_maxima_radius(types)
    max_ids = identify_maxima(types, radius)
    by_id = {t.type_id: t for t in types}
    maxima = [by_id[i] for i in max_ids]
    return max_ids, [nearest_max_distance(t, maxima) for t in types]


# ---------------------------------------------------------------------------
# type-set CSV

TYPE_CSV_HEADER = ["type_id", "edge_count", "utility",
                   "s0", "s1", "s2", "s3", "s4", "s5"]


def write_type_csv(types, path: str, extra_header=(), extra_cells=None,
                   trailer: str | None = None) -> None:
    """Write one row per type; reals carry 17 significant digits so a
    re-read reproduces them exactly. `extra_header` names the columns of
    `extra_cells`, one list of cells per type."""
    extras = [()] * len(types) if extra_cells is None else extra_cells
    write_csv(path, TYPE_CSV_HEADER + list(extra_header), (
        ",".join([str(t.type_id), str(t.topology.edge_count), fmt_float(t.utility),
                  *(fmt_float(float(s)) for s in t.signature), *extra])
        for t, extra in zip(types, extras, strict=True)), trailer)
