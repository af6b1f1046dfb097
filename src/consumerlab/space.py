"""Bounded grid world: consumer occupancy, product placement, and the
product proximity field that reduces foraging to gradient ascent/descent.

A cell is a plain (x, y) tuple of ints with 0 <= x < width and
0 <= y < height. Neighbor order is fixed N, E, S, W with north at y - 1;
movement and tie-breaking depend on that order, so it must never change.
`ConsumptionSpace.neighbor_cells` owns that order for every routine that
takes a list of neighbours: `von_neumann_neighbors` and
`free_neighbor_cells`, which the random step to a free neighbour and the
navigation step in `agents` use. `ascend` and
`descend` run once per moving consumer per cycle, so they test the four
neighbours inline, in the same N, E, S, W order, without building a list;
the tests hold both routines to one reference neighbourhood.

A consumer's cell is recorded once, in `Consumer.location`; the space keeps
only the cell -> consumer id index, and placing or moving a consumer
updates both.

The proximity field is the cell-wise max of one stamp per product, the
stamp being `max(0, 1 - (|dx| + |dy|) / R)` around the product's cell,
computed once per space and cut to the offsets the grid can hold. A
respawn zeroes the old cell's reach and repaints only the products whose
stamps overlap it, plus the moved product at its new cell; max is exact
and order-free, so this equals a full rebuild bit for bit.

`field` is the one copy of the proximity field: a (height, width) float64
array that every write goes to in place. `ascend` and `descend` read it
through `_field_view`, a flat row-major memoryview of the same buffer,
which yields plain Python floats at a fraction of numpy's scalar-indexing
cost; sharing the buffer means there is nothing to keep in sync.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .agents import Consumer


Cell = tuple[int, int]


@dataclass
class ProductInstance:
    instance_id: int
    type_id: int
    location: Cell
    in_use: bool = False


def manhattan(a: Cell, b: Cell) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


class ConsumptionSpace:
    """Grid with at most one consumer and at most one product per cell
    (a consumer and a product may share a cell)."""

    def __init__(self, width: int, height: int, proximity_radius: int = 12):
        if width < 1 or height < 1:
            raise ValueError("grid dimensions must be positive")
        if proximity_radius < 1:
            raise ValueError("proximity radius must be positive")
        self.width = width
        self.height = height
        self.radius = proximity_radius
        self.field = np.zeros((height, width))
        # the same buffer, flat and read as Python floats:
        # field[y, x] == _field_view[y * width + x]
        self._field_view = memoryview(self.field).cast("B").cast("d")
        # stamp[ry + dy, rx + dx] = max(0, 1 - (|dx| + |dy|) / R), cut to
        # the offsets a grid this size can hold
        self._stamp_rx = min(proximity_radius, width - 1)
        self._stamp_ry = min(proximity_radius, height - 1)
        dist = (np.abs(np.arange(-self._stamp_ry, self._stamp_ry + 1))[:, None]
                + np.abs(np.arange(-self._stamp_rx, self._stamp_rx + 1)))
        self._stamp = np.maximum(1.0 - dist / proximity_radius, 0.0)
        self._consumer_at: dict[Cell, int] = {}
        self.products: dict[int, ProductInstance] = {}
        self._product_at: dict[Cell, int] = {}

    # -- geometry -----------------------------------------------------------

    def in_bounds(self, loc: Cell) -> bool:
        return 0 <= loc[0] < self.width and 0 <= loc[1] < self.height

    def neighbor_cells(self, x: int, y: int) -> list[Cell]:
        """In-bounds orthogonal neighbors of (x, y) in the fixed N, E, S, W
        order."""
        if 0 < x < self.width - 1 and 0 < y < self.height - 1:
            return [(x, y - 1), (x + 1, y), (x, y + 1), (x - 1, y)]
        cells = []
        if y > 0:
            cells.append((x, y - 1))
        if x < self.width - 1:
            cells.append((x + 1, y))
        if y < self.height - 1:
            cells.append((x, y + 1))
        if x > 0:
            cells.append((x - 1, y))
        return cells

    def von_neumann_neighbors(self, loc: Cell) -> list[Cell]:
        """In-bounds orthogonal neighbors in fixed N, E, S, W order."""
        return self.neighbor_cells(*loc)

    # -- occupancy ----------------------------------------------------------

    def consumer_at(self, loc: Cell) -> int | None:
        return self._consumer_at.get(loc)

    def free_neighbor_cells(self, loc: Cell) -> list[Cell]:
        """The neighbor cells (N, E, S, W order) holding no consumer."""
        occupied = self._consumer_at
        cells = self.neighbor_cells(*loc)
        # on a default pair 5 % of the plateau steps that call this meet a
        # taken neighbour; the fresh list is returned as it is otherwise
        if occupied.keys().isdisjoint(cells):
            return cells
        return [cell for cell in cells if cell not in occupied]

    def contact_pairs(self) -> list[tuple[int, int]]:
        """Every pair of consumers on orthogonally adjacent cells, once, as
        (lower id, higher id) in ascending order. Each adjacency is found
        from its west or north end, by looking east and south only."""
        at = self._consumer_at.get
        pairs = []
        for (x, y), a in self._consumer_at.items():
            for b in (at((x + 1, y)), at((x, y + 1))):
                if b is not None:
                    pairs.append((a, b) if a < b else (b, a))
        pairs.sort()
        return pairs

    def product_at(self, loc: Cell) -> int | None:
        return self._product_at.get(loc)

    def place_consumer(self, consumer: "Consumer") -> None:
        """Occupy the consumer's current cell."""
        loc = consumer.location
        if not self.in_bounds(loc):
            raise ValueError(f"{loc} out of bounds")
        if loc in self._consumer_at:
            raise ValueError(f"cell {loc} already holds a consumer")
        self._consumer_at[loc] = consumer.id

    def move_consumer(self, consumer: "Consumer", to: Cell) -> bool:
        """Move a consumer to an adjacent cell, updating `consumer.location`.

        Returns True when accepted; a cell occupied by another consumer
        rejects the move and leaves the position unchanged. Moving to the
        current location is an accepted no-op. A non-adjacent target is a
        caller bug and raises.
        """
        current = consumer.location
        if to == current:
            return True
        x, y = to
        dx, dy = x - current[0], y - current[1]
        # integer steps: dx*dx + dy*dy == 1 exactly when |dx| + |dy| == 1
        if (dx * dx + dy * dy != 1
                or not (0 <= x < self.width and 0 <= y < self.height)):
            raise ValueError(f"{to} is not a von Neumann neighbor of {current}")
        occupied = self._consumer_at
        if to in occupied:
            return False
        del occupied[current]
        occupied[to] = consumer.id
        consumer.location = to
        return True

    def place_product(self, instance: ProductInstance) -> None:
        if not self.in_bounds(instance.location):
            raise ValueError(f"{instance.location} out of bounds")
        if instance.location in self._product_at:
            raise ValueError(f"cell {instance.location} already holds a product")
        self.products[instance.instance_id] = instance
        self._product_at[instance.location] = instance.instance_id

    # -- proximity field ----------------------------------------------------

    def _reach(self, loc: Cell) -> tuple[tuple[slice, slice],
                                         tuple[slice, slice]]:
        # the field cells the stamp centred on loc covers, and the part of
        # the stamp that lands on them
        x, y = loc
        rx, ry = self._stamp_rx, self._stamp_ry
        x0, x1 = max(0, x - rx), min(self.width, x + rx + 1)
        y0, y1 = max(0, y - ry), min(self.height, y + ry + 1)
        return ((slice(y0, y1), slice(x0, x1)),
                (slice(y0 - y + ry, y1 - y + ry),
                 slice(x0 - x + rx, x1 - x + rx)))

    def _stamp_at(self, loc: Cell) -> None:
        cells, part = self._reach(loc)
        np.maximum(self.field[cells], self._stamp[part],
                   out=self.field[cells])

    def rebuild_field(self) -> None:
        """Recompute the whole proximity field from product locations."""
        self.field.fill(0.0)
        for inst in self.products.values():
            self._stamp_at(inst.location)

    def field_at(self, loc: Cell) -> float:
        return float(self.field[loc[1], loc[0]])

    # -- gradient movement targets -------------------------------------------

    def ascend(self, loc: Cell) -> Cell:
        """Neighbor with the largest field value, ties resolved by N, E, S, W
        order; returns `loc` when no neighbor strictly improves."""
        x, y = loc
        w = self.width
        field = self._field_view
        i = y * w + x
        best = field[i]
        best_cell = loc
        if y > 0:
            v = field[i - w]
            if v > best:
                best, best_cell = v, (x, y - 1)
        if x < w - 1:
            v = field[i + 1]
            if v > best:
                best, best_cell = v, (x + 1, y)
        if y < self.height - 1:
            v = field[i + w]
            if v > best:
                best, best_cell = v, (x, y + 1)
        if x > 0 and field[i - 1] > best:
            best_cell = (x - 1, y)
        return best_cell

    def descend(self, loc: Cell) -> Cell:
        """Neighbor with the smallest field value, same tie rule; returns
        `loc` when no neighbor strictly decreases."""
        x, y = loc
        w = self.width
        field = self._field_view
        i = y * w + x
        best = field[i]
        best_cell = loc
        if y > 0:
            v = field[i - w]
            if v < best:
                best, best_cell = v, (x, y - 1)
        if x < w - 1:
            v = field[i + 1]
            if v < best:
                best, best_cell = v, (x + 1, y)
        if y < self.height - 1:
            v = field[i + w]
            if v < best:
                best, best_cell = v, (x, y + 1)
        if x > 0 and field[i - 1] < best:
            best_cell = (x - 1, y)
        return best_cell

    # -- respawn --------------------------------------------------------------

    @staticmethod
    def draw_offsets(rng: np.random.Generator, sigma: float) -> tuple[float, float]:
        """Per-axis Gaussian displacement (mean 0, sd sigma), pre-rounding."""
        return float(rng.normal(0.0, sigma)), float(rng.normal(0.0, sigma))

    def respawn_product(self, instance_id: int, rng: np.random.Generator,
                        sigma: float) -> Cell:
        """Move a consumed product to old location + rounded Gaussian offsets,
        clamped to the grid. Cells already holding a product are re-drawn up
        to 100 times, then a row-major linear probe finds the next free cell.
        The instance becomes available again."""
        inst = self.products[instance_id]
        old = inst.location
        target = old
        for _ in range(100):
            ox, oy = self.draw_offsets(rng, sigma)
            target = (min(self.width - 1, max(0, old[0] + int(round(ox)))),
                      min(self.height - 1, max(0, old[1] + int(round(oy)))))
            if self._product_at.get(target) in (None, instance_id):
                break
        else:
            target = self._linear_probe(target, instance_id)
        del self._product_at[old]
        self._product_at[target] = instance_id
        inst.location = target
        inst.in_use = False
        # repaint the old cell's reach from every stamp that overlaps it;
        # the moved product's own stamp lands wherever it went
        cells, _ = self._reach(old)
        self.field[cells] = 0.0
        reach_x, reach_y = 2 * self._stamp_rx, 2 * self._stamp_ry
        for p in self.products.values():
            px, py = p.location
            if p is inst or (abs(px - old[0]) <= reach_x
                             and abs(py - old[1]) <= reach_y):
                self._stamp_at(p.location)
        return target

    def _linear_probe(self, start: Cell, instance_id: int) -> Cell:
        total = self.width * self.height
        idx = start[1] * self.width + start[0]
        for k in range(1, total + 1):
            j = (idx + k) % total
            loc = (j % self.width, j // self.width)
            if self._product_at.get(loc) in (None, instance_id):
                return loc
        raise RuntimeError("no free cell for product respawn")

    # -- audits ----------------------------------------------------------------

    def audit(self, expected_consumers: int | None = None,
              expected_products: int | None = None) -> None:
        """Check occupancy consistency; raises AssertionError on violation.
        That each consumer's cell maps back to it is checked by the owner
        of the consumers (`World.audit`)."""
        for loc, cid in self._consumer_at.items():
            assert self.in_bounds(loc), f"consumer {cid} out of bounds"
        assert len(self._product_at) == len(self.products), \
            "two products share a cell"
        for pid, inst in self.products.items():
            assert self._product_at.get(inst.location) == pid, \
                f"product map desync for {pid}"
            assert self.in_bounds(inst.location), f"product {pid} out of bounds"
        if expected_consumers is not None:
            assert len(self._consumer_at) == expected_consumers, \
                "consumer count drifted"
        if expected_products is not None:
            assert len(self.products) == expected_products, \
                "product count drifted"
