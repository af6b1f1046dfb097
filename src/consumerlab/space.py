"""Bounded grid world: consumer occupancy, product placement, and the
product proximity field that reduces foraging to gradient ascent/descent.

A cell is a plain (x, y) tuple of ints with 0 <= x < width and
0 <= y < height. Neighbor order is fixed N, E, S, W with north at y - 1;
movement and tie-breaking depend on that order, so it must never change.
`ConsumptionSpace.neighbor_cells` is the one routine that enumerates
neighbours and so owns that order; every other neighbourhood
(`von_neumann_neighbors`, `free_neighbor_cells`, `ascend`, `descend`)
iterates it.

A consumer's cell is recorded once, in `Consumer.location`; the space keeps
only the cell -> consumer id index, and placing or moving a consumer
updates both.
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
        self._consumer_at: dict[Cell, int] = {}
        self.products: dict[int, ProductInstance] = {}
        self._product_at: dict[Cell, int] = {}

    # -- geometry -----------------------------------------------------------

    def in_bounds(self, loc: Cell) -> bool:
        return 0 <= loc[0] < self.width and 0 <= loc[1] < self.height

    def neighbor_cells(self, x: int, y: int) -> list[Cell]:
        """In-bounds orthogonal neighbors of (x, y) in the fixed N, E, S, W
        order."""
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
        return [cell for cell in self.neighbor_cells(*loc)
                if cell not in occupied]

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
        if manhattan(current, to) != 1 or not self.in_bounds(to):
            raise ValueError(f"{to} is not a von Neumann neighbor of {current}")
        if to in self._consumer_at:
            return False
        del self._consumer_at[current]
        self._consumer_at[to] = consumer.id
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

    def _paint_window(self, x0: int, x1: int, y0: int, y1: int) -> None:
        # recompute field(c) = max over products of max(0, 1 - manhattan/R)
        # for every cell in the (inclusive) window
        if not self.products:
            self.field[y0:y1 + 1, x0:x1 + 1] = 0.0
            return
        px = np.array([p.location[0] for p in self.products.values()])
        py = np.array([p.location[1] for p in self.products.values()])
        xs = np.arange(x0, x1 + 1)
        ys = np.arange(y0, y1 + 1)
        dx = np.abs(xs[None, :, None] - px[None, None, :])
        dy = np.abs(ys[:, None, None] - py[None, None, :])
        contrib = 1.0 - (dx + dy) / self.radius
        np.maximum(contrib, 0.0, out=contrib)
        self.field[y0:y1 + 1, x0:x1 + 1] = contrib.max(axis=2)

    def rebuild_field(self) -> None:
        """Recompute the whole proximity field from product locations."""
        self._paint_window(0, self.width - 1, 0, self.height - 1)

    def _window_around(self, loc: Cell) -> tuple[int, int, int, int]:
        x, y = loc
        r = self.radius
        return (max(0, x - r), min(self.width - 1, x + r),
                max(0, y - r), min(self.height - 1, y + r))

    def _max_in_product(self, loc: Cell) -> None:
        # fold one product's contribution into the field (max composition)
        x0, x1, y0, y1 = self._window_around(loc)
        xs = np.arange(x0, x1 + 1)
        ys = np.arange(y0, y1 + 1)
        dist = np.abs(xs[None, :] - loc[0]) + np.abs(ys[:, None] - loc[1])
        contrib = 1.0 - dist / self.radius
        np.maximum(contrib, 0.0, out=contrib)
        np.maximum(self.field[y0:y1 + 1, x0:x1 + 1], contrib,
                   out=self.field[y0:y1 + 1, x0:x1 + 1])

    def relocate_product(self, instance_id: int, to: Cell) -> None:
        """Move a product and update the field incrementally (bit-identical
        to a full rebuild)."""
        if not self.in_bounds(to):
            raise ValueError(f"{to} out of bounds")
        inst = self.products[instance_id]
        if to == inst.location:
            return
        if to in self._product_at:
            raise ValueError(f"cell {to} already holds a product")
        old = inst.location
        del self._product_at[old]
        self._product_at[to] = instance_id
        inst.location = to
        self._paint_window(*self._window_around(old))
        self._max_in_product(to)

    def field_at(self, loc: Cell) -> float:
        return float(self.field[loc[1], loc[0]])

    # -- gradient movement targets -------------------------------------------

    def ascend(self, loc: Cell) -> Cell:
        """Neighbor with the largest field value, ties resolved by N, E, S, W
        order; returns `loc` when no neighbor strictly improves."""
        field = self.field
        best = field[loc[1], loc[0]]
        best_cell = loc
        for cell in self.neighbor_cells(*loc):
            v = field[cell[1], cell[0]]
            if v > best:
                best = v
                best_cell = cell
        return best_cell

    def descend(self, loc: Cell) -> Cell:
        """Neighbor with the smallest field value, same tie rule; returns
        `loc` when no neighbor strictly decreases."""
        field = self.field
        best = field[loc[1], loc[0]]
        best_cell = loc
        for cell in self.neighbor_cells(*loc):
            v = field[cell[1], cell[0]]
            if v < best:
                best = v
                best_cell = cell
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
        self.relocate_product(instance_id, target)
        inst.in_use = False
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
