"""Weighted, dynamic social ties between consumers.

Ties are undirected with strength in [0, 1]. They strengthen on contact
and interaction, decay a little every cycle, and drop out entirely below
a removal floor. Consumers close to disconnection rebuild their network
through friend-of-friend referrals.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .serialize import draw_below, left_sum


class TieGraph:
    """Undirected weighted graph over consumer ids 0..n-1."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need at least two consumers")
        self.n = n
        self._adj: dict[int, dict[int, float]] = {i: {} for i in range(n)}

    def _check_pair(self, a: int, b: int) -> None:
        if a == b:
            raise ValueError("self-ties are not allowed")
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise ValueError(f"ids ({a}, {b}) out of range")

    def has_tie(self, a: int, b: int) -> bool:
        return b in self._adj[a]

    def strength(self, a: int, b: int) -> float:
        return self._adj[a][b]

    def neighbors(self, a: int) -> dict[int, float]:
        return self._adj[a]

    def degree(self, a: int) -> int:
        return len(self._adj[a])

    def mean_strength(self, a: int) -> float:
        ties = self._adj[a]
        if not ties:
            return 0.0
        return left_sum(ties.values()) / len(ties)

    def add_tie(self, a: int, b: int, strength: float) -> None:
        self._check_pair(a, b)
        s = min(1.0, max(0.0, strength))
        self._adj[a][b] = s
        self._adj[b][a] = s

    def remove_tie(self, a: int, b: int) -> None:
        del self._adj[a][b]
        del self._adj[b][a]

    def strengthen(self, a: int, b: int, delta: float) -> None:
        """Raise the tie by delta (clamped at 1); creates it at delta when
        absent."""
        self._check_pair(a, b)
        current = self._adj[a].get(b, 0.0)
        self.add_tie(a, b, current + delta)

    def decay_all(self, gamma: float, floor: float) -> None:
        """Subtract gamma from every tie; ties falling below `floor` are
        removed. Each tie is updated on its own, so walking the adjacency
        in place leaves every value and every insertion order as a walk
        over the sorted `edges()` would."""
        adj = self._adj
        removed = []
        for a, ties in adj.items():
            for b, s in ties.items():
                if a < b:
                    s -= gamma
                    if s < floor:
                        removed.append((a, b))
                    else:
                        # rebinding a key leaves the dict's size and order
                        ties[b] = s
                        adj[b][a] = s
        for a, b in removed:
            self.remove_tie(a, b)

    def edges(self):
        """Yield (a, b, strength) with a < b, in sorted order."""
        for a in range(self.n):
            for b in sorted(self._adj[a]):
                if a < b:
                    yield a, b, self._adj[a][b]

    def edge_count(self) -> int:
        return sum(len(v) for v in self._adj.values()) // 2

    def is_connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in self._adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def checksum(self) -> str:
        h = hashlib.sha256()
        for a, b, s in self.edges():
            h.update(struct.pack("<iid", a, b, s))
        return h.hexdigest()

    def audit(self) -> None:
        for a, ties in self._adj.items():
            for b, s in ties.items():
                assert a != b, f"self-tie at {a}"
                assert self._adj[b].get(a) == s, f"asymmetric tie ({a}, {b})"
                assert 0.0 <= s <= 1.0, f"tie ({a}, {b}) strength {s} out of range"


def watts_strogatz(n: int, k: int, beta: float, rng: np.random.Generator,
                   initial_strength: float = 0.5,
                   max_attempts: int = 100) -> TieGraph:
    """Small-world tie graph: ring lattice of even degree k, each edge's far
    endpoint rewired with probability beta (no duplicates or self-loops).

    Regenerated with fresh draws until connected; raises after
    `max_attempts` failures, which signals a pathological (k, beta).
    """
    if k % 2 != 0 or k < 2:
        raise ValueError("k must be even and >= 2")
    if not n > k:
        raise ValueError("need n > k")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must be in [0, 1]")
    for _ in range(max_attempts):
        g = TieGraph(n)
        for i in range(n):
            for j in range(1, k // 2 + 1):
                g.add_tie(i, (i + j) % n, initial_strength)
        for i in range(n):
            for j in range(1, k // 2 + 1):
                far = (i + j) % n
                if not g.has_tie(i, far):
                    continue
                if rng.random() < beta:
                    target = _rewire_target(g, i, rng)
                    if target is not None:
                        g.remove_tie(i, far)
                        g.add_tie(i, target, initial_strength)
        if g.is_connected():
            return g
    raise RuntimeError(
        f"no connected Watts-Strogatz graph in {max_attempts} attempts "
        f"(n={n}, k={k}, beta={beta})")


def _rewire_target(g: TieGraph, i: int, rng: np.random.Generator) -> int | None:
    for _ in range(1000):
        m = int(rng.integers(0, g.n))
        if m != i and not g.has_tie(i, m):
            return m
    return None


def referral(g: TieGraph, consumer_id: int, rng: np.random.Generator,
             strength: float = 0.5) -> int | None:
    """Create one friend-of-friend tie for `consumer_id` and return the new
    friend's id.

    The candidate is the non-neighbor two hops away maximizing the product
    of the two connecting tie strengths (lower id on ties). With no
    two-hop candidate the fallback is a uniformly random non-neighbor; a
    consumer already tied to everyone gets a no-op (returns None).
    """
    best: int | None = None
    best_score = -1.0
    for m, s1 in sorted(g.neighbors(consumer_id).items()):
        for b, s2 in sorted(g.neighbors(m).items()):
            if b == consumer_id or g.has_tie(consumer_id, b):
                continue
            score = s1 * s2
            if score > best_score or (score == best_score and (best is None or b < best)):
                best = b
                best_score = score
    if best is None:
        candidates = [b for b in range(g.n)
                      if b != consumer_id and not g.has_tie(consumer_id, b)]
        if not candidates:
            return None
        best = candidates[draw_below(rng, len(candidates))]
    g.add_tie(consumer_id, best, strength)
    return best
