"""Per-consumer learning machinery.

Each consumer carries one self-organizing map, the experience map: a 1-D
map over (signature, realized utility) inputs whose utility component,
compared against an adaptive threshold, decides whether an inspected
product looks attractive. Kohonen, Self-Organizing Maps (3rd ed., 2001)
is the reference for the map and its schedules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UTILITY_DIM = 6  # index of the realized-utility component in conception inputs


class SelfOrganizingMap:
    """Kohonen map on a line of nodes with Gaussian neighborhood and
    multiplicative learning-rate / radius decay."""

    def __init__(self, nodes: int, dim: int, weights: np.ndarray,
                 alpha0: float = 0.3, alpha_decay: float = 0.999,
                 alpha_floor: float = 0.01, radius0: float | None = None,
                 radius_decay: float = 0.999, radius_floor: float = 0.5):
        if nodes < 1:
            raise ValueError("map must have at least one node")
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (nodes, dim):
            raise ValueError(f"weights must have shape {(nodes, dim)}")
        self.dim = dim
        self.weights = weights
        self.alpha0 = alpha0
        self.alpha_decay = alpha_decay
        self.alpha_floor = alpha_floor
        self.radius0 = nodes / 2.0 if radius0 is None else radius0
        self.radius_decay = radius_decay
        self.radius_floor = radius_floor
        self.steps = 0
        self._positions = np.arange(nodes, dtype=float)

    @classmethod
    def random_init(cls, nodes: int, dim: int, rng: np.random.Generator,
                    low: float = 0.0, high: float = 2.0,
                    **kwargs) -> "SelfOrganizingMap":
        weights = rng.uniform(low, high, size=(nodes, dim))
        return cls(nodes, dim, weights, **kwargs)

    def alpha(self) -> float:
        return max(self.alpha_floor, self.alpha0 * self.alpha_decay ** self.steps)

    def radius(self) -> float:
        return max(self.radius_floor, self.radius0 * self.radius_decay ** self.steps)

    def bmu(self, x, dims: int | None = None) -> int:
        """Best-matching unit: node index minimizing Euclidean weight
        distance (lowest index on ties). `dims` restricts the comparison to
        the first `dims` components."""
        x = np.asarray(x, dtype=float)
        expected = self.dim if dims is None else dims
        if x.shape != (expected,):
            raise ValueError(f"input must have {expected} components")
        w = self.weights if dims is None else self.weights[:, :dims]
        diff = w - x
        return int(np.argmin(np.einsum("ij,ij->i", diff, diff)))

    def train(self, x) -> None:
        """One unsupervised step: every node moves toward x, weighted by a
        Gaussian of its distance along the line to the BMU; schedules then advance."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"input must have {self.dim} components")
        delta = self._positions - self.bmu(x)
        grid_d2 = delta * delta
        r = self.radius()
        h = np.exp(-grid_d2 / (2.0 * r * r))
        self.weights += self.alpha() * h[:, None] * (x - self.weights)
        self.steps += 1


@dataclass
class AttractivenessState:
    """Conception-side state: the experience map plus the decision threshold.

    The map's inputs are signature (6) + realized utility (1). Prediction
    looks up the BMU by signature alone and reads the node's utility
    component (clamped to the utility range); training uses all seven
    components. The threshold drifts toward realized utilities.
    """

    som: SelfOrganizingMap
    threshold: float = 0.0
    adapt_rate: float = 0.1

    def predict_utility(self, signature) -> float:
        if self.som.steps == 0:
            raise RuntimeError("attractiveness map used before priming")
        node = self.som.bmu(np.asarray(signature, dtype=float), dims=UTILITY_DIM)
        return float(np.clip(self.som.weights[node, UTILITY_DIM], -1.0, 1.0))

    def learn(self, signature, realized_utility: float) -> None:
        x = np.empty(UTILITY_DIM + 1)
        x[:UTILITY_DIM] = signature
        x[UTILITY_DIM] = realized_utility
        self.som.train(x)

    def update_threshold(self, realized_utility: float) -> None:
        """threshold += rate * (realized - threshold), clamped to [-1, 1]."""
        t = self.threshold + self.adapt_rate * (realized_utility - self.threshold)
        self.threshold = min(1.0, max(-1.0, t))
