"""Relax every product graph once and write the committed layout table.

    python3 tools/layout_table.py [--out PATH]

A product is a connected graph on six labelled vertices with 5-15 edges:
26,704 of the 2**15 edge subsets of K6, where bit k of an edge mask stands
for VERTEX_PAIRS[k]. Each is relaxed once with the run-time descent at
`products.TABLE_PARAMS` (`RunConfig`'s relaxation defaults), in blocks of
BLOCK masks padded to 15 edges, on every usable CPU.

The output (default: `products.TABLE_PATH`, the table runs read) is one
`.npy` holding a (2**15, 7) float64 array: row `mask` is the six final
angles, then the converged flag as 1.0 or 0.0, and every other row is NaN.
`np.save` writes no timestamp, so a second run reproduces the file's
bytes; the sha256 is printed to check that.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from consumerlab import products  # noqa: E402
from consumerlab.harness import pool_map, usable_cpus  # noqa: E402

BLOCK = 1024
ROWS = 1 << len(products.VERTEX_PAIRS)


def edges(mask: int) -> tuple[tuple[int, int], ...]:
    return tuple(pair for k, pair in enumerate(products.VERTEX_PAIRS)
                 if mask >> k & 1)


def product_masks() -> list[int]:
    """Every edge mask of a connected graph with 5-15 edges, ascending."""
    return [mask for mask in range(ROWS)
            if products.MIN_EDGES <= mask.bit_count() <= products.MAX_EDGES
            and products._is_connected(edges(mask))]


def relax_block(masks: list[int]) -> np.ndarray:
    """(len(masks), 7): each mask's relaxed angles and converged flag."""
    block = products._edge_block([products.ProductTopology(edges(mask))
                                  for mask in masks])
    theta, converged = products._descend(block, *products.TABLE_PARAMS)
    return np.column_stack([theta, converged.astype(float)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(products.TABLE_PATH))
    args = parser.parse_args(argv)
    start = time.perf_counter()
    masks = product_masks()
    blocks = [masks[k:k + BLOCK] for k in range(0, len(masks), BLOCK)]
    table = np.full((ROWS, products.N_VERTICES + 1), np.nan)
    table[masks] = np.concatenate(pool_map(relax_block, blocks, usable_cpus()))
    np.save(args.out, table)
    with open(args.out, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    print(f"{len(masks)} layouts ({int(table[masks, -1].sum())} converged) "
          f"in {time.perf_counter() - start:.1f} s -> {args.out}\n"
          f"sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
