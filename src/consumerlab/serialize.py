"""Shared determinism plumbing: exact float formatting and summation, a
bounded integer draw equal to numpy's, and atomic file writes.

All files are written with '.' decimals, LF line endings and no locale
dependence so that repeated runs produce byte-identical output.
"""

from __future__ import annotations

import os
import tempfile
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits (round-trips exactly)."""
    return "%.17g" % x


def fmt_optional(x: float | None) -> str:
    """`fmt_float`, or "undefined" for a value that does not exist."""
    return "undefined" if x is None else fmt_float(x)


def left_sum(values) -> float:
    """Left-to-right float sum from 0.0, as `sum` adds floats before Python
    3.12; from 3.12 on `sum` compensates and can round differently."""
    total = 0.0
    for value in values:
        total += value
    return total


def draw_below(rng: np.random.Generator, k: int) -> int:
    """`int(rng.integers(0, k))`, draw for draw: the same integer, and `rng`
    left in the same state.

    For 2 <= k < 2**32 numpy runs Lemire's bounded draw on 32-bit words
    (Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS
    29(1), 2019); this runs the same rejection loop on the generator's own
    `next_uint32`, which shares numpy's buffered half-word, at a fraction
    of the cost of a `Generator.integers` call. k = 1 takes no draw, as in
    numpy; every other k goes to `rng.integers` itself.
    """
    if k == 1:
        return 0
    if not 0 < k < 0x100000000:
        return int(rng.integers(0, k))
    bits = rng.bit_generator.ctypes
    m = bits.next_uint32(bits.state) * k
    if m & 0xFFFFFFFF < k:
        threshold = (0x100000000 - k) % k
        while m & 0xFFFFFFFF < threshold:
            m = bits.next_uint32(bits.state) * k
    return m >> 32


def atomic_write_text(path: str, text: str) -> None:
    """Write text to `path` via a temp file + rename in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], rows: list[list[str]],
              trailer: str | None = None) -> None:
    """Write a simple comma-separated file atomically.

    `trailer`, when given, is appended verbatim as a final line (used for
    '#'-prefixed summary lines that readers skip).
    """
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    if trailer is not None:
        lines.append(trailer)
    atomic_write_text(path, "\n".join(lines) + "\n")
